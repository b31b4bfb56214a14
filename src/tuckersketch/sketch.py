"""Random sketching: deterministic Gaussian draws and sketch operators.

Randomness contract
-------------------
Every draw is a pure function of ``(seed, stream_id, count)``:
:func:`normals` keys one counter-based Philox generator with the two
integers, so nothing depends on global RNG state, on call order or on any
earlier draw. Standard normals are produced by the Box-Muller transform
applied to consecutive uniform pairs (u1, u2) from the keyed generator:

    r = sqrt(-2 log(1 - u1)),  z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

emitted in that order; an odd count drops the last pair's z1, so a shorter
draw is a prefix of a longer one. :func:`gaussian_matrix` fills its matrix
row-major. Mode n's Gaussian for another mode m is drawn from stream id
``256 * n + m`` (m <= 255, so ids are distinct): a plan's G_{n,m}, by
:func:`sketch_matrices` alone, so batch and seq draw identical matrices for
a given (seed, mode pair) whenever the shapes agree, and the Khatri-Rao
factors of :func:`sketch_khatri_rao`. The unstructured Omega of
:func:`sketch_full_gaussian` for mode n is drawn from stream id n.

Contraction order
-----------------
:func:`sketch_mode` contracts the other modes with
:func:`tuckersketch.core.mode_products`, in the package's one contraction
order: decreasing shrink ratio, ties in memory order, slowest axis first.
:func:`stacked_products` runs several such chains on one tensor that all
contract one mode m: their mode-m matrices are stacked into one GEMM, and
each chain goes on from its row block of the product in its own order.
:func:`~tuckersketch.tucker.tucker_svd_batch` runs its shared lead and its
fused pass (mode p's sketch with the core) that way, from the
:func:`sketch_matrices` that :func:`sketch_mode` draws, so its sketches
agree with the per-mode ones up to roundoff.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# every randomized algorithm draws from numpy.random, which numpy otherwise
# imports lazily inside the first timed draw
import numpy.random  # noqa: F401

from .core import (KEY_MAX, SparseTensor, check_dims, check_mode, check_per_mode, check_rank,
                   check_seed, dims_of, memory_axes, mode_product, mode_products, mode_view,
                   positive_int, unfold)


def philox_rng(seed, stream_id):
    """numpy Generator over Philox keyed by (seed, stream_id), integers in 0..2^64-1."""
    key = np.array([check_seed(seed), positive_int(stream_id, "stream id", 0, KEY_MAX)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normals(seed, stream_id, n):
    """First ``n`` standard normal variates of the stream ``(seed, stream_id)``.

    Keys one Philox generator and transforms its first ceil(n / 2) uniform
    pairs; a shorter draw is a prefix of a longer one.
    """
    n = positive_int(n, "variate count", 0)
    # the uniforms are drawn into the output and transformed in place; an
    # odd count leaves one spare slot, cut off at the end
    out = np.empty(n + n % 2)
    philox_rng(seed, stream_id).random(out=out)
    r, theta = out[0::2], out[1::2]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    cos *= r
    r[...] = cos
    return out[:n]


def gaussian_matrix(seed, stream_id, rows, cols):
    """rows x cols matrix filled row-major from the stream ``(seed, stream_id)``."""
    rows, cols = positive_int(rows, "rows", 0), positive_int(cols, "cols", 0)
    return normals(seed, stream_id, rows * cols).reshape(rows, cols)


def _stream_id(n, m):
    """Stream id of mode n's Gaussian for mode m: 256 n + m, distinct while m <= 255."""
    return 256 * n + positive_int(m, "sketched mode", 1, 255)


@dataclass(frozen=True)
class SketchPlan:
    """What fixes a sketched run: target ranks, Kronecker chain widths, seed.

    ``sketch_dims[n]`` lists L_{n,m} for the other modes m != n in ascending
    m; mode-n sketching compresses mode m from its current size down to
    L_{n,m}. Mode n's width, the product of its L_{n,m}, must be at least
    mu_n, the basis width :func:`~tuckersketch.linalg.fixed_rank_basis`
    takes from the sketch. ``seed`` fully determines every random draw of a
    run using this plan.
    """

    target_rank: tuple
    sketch_dims: dict = field(hash=False)
    seed: int = 0

    def __post_init__(self):
        n_modes = len(check_per_mode(self.target_rank, "target rank"))
        if n_modes < 1:
            raise ValueError("target rank must name at least one mode")
        rank = tuple(positive_int(r, "target rank entry") for r in self.target_rank)
        object.__setattr__(self, "target_rank", rank)
        object.__setattr__(self, "seed", check_seed(self.seed))
        extra = [k for k in self.sketch_dims if k not in range(1, n_modes + 1)]
        if extra:
            raise ValueError(f"sketch dims given for modes {extra} outside 1..{n_modes}")
        sketch_dims = {}
        for n in range(1, n_modes + 1):
            if n not in self.sketch_dims:
                raise ValueError(f"sketch dims missing for mode {n}")
            ell = tuple(positive_int(x, f"sketch dim for mode {n}")
                        for x in check_per_mode(self.sketch_dims[n], f"sketch dims for mode {n}"))
            if len(ell) != n_modes - 1:
                raise ValueError(f"sketch dims for mode {n} must be {n_modes - 1} positive ints")
            sketch_dims[n] = ell
            width = math.prod(ell)
            if width < rank[n - 1]:
                raise ValueError(f"sketch width {width} for mode {n} is below its target rank "
                                 f"{rank[n - 1]}")
        object.__setattr__(self, "sketch_dims", sketch_dims)

    def width(self, n):
        return math.prod(self.sketch_dims[n])


def default_plan(dims, target_rank, oversampling=10, seed=0):
    """Sketch plan from the square-root splitting rule.

    Per mode, the total width target is M = max(mu + K, (1 + 1/ln mu) * mu)
    (just mu + K when mu <= 1), split into N-1 integer factors near
    M^(1/(N-1)) whose product reaches mu + K: the ceiling and the rounding
    of sqrt(M) at order 3, the ceiling of M^(1/(N-1)) otherwise.
    ``oversampling`` (K) enters the widths only. ``target_rank`` must be
    one integer in 1..I_n per mode (:func:`~tuckersketch.core.check_rank`;
    a rank above I_n raises :class:`~tuckersketch.core.RankTooLargeError`),
    ``dims`` integers >= 1 and ``oversampling`` and ``seed`` integers >= 0;
    a bool, float or string among them raises ``ValueError`` naming it.
    Raises ``ValueError`` for an order-1 tensor, which has no other mode to
    sketch. The widths usually sit outside the regime where the
    sketch-accuracy guarantee applies, which marks the run as heuristic, not
    wrong; :func:`guarantee_gaps` lists the modes and reasons.
    """
    dims = check_dims(dims)
    n_modes = len(dims)
    if n_modes < 2:
        raise ValueError(
            f"a Kronecker sketch plan needs a tensor of order >= 2, got order {n_modes}; "
            "ran_tucker, kr_tucker, hooi and truncated_hosvd accept order 1"
        )
    target_rank = check_rank(dims, target_rank)
    k = positive_int(oversampling, "oversampling", 0)
    sketch_dims = {}
    for n, mu in enumerate(target_rank, start=1):
        m_target = mu + k if mu <= 1 else max(mu + k, (1.0 + 1.0 / math.log(mu)) * mu)
        if n_modes == 3:
            root = math.sqrt(m_target)
            ell = [math.ceil(root), int(math.floor(root + 0.5))]
        else:
            root = m_target ** (1.0 / (n_modes - 1))
            ell = [math.ceil(root)] * (n_modes - 1)
        sketch_dims[n] = tuple(ell)
    return SketchPlan(target_rank, sketch_dims, seed)


def _order(plan, dims):
    """``len(dims)``; ``ValueError`` naming both orders unless it is ``plan``'s order."""
    if len(dims) != len(plan.target_rank):
        raise ValueError(f"a sketch plan of order {len(plan.target_rank)} does not fit "
                         f"a tensor of order {len(dims)}")
    return len(dims)


def guarantee_gaps(plan, dims):
    """Modes whose sketch widths violate the accuracy-guarantee hypotheses.

    The guarantee needs every L_{n,m} > (1 + 1/ln(sqrt(mu))) * sqrt(mu) and the
    total width below min(I_n, prod of the other dims). Returns {mode: reason}.
    ``dims`` must have the plan's order.
    """
    dims = check_dims(dims)
    _order(plan, dims)
    gaps = {}
    for n, mu in enumerate(plan.target_rank, start=1):
        reasons = []
        root = math.sqrt(mu)
        if root <= 1.0:
            reasons.append("rank too small for the width lower bound")
        else:
            bound = (1.0 + 1.0 / math.log(root)) * root
            bad = [ell for ell in plan.sketch_dims[n] if ell <= bound]
            if bad:
                reasons.append(f"factor(s) {bad} <= {bound:.2f}")
        other = math.prod(d for m, d in enumerate(dims, start=1) if m != n)
        if plan.width(n) >= min(dims[n - 1], other):
            reasons.append(f"width {plan.width(n)} >= min(I_n, prod others)")
        if reasons:
            gaps[n] = "; ".join(reasons)
    return gaps


def sketch_matrices(plan, n, dims):
    """{m: G_{n,m}} for every mode m != n of a tensor of shape ``dims``.

    G_{n,m} is L_{n,m} x I_m (``plan.sketch_dims[n]`` in ascending m), drawn
    i.i.d. standard normal from the stream ``(plan.seed, 256 n + m)``.
    """
    others = [m for m in range(1, _order(plan, dims) + 1) if m != n]
    return {m: gaussian_matrix(plan.seed, _stream_id(n, m), ell, dims[m - 1])
            for m, ell in zip(others, plan.sketch_dims[n])}


def sketch_mode(c, n, plan):
    """Structured sketch of ``c`` for mode ``n``: unfold(c x_m G_{n,m}, n).

    The G_{n,m} are :func:`sketch_matrices` for the current sizes of ``c``,
    and the chain runs in :func:`~tuckersketch.core.mode_products`.
    The result equals unfold(c, n) times the transposed Kronecker chain of the
    G matrices (descending m). Sparse inputs are contracted without
    densifying; only the (small) sketched tensor is dense.
    """
    dims = dims_of(c)
    n = check_mode(n, len(dims))
    return unfold(mode_products(c, sketch_matrices(plan, n, dims)), n)


def stacked_products(t, m, chains):
    """``[mode_products(t, c) for c in chains]``, with mode m contracted once for all.

    Every chain (a dict mode -> matrix, as :func:`~tuckersketch.core.mode_products`
    takes) holds a matrix for mode m. Those matrices are stacked row-wise,
    mode m of ``t`` is contracted with the stack in one GEMM, and each chain
    continues on its row block of the product with its other matrices, in
    their own contraction order.
    """
    mats = [c[m] for c in chains]
    lead = mode_product(t, m, np.vstack(mats))
    blocks = np.split(lead, np.cumsum([b.shape[0] for b in mats])[:-1], axis=m - 1)
    return [mode_products(block, {k: b for k, b in c.items() if k != m})
            for block, c in zip(blocks, chains)]


def sketch_full_gaussian(c, n, lprime, seed):
    """Unstructured sketch unfold(c, n) @ Omega with Omega drawn row-major.

    Omega has one row per column of the unfolding and ``lprime`` columns,
    drawn from the stream ``(seed, n)``.
    A dense ``c`` is contracted as its :func:`~tuckersketch.core.mode_view`
    against Omega reordered to match; only Omega, which is small, is ever
    reordered. A sparse ``c`` is multiplied through its CSR unfolding and
    never densified.
    """
    dims = dims_of(c)
    n, lprime = check_mode(n, len(dims)), positive_int(lprime, "sketch width")
    others = tuple(d for i, d in enumerate(dims) if i != n - 1)
    omega = gaussian_matrix(seed, n, math.prod(others), lprime)
    if isinstance(c, SparseTensor):
        return np.asarray(c.unfold_csr(n) @ omega)
    c = np.asarray(c, dtype=np.float64)
    v, axes = mode_view(c, n)
    pre, size, post = v.shape
    # Omega's rows run over the other modes earliest fastest: C order over
    # them reversed; put them in the memory order of the other axes of c
    omega = omega.reshape(others[::-1] + (lprime,))
    rev = [m for m in range(c.ndim - 1, -1, -1) if m != n - 1]
    omega = omega.transpose([rev.index(m) for m in axes if m != n - 1] + [len(rev)])
    omega = omega.reshape(pre, post, lprime)
    if post == 1:
        # one GEMM instead of ``pre`` outer products
        return v.reshape(pre, size).T @ omega[:, 0]
    return np.matmul(v, omega).sum(axis=0)


def sketch_khatri_rao(c, n, lprime, seed):
    """Sketch unfold(c, n) @ KR where KR is a Khatri-Rao chain of Gaussians.

    One I_m x lprime factor per other mode (drawn from the stream
    ``(seed, 256 n + m)``, row-major, ascending m, as :func:`sketch_matrices`
    draws G_{n,m}); column l of the sketch contracts ``c`` with the
    l-th column of every factor. Sparse inputs accumulate per-entry products
    and never densify. A dense ``c`` is contracted by one ``np.einsum`` in its
    memory order (:func:`~tuckersketch.core.memory_axes`; a sliced view in
    its index order), the factor of its fastest axis listed first, or of its
    slowest when the fastest is mode n: the first product is then a GEMM on
    ``c``'s own strides, not on a transposed copy, when the greedy path ties.
    """
    dims = dims_of(c)
    n_modes = len(dims)
    n, lprime = check_mode(n, n_modes), positive_int(lprime, "sketch width")
    others = [m for m in range(1, n_modes + 1) if m != n]
    omegas = {m: gaussian_matrix(seed, _stream_id(n, m), dims[m - 1], lprime) for m in others}
    if isinstance(c, SparseTensor):
        out = np.zeros((dims[n - 1], lprime))
        if c.nnz:
            contrib = np.broadcast_to(c.values[:, None], (c.nnz, lprime)).copy()
            for m in others:
                contrib *= omegas[m][c.coords[:, m - 1]]
            np.add.at(out, c.coords[:, n - 1], contrib)
        return out
    # a mode of size 1 contracts c with the one row of its factor: it
    # scales the columns, and leaves the einsum
    short = [m for m in others if dims[m - 1] == 1]
    scale = np.ones(lprime)
    for m in short:
        scale *= omegas[m][0]
    c = np.squeeze(c, axis=tuple(m - 1 for m in short))
    kept = [m for m in range(1, n_modes + 1) if m not in short]
    if kept == [n]:
        # no other mode is longer than 1: the Khatri-Rao product is one row
        return np.outer(c, scale)
    axes = memory_axes(c)
    if axes is not None:
        # read c in its memory order: axis k of the transpose is mode kept[k]
        c, kept = c.transpose(axes), [kept[k] for k in axes]
    # einsum's sublist form, 'abc,bz,cz->az' for order 3: label k is axis k
    # of c, the last label the column; its 52 labels reach 51 modes longer
    # than 1, more than memory holds
    col = len(kept)
    # an end axis's factor first: einsum's greedy path breaks its ties there
    first = col - 1 if kept[-1] != n else 0
    operands = [c, list(range(col))]
    for k in [first] + [k for k in range(col) if k != first]:
        if kept[k] != n:
            operands += [omegas[kept[k]], [k, col]]
    return np.einsum(*operands, [kept.index(n), col], optimize=True) * scale
