"""Random sketching: deterministic Gaussian streams and sketch operators.

Randomness contract
-------------------
All variates come from counter-based Philox generators keyed by
``(seed, stream_id)``, so any draw is a pure function of those two integers;
nothing depends on global RNG state or call order across streams. Standard
normals are produced by the Box-Muller transform applied to consecutive
uniform pairs (u1, u2) from the keyed stream:

    r = sqrt(-2 log(1 - u1)),  z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

emitted in that order, with an odd trailing variate carried over to the next
request. Matrices are filled row-major. Stream ids are derived as
``256 * target_mode + source_mode`` via :meth:`GaussianStream.fork`, which is
why the batch and sequential decompositions draw identical sketch matrices
for a given (seed, mode pair) whenever the shapes agree.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import SparseTensor, dims_of, mode_product, unfold


class SketchWidthWarning(UserWarning):
    """Chosen sketch widths fall outside the probabilistic guarantee regime."""


def philox_rng(seed, stream_id):
    """numpy Generator over Philox keyed by (seed, stream_id)."""
    if seed < 0 or stream_id < 0:
        raise ValueError(f"seed and stream id must be nonnegative, got {seed}, {stream_id}")
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class GaussianStream:
    """Deterministic stream of standard normal variates.

    The variate sequence depends only on ``(seed, stream_id)``; splitting one
    request into several yields the same sequence (odd leftovers are buffered).
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = philox_rng(self.seed, self.stream_id)
        self._carry = None

    def fork(self, tag):
        """Child stream with id ``256 * stream_id + tag`` (tag in 0..255)."""
        if not 0 <= tag < 256:
            raise ValueError(f"fork tag must be in 0..255, got {tag}")
        return GaussianStream(self.seed, 256 * self.stream_id + tag)

    def normals(self, n):
        """Next ``n`` variates of the stream."""
        n = int(n)
        out = np.empty(n)
        filled = 0
        if self._carry is not None and n > 0:
            out[0] = self._carry
            self._carry = None
            filled = 1
        need = n - filled
        if need > 0:
            pairs = (need + 1) // 2
            u = self._gen.random(2 * pairs)
            r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
            theta = (2.0 * np.pi) * u[1::2]
            z = np.empty(2 * pairs)
            z[0::2] = r * np.cos(theta)
            z[1::2] = r * np.sin(theta)
            out[filled:] = z[:need]
            if need < 2 * pairs:
                self._carry = float(z[-1])
        return out


def gaussian_matrix(stream, rows, cols):
    """rows x cols matrix filled row-major from ``stream``."""
    return stream.normals(rows * cols).reshape(rows, cols)


@dataclass(frozen=True)
class SketchPlan:
    """Per-mode sketch shapes for one decomposition run.

    ``sketch_dims[n]`` lists L_{n,m} for the other modes m != n in ascending
    m; mode-n sketching compresses mode m from its current size down to
    L_{n,m}. ``order`` is the processing order for the sequential algorithm.
    ``seed`` fully determines every random draw of a run using this plan.
    """

    target_rank: tuple
    oversampling: int
    sketch_dims: dict = field(compare=False)
    order: tuple = ()
    seed: int = 0

    def __post_init__(self):
        n_modes = len(self.target_rank)
        if n_modes < 1:
            raise ValueError("target rank must name at least one mode")
        if any(int(r) < 1 for r in self.target_rank):
            raise ValueError(f"target rank entries must be >= 1, got {self.target_rank}")
        if self.oversampling < 0:
            raise ValueError(f"oversampling must be >= 0, got {self.oversampling}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        order = self.order or tuple(range(1, n_modes + 1))
        object.__setattr__(self, "order", tuple(int(p) for p in order))
        if sorted(self.order) != list(range(1, n_modes + 1)):
            raise ValueError(f"order {self.order} is not a permutation of modes 1..{n_modes}")
        object.__setattr__(self, "target_rank", tuple(int(r) for r in self.target_rank))
        for n in range(1, n_modes + 1):
            if n not in self.sketch_dims:
                raise ValueError(f"sketch dims missing for mode {n}")
            ell = tuple(int(x) for x in self.sketch_dims[n])
            if len(ell) != n_modes - 1 or any(x < 1 for x in ell):
                raise ValueError(f"sketch dims for mode {n} must be {n_modes - 1} positive ints")
            self.sketch_dims[n] = ell
            width = int(np.prod(ell))
            floor = self.target_rank[n - 1] + self.oversampling
            if width < floor:
                raise ValueError(
                    f"sketch width {width} for mode {n} is below rank+oversampling={floor}"
                )

    def width(self, n):
        return int(np.prod(self.sketch_dims[n]))


def default_plan(dims, target_rank, oversampling=10, seed=0):
    """Sketch plan from the square-root splitting rule.

    Per mode, the total width target is M = max(mu + K, (1 + 1/ln mu) * mu)
    (just mu + K when mu <= 1), split into N-1 integer factors near
    M^(1/(N-1)); the last factor is bumped until the product reaches mu + K.
    The processing order visits modes by non-increasing dimension, ties by
    mode index. Raises ``ValueError`` for an order-1 tensor, which has no
    other mode to sketch. Emits :class:`SketchWidthWarning` when the chosen
    widths sit outside the regime where the sketch-accuracy guarantee applies
    (most practical widths do; the warning marks the run as heuristic, not
    wrong).
    """
    dims = tuple(int(d) for d in dims)
    target_rank = tuple(int(r) for r in target_rank)
    n_modes = len(dims)
    if n_modes < 2:
        raise ValueError(
            f"a Kronecker sketch plan needs a tensor of order >= 2, got order {n_modes}; "
            "ran_tucker, kr_tucker, hooi and truncated_hosvd accept order 1"
        )
    if len(target_rank) != n_modes:
        raise ValueError(f"target rank has {len(target_rank)} entries for {n_modes} modes")
    for n, (mu, dim) in enumerate(zip(target_rank, dims), start=1):
        if not 1 <= mu <= dim:
            raise ValueError(f"target rank for mode {n} must be in 1..{dim}, got {mu}")
    sketch_dims = {}
    for n, mu in enumerate(target_rank, start=1):
        k = oversampling
        m_target = mu + k if mu <= 1 else max(mu + k, (1.0 + 1.0 / math.log(mu)) * mu)
        if n_modes == 3:
            root = math.sqrt(m_target)
            ell = [math.ceil(root), int(math.floor(root + 0.5))]
        else:
            root = m_target ** (1.0 / (n_modes - 1))
            ell = [math.ceil(root)] * (n_modes - 1)
        ell = [max(1, x) for x in ell]
        while np.prod(ell) < mu + k:
            ell[-1] += 1
        sketch_dims[n] = tuple(ell)
    order = tuple(sorted(range(1, n_modes + 1), key=lambda n: (-dims[n - 1], n)))
    plan = SketchPlan(target_rank, oversampling, sketch_dims, order, seed)
    gaps = guarantee_gaps(plan, dims)
    if gaps:
        warnings.warn(
            "sketch widths outside the guarantee regime for modes "
            + ", ".join(f"{n} ({why})" for n, why in sorted(gaps.items())),
            SketchWidthWarning,
            stacklevel=2,
        )
    return plan


def guarantee_gaps(plan, dims):
    """Modes whose sketch widths violate the accuracy-guarantee hypotheses.

    The guarantee needs every L_{n,m} > (1 + 1/ln(sqrt(mu))) * sqrt(mu) and the
    total width below min(I_n, prod of the other dims). Returns {mode: reason}.
    """
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
        other = int(np.prod([dims[m - 1] for m in range(1, len(dims) + 1) if m != n]))
        if plan.width(n) >= min(dims[n - 1], other):
            reasons.append(f"width {plan.width(n)} >= min(I_n, prod others)")
        if reasons:
            gaps[n] = "; ".join(reasons)
    return gaps


def sketch_mode(c, n, plan, stream):
    """Structured sketch of ``c`` for mode ``n``: unfold(c x_m G_{n,m}, n).

    Each G_{n,m} is L_{n,m} x (current size of mode m), drawn i.i.d. standard
    normal from ``stream.fork(m)``. Contractions run in decreasing shrink
    ratio (size / L), ties by ascending mode, a pure function of the shapes.
    The result equals unfold(c, n) times the transposed Kronecker chain of the
    G matrices (descending m). Sparse inputs are contracted without
    densifying; only the (small) sketched tensor is dense.
    """
    dims = dims_of(c)
    n_modes = len(dims)
    others = [m for m in range(1, n_modes + 1) if m != n]
    ells = dict(zip(others, plan.sketch_dims[n]))
    mats = {m: gaussian_matrix(stream.fork(m), ells[m], dims[m - 1]) for m in others}
    order = sorted(others, key=lambda m: (-dims[m - 1] / ells[m], m))
    out = c
    for m in order:
        out = mode_product(out, m, mats[m])
    return unfold(out, n)


def sketch_full_gaussian(c, n, lprime, stream):
    """Unstructured sketch unfold(c, n) @ Omega with Omega drawn row-major.

    Omega has one row per column of the unfolding and ``lprime`` columns.
    A dense ``c`` is contracted on its own C or F strides, viewed as
    (pre, I_n, post) against Omega reordered to match; only Omega, which is
    small, is ever reordered (any other layout of ``c`` is copied once, as in
    :func:`mode_product`). A sparse ``c`` is multiplied through its CSR
    unfolding and never densified.
    """
    dims = dims_of(c)
    others = tuple(d for i, d in enumerate(dims) if i != n - 1)
    omega = gaussian_matrix(stream, math.prod(others), lprime)
    if isinstance(c, SparseTensor):
        return np.asarray(c.unfold_csr(n) @ omega)
    c = np.asarray(c, dtype=np.float64)
    # Omega's rows run over the other modes earliest fastest: C order over
    # them reversed, which is the mode order of c.T
    omega = omega.reshape(others[::-1] + (lprime,))
    if c.flags.f_contiguous and not c.flags.c_contiguous:
        t, mode = c.T, c.ndim + 1 - n
    else:
        t, mode = np.ascontiguousarray(c), n
        omega = np.ascontiguousarray(np.moveaxis(omega, -1, 0).T)
    pre = math.prod(t.shape[: mode - 1])
    post = math.prod(t.shape[mode:])
    omega = omega.reshape(pre, post, lprime)
    if post == 1:
        # one GEMM instead of ``pre`` outer products
        return t.reshape(pre, dims[n - 1]).T @ omega[:, 0]
    return np.matmul(t.reshape(pre, dims[n - 1], post), omega).sum(axis=0)


def sketch_khatri_rao(c, n, lprime, stream):
    """Sketch unfold(c, n) @ KR where KR is a Khatri-Rao chain of Gaussians.

    One I_m x lprime factor per other mode (drawn from ``stream.fork(m)``,
    row-major, ascending m); column l of the sketch contracts ``c`` with the
    l-th column of every factor. Sparse inputs accumulate per-entry products
    and never densify.
    """
    dims = dims_of(c)
    n_modes = len(dims)
    others = [m for m in range(1, n_modes + 1) if m != n]
    omegas = {m: gaussian_matrix(stream.fork(m), dims[m - 1], lprime) for m in others}
    if isinstance(c, SparseTensor):
        out = np.zeros((dims[n - 1], lprime))
        if c.nnz:
            contrib = np.broadcast_to(c.values[:, None], (c.nnz, lprime)).copy()
            for m in others:
                contrib *= omegas[m][c.coords[:, m - 1]]
            np.add.at(out, c.coords[:, n - 1], contrib)
        return out
    if not others:
        # the Khatri-Rao product of no factors is a row of ones
        return np.outer(c, np.ones(lprime))
    # einsum such as 'abc,bz,cz->az' for order 3
    letters = [chr(ord("a") + i) for i in range(n_modes)]
    terms = ["".join(letters)] + [letters[m - 1] + "z" for m in others]
    expr = ",".join(terms) + "->" + letters[n - 1] + "z"
    return np.einsum(expr, c, *[omegas[m] for m in others], optimize=True)
