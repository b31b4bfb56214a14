"""Low multilinear rank approximation of order-N tensors.

All algorithms return a :class:`TuckerApprox` whose core is the source tensor
projected onto the orthonormal factor bases, so the reconstruction error obeys
``||a - recon||^2 = ||a||^2 - ||core||^2`` up to roundoff.

Five algorithms run the one per-mode loop :func:`_tucker`, each with its
own basis function; :func:`hooi` runs it once per sweep.
:func:`tucker_svd_batch` takes every basis from sketches of the original
tensor: a sparse one in that loop, a dense one in its own steps, which
share the outermost mode's product among the sketches and take the core
in the same pass as the last sketch.
Every basis is ``(factor, numerical rank)``: :func:`linalg.fixed_rank_basis`
of a sketch (seq, batch), :func:`linalg.qr_basis_with_rank` of a one-matrix
sketch (ran, kr), or :func:`_exact_basis` of an unfolding (HOSVD, hooi). A
full-rank mode has no basis, so :func:`_project` skips it; only the result,
built by :func:`_approx`, holds a fresh identity for it.

:func:`rlne` never forms the reconstruction: it streams the residual in
slabs of about 2 MiB along the slowest axis in memory, reading the input
once. :func:`reconstruct` builds the dense tensor for callers that want it.

Randomized algorithms are pure functions of (tensor, plan) or (tensor,
parameters, seed); see :mod:`tuckersketch.sketch` for the stream ids.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import (
    SQUARES_RANGE,
    RankTooLargeError,  # noqa: F401  (kept as tucker.RankTooLargeError)
    SparseTensor,
    check_per_mode,
    check_rank,
    check_seed,
    check_tensor,
    contraction_order,
    dims_of,
    frob_norm,
    memory_axes,
    mode_product,
    mode_products,
    mode_view,
    positive_int,
    pow2_scale,
    real_number,
    unfold,
)
from .sketch import (
    default_plan,
    gaussian_matrix,
    sketch_full_gaussian,
    sketch_khatri_rao,
    sketch_matrices,
    sketch_mode,
    stacked_products,
)

ORTHO_TOL = 1e-10
# entries of the largest array a streamed pass allocates per block (2 MiB of doubles)
_SLAB = 1 << 18


@dataclass
class TuckerApprox:
    """Core tensor plus one orthonormal factor matrix per mode.

    ``factors[n-1]`` has shape (I_n, mu_n); orthonormality is checked at
    construction, and the core is stored C-contiguous. ``rank_warnings``
    lists modes whose requested width exceeded the numerical rank of the
    sketched/unfolded data (those trailing basis columns are arbitrary).
    ``fit_history`` is populated by :func:`hooi`.
    """

    core: np.ndarray
    factors: list
    rank_warnings: tuple = ()
    fit_history: tuple = ()

    def __post_init__(self):
        # the core has at most prod(mu) entries: hand it back in C order
        self.core = np.ascontiguousarray(self.core, dtype=np.float64)
        self.factors = [np.asarray(q, dtype=np.float64) for q in self.factors]
        if not np.isfinite(self.core).all():
            raise ValueError("core has non-finite entries (NaN or infinity)")
        if self.core.ndim != len(self.factors):
            raise ValueError(
                f"core order {self.core.ndim} does not match {len(self.factors)} factors"
            )
        for n, q in enumerate(self.factors, start=1):
            if q.ndim != 2 or q.shape[1] != self.core.shape[n - 1]:
                raise ValueError(
                    f"factor {n} shape {q.shape} does not match core dim "
                    f"{self.core.shape[n - 1]}"
                )
            gram_err = np.abs(q.T @ q - np.eye(q.shape[1])).max()
            # written so that a NaN deviation fails the check
            if not gram_err <= ORTHO_TOL:
                raise ValueError(
                    f"factor {n} is not orthonormal (deviation {gram_err:.2e})"
                )

    @property
    def dims(self):
        return tuple(q.shape[0] for q in self.factors)

    @property
    def target_rank(self):
        return self.core.shape

    def source_residuals(self, source):
        """Consistency of this approximation against its source tensor.

        Returns ``(core_rel, pythagoras_rel)``: the relative error between the
        stored core and ``source x_n Q_n^T``, and the relative gap in
        ``||a - recon||^2 == ||a||^2 - ||core||^2``.
        """
        norm_a = frob_norm(source)
        if norm_a == 0.0:
            return 0.0, 0.0
        chain = _project(source, self.factors)
        core_rel = float(np.linalg.norm((chain - self.core).ravel())) / norm_a
        err = rlne(source, self) * norm_a
        pyth = abs(err**2 - (norm_a**2 - frob_norm(self.core) ** 2)) / norm_a**2
        return core_rel, float(pyth)


@dataclass
class Metrics:
    rlne: float
    fit: float
    wall_time_s: float


def _project(a, factors):
    """Dense ``a x_m Q_m^T`` by :func:`~tuckersketch.core.mode_products`.

    A ``None`` factor marks a mode that is not contracted.
    """
    return mode_products(a, {m: q.T for m, q in enumerate(factors, start=1) if q is not None})


def reconstruct(approx):
    """Dense tensor ``core x_n Q_n`` of the approximation."""
    return mode_products(approx.core, dict(enumerate(approx.factors, start=1)))


@np.errstate(over="ignore")  # an overflowed sum of squares is redone scaled
def rlne(a, approx):
    """Relative low-rank norm error ||a - reconstruct(approx)|| / ||a||.

    Streams the residual slab by slab along the slowest axis in memory, so
    ``a`` is read once and both norms come from that one read, which is the
    two-thread BLAS dot of a dense slab for ||a||^2, taken before the slab's
    GEMM so that the one-core subtract finds the slab in cache: any layout
    that :func:`~tuckersketch.core.memory_axes` describes is walked as the
    C-contiguous transpose of itself, with the core and factors permuted to
    match, and any other view (a sliced one) in its C index order, without a
    copy. The core is contracted with every factor but the fastest axis's
    into a C-contiguous chain, one chunk of whole slabs of the slowest axis
    at a time; each slab of the reconstruction is then one GEMM against that
    factor. Modes that the contraction order puts before the slowest axis's
    are contracted once, on the whole core. Memory is one slab and one chunk
    of the chain, each of at most ``_SLAB`` entries when one index of the
    slowest axis allows it, plus that once-contracted core, r_1 / I_1 of the
    whole chain; a :class:`SparseTensor` subtracts its nonzeros from each
    dense slab instead of being densified. It is correct for any finite entries, the
    subnormal ones included: a sum of squares outside ``core.SQUARES_RANGE``
    is redone, once, on ``a`` and the core times an exact power of two. Raises
    ``ValueError`` for a non-finite ``a``, for one that
    :func:`~tuckersketch.core.check_tensor` refuses, and when the dims of
    ``a`` and ``approx`` differ.
    """
    a = check_tensor(a)
    dims = dims_of(a)
    if dims != approx.dims:
        raise ValueError(f"tensor dims {dims} do not match approximation dims {approx.dims}")
    t, core, factors = a, approx.core, approx.factors
    sparse = isinstance(a, SparseTensor)
    if not sparse:
        axes = memory_axes(a)
        if axes is not None:
            # walk the C-contiguous transpose: the permuted problem
            t, core = a.transpose(axes), core.transpose(axes)
            factors, dims = [factors[m] for m in axes], t.shape
    core = np.ascontiguousarray(core)
    chain = dict(enumerate(factors[:-1], start=1))
    # the order of mode_products over the whole chain, kept by every chunk;
    # the modes it puts before mode 1 are contracted once, on the whole core
    chain_order = contraction_order(core, {m: core.shape[m - 1] / q.shape[0]
                                           for m, q in chain.items()})
    cut = chain_order.index(1) if chain else 0
    for m in chain_order[:cut]:
        core = mode_product(core, m, chain[m])
    q_t = factors[-1].T
    last = len(dims) - 1
    # a slab fixes the axes before k and takes `step` indices of axis k with
    # every axis after it in full: at most _SLAB entries, in C order
    k = next(k for k in range(len(dims)) if math.prod(dims[k + 1 :]) <= _SLAB)
    inner = math.prod(dims[k + 1 :])
    step = max(1, _SLAB // inner)
    # the core chain w, of shape dims[:-1] + (r_N,), is built for `span`
    # indices of axis 0 at a time: whole slabs, and at most _SLAB entries
    # unless one index holds more; slab rows of it times q_t give the slab
    span = max(1, _SLAB // (math.prod(dims[1:last]) * q_t.shape[0]))
    if k == 0:
        span = max(1, span // step) * step
    lo = hi = 0
    buf = np.empty(min(step, dims[k]) * inner)
    if sparse:
        blocks = -(-dims[k] // step)
        slab_of = a.coords[:, k] // step
        if k:
            slab_of += blocks * np.ravel_multi_index(tuple(a.coords[:, :k].T), dims[:k])
        order = np.argsort(slab_of, kind="stable")
        bounds = np.searchsorted(slab_of[order], np.arange(math.prod(dims[:k]) * blocks + 1))
        norm2 = float(a.values @ a.values)
    else:
        norm2 = 0.0
    err2 = 0.0
    slabs = itertools.product(np.ndindex(*dims[:k]), range(0, dims[k], step))
    for j, (head, start) in enumerate(slabs):
        ix = head + (slice(start, start + step),)
        i = head[0] if k else start
        if i >= hi:
            lo, hi = i, min(i + span, dims[0])
            w = core
            for m in chain_order[cut:]:
                w = mode_product(w, m, chain[m][lo:hi] if m == 1 else chain[m])
            w = np.ascontiguousarray(w)
        shape = (min(step, dims[k] - start),) + dims[k + 1 :]
        cols = ix[last] if k == last else slice(None)
        if not sparse:
            # the threaded dot takes the slab's first read, so the one-core
            # subtract after the GEMM finds it in cache
            x = t[ix]
            flat = x.reshape(-1)
            norm2 += float(flat @ flat)
        r = buf[: shape[0] * inner].reshape(shape)
        first = i - lo if k else slice(i - lo, i - lo + step)
        rows = w[((first,) + ix[1:])[:last]].reshape(-1, q_t.shape[0])
        np.matmul(rows, q_t[:, cols], out=r.reshape(-1, shape[-1]))
        if sparse:
            sel = order[bounds[j] : bounds[j + 1]]
            at = (a.coords[sel, k] - start,) + tuple(a.coords[sel, k + 1 :].T)
            r[at] -= a.values[sel]
        else:
            r -= x
        r = r.reshape(-1)
        err2 += float(r @ r)
    if not SQUARES_RANGE[0] <= norm2 <= SQUARES_RANGE[1]:
        scale = pow2_scale(a.values if sparse else a)
        if scale != 1.0:
            a = SparseTensor(a.dims, a.coords, a.values * scale) if sparse else a * scale
            return rlne(a, TuckerApprox(approx.core * scale, approx.factors))
        if not math.isfinite(norm2):
            raise ValueError("tensor has non-finite entries (NaN or infinity)")
    err, norm_a = math.sqrt(err2), math.sqrt(norm2)
    if norm_a == 0.0:
        return 0.0 if err == 0.0 else math.inf
    return err / norm_a


def metrics_for(a, approx, wall_time_s=float("nan")):
    e = rlne(a, approx)
    return Metrics(rlne=e, fit=1.0 - e, wall_time_s=wall_time_s)


def _input(a, target_rank):
    """Checked ``(a, target_rank)``; a view that mode products would copy is copied once."""
    a = check_tensor(a)
    rank = check_rank(dims_of(a), target_rank)
    if not isinstance(a, SparseTensor) and memory_axes(a) is None:
        a = np.ascontiguousarray(a)
    return a, rank


def _tucker(a, target_rank, basis, order=None, sequential=True):
    """Per-mode loop: ``basis(c, n, mu)`` gives (factor, numerical rank).

    ``a`` and ``target_rank`` are as :func:`_input` returns them.
    ``sequential`` shrinks the working tensor ``c`` by each factor in ``order``
    (default 1..N), so ``c`` ends as the core; otherwise ``c`` stays ``a``,
    and the core is ``a`` projected onto the factors at the end.
    """
    dims = dims_of(a)
    c = a
    bases = {}
    for n in order or range(1, len(dims) + 1):
        mu = target_rank[n - 1]
        if mu == dims[n - 1]:
            continue
        bases[n] = basis(c, n, mu)
        if sequential:
            c = mode_product(c, n, bases[n][0].T)
    if not sequential:
        c = _project(a, [bases[n][0] if n in bases else None for n in range(1, len(dims) + 1)])
    return _approx(a, c, bases)


def _approx(a, core, bases):
    """:class:`TuckerApprox` of ``core`` and ``bases`` {mode: (factor, numerical rank)}.

    A mode without a basis is at full rank and gets a fresh identity factor.
    A core that is ``a`` itself (every mode at full rank) is copied, so it
    does not alias the input. A basis whose numerical rank is below its
    width is listed in ``rank_warnings``.
    """
    if core is a:
        core = a.densify() if isinstance(a, SparseTensor) else np.array(a, order="C")
    factors = [bases[n][0] if n in bases else np.eye(d) for n, d in enumerate(dims_of(a), start=1)]
    warned = tuple(sorted(n for n, (q, rank) in bases.items() if rank < q.shape[1]))
    return TuckerApprox(core, factors, rank_warnings=warned)


def _exact_basis(a, n, mu):
    """Leading mu left singular vectors of the exact mode-n unfolding.

    A sparse unfolding X keeps only its rows and columns that hold an
    entry, at most nnz of each: the left singular vectors of nonzero
    singular values live on those rows. When the kept matrix is narrow or
    holds at most ``_SLAB`` entries, it is densified and goes to
    :func:`linalg.left_singular`, as a dense unfolding does. A larger wide
    one takes them from the eigenvectors U of its Gram X X^T, at most
    nnz x nnz, and the singular values for the rank decision from the
    column norms of X^T U, where null directions come out near
    eps * sigma_1 (the Gram eigenvalues' roundoff would give
    sqrt(eps) * sigma_1), so the 1e-12 * sigma_1 rule of every other basis
    applies. That settles exact-rank inputs; a spectrum that decays smoothly
    below sqrt(eps) * sigma_1 still mixes the trailing eigenvectors. The
    basis is scattered back into the full rows, and unit vectors on empty
    rows complete a width above the kept rows.
    """
    if isinstance(a, SparseTensor):
        import scipy.sparse  # loaded by unfold_csr

        x = a.unfold_csr(n).tocoo()
        rows, i = np.unique(x.row, return_inverse=True)
        j = np.unique(x.col, return_inverse=True)[1]
        shape = (len(rows), j.max(initial=-1) + 1)
        x = scipy.sparse.csr_matrix((x.data, (i, j)), shape=shape)
        width = min(mu, shape[0])
        # an unfolding with no entry (0 x 0) takes the Gram route, which allows it
        if shape[1] < shape[0] or 0 < math.prod(shape) <= _SLAB:
            part, sig = linalg.left_singular(x.toarray(), width)
        else:
            # an exact power-of-two scale keeps the Gram matrix in the double range
            x = x * pow2_scale(a.values)
            evals, evecs = np.linalg.eigh(linalg.check_finite((x @ x.T).toarray()))
            part = evecs[:, np.argsort(evals)[::-1][:width]]
            sig = np.linalg.norm(x.T @ part, axis=0)
        u = np.zeros((a.dims[n - 1], mu))
        u[rows, :width] = part
        u[np.setdiff1d(np.arange(len(u)), rows)[: mu - width], np.arange(width, mu)] = 1.0
        return u * linalg.column_sign_flips(u), linalg.numerical_rank(sig)
    # unfold(a, n) with its columns in memory order: the same left singular
    # vectors, and a view when mode n is at either end of memory
    v, _ = mode_view(a, n)
    u, sig = linalg.left_singular(v.transpose(1, 0, 2).reshape(v.shape[1], -1), mu)
    return u, linalg.numerical_rank(sig)


def _sketch_basis(plan):
    """``basis(c, n, mu)`` for :func:`_tucker`: the SVD basis of ``c``'s :func:`sketch_mode`."""

    def basis(c, n, mu):
        return linalg.fixed_rank_basis(sketch_mode(c, n, plan), mu)

    return basis


def tucker_svd_batch(a, plan):
    """Batch sketched decomposition: every mode sketches the original tensor.

    For each mode independently, compress all other modes of ``a`` with
    Gaussian matrices, take the rank-mu_n SVD basis of the mode-n unfolding of
    the sketch, then project ``a`` onto all the bases for the core. A sparse
    ``a`` runs just that. A dense one is read along its outermost mode in
    memory p, its slowest axis longer than 1
    (:func:`~tuckersketch.core.memory_axes`):

    1. The other modes that need a basis are sketched. When their widths
       L_{n,p} sum to less than I_p, one read contracts mode p for all of
       them (:func:`~tuckersketch.sketch.stacked_products`); otherwise that
       product would be larger than ``a``, and each is sketched on its own.
    2. Their bases Q_m are taken.
    3. If p needs a basis too, one more read gives p's sketch and ``a``
       projected onto the Q_m: mode q, the first mode of
       :func:`~tuckersketch.core.contraction_order` by the ratios
       I_q / (L_{p,q} + mu_q), is contracted with G_{p,q} stacked on
       Q_q^T, in blocks of whole indices of p whose stacked product holds
       at most ``_SLAB`` entries.
       p's basis, taken last, shrinks that partial core to the core.
       Otherwise the core is one projection of ``a`` at the end.

    So a dense ``a`` is read twice when the lead shrinks. The draws are
    those of :func:`~tuckersketch.sketch.sketch_mode`; only the contraction
    order differs, so the sketches and the core agree with the per-mode
    ones up to roundoff. Memory: at most 0.2x ``a.nbytes`` (``tracemalloc``
    peak, dense reciprocal_sum 100^3 at rank 5, C or F order).
    """
    a, target_rank = _input(a, plan.target_rank)
    if isinstance(a, SparseTensor):
        return _tucker(a, target_rank, _sketch_basis(plan), sequential=False)
    dims = a.shape
    modes = [n for n, (mu, d) in enumerate(zip(target_rank, dims), start=1) if mu < d]
    chains = {n: sketch_matrices(plan, n, dims) for n in modes}
    # _input leaves a layout that memory_axes describes
    axes = memory_axes(a)
    p = next((m for m in axes if dims[m] > 1), axes[0]) + 1
    lead = [n for n in modes if n != p]
    # p's sketch waits for the other bases, to share the core's read of a
    fused = p in modes and bool(lead)
    if lead and sum(chains[n][p].shape[0] for n in lead) < dims[p - 1]:
        sketches = dict(zip(lead, stacked_products(a, p, [chains[n] for n in lead])))
    else:
        sketches = {n: mode_products(a, chains[n]) for n in modes if not (fused and n == p)}
    bases = {n: linalg.fixed_rank_basis(unfold(s, n), target_rank[n - 1])
             for n, s in sketches.items()}
    if not fused:
        return _approx(a, _project(a, [bases[n][0] if n in bases else None
                                       for n in range(1, len(dims) + 1)]), bases)
    g, qts = chains[p], {m: q.T for m, (q, _) in bases.items()}
    ratios = {m: dims[m - 1] / (g[m].shape[0] + qt.shape[0]) for m, qt in qts.items()}
    q = contraction_order(a, ratios)[0]
    sketch = np.empty([dims[m - 1] if m == p else g[m].shape[0] for m in range(1, len(dims) + 1)])
    partial = np.empty([qts[m].shape[0] if m in qts else d for m, d in enumerate(dims, start=1)])
    # a block's stacked product is its input over ratios[q]: at most _SLAB entries
    step = max(1, _SLAB * dims[p - 1] * dims[q - 1]
               // (a.size * (g[q].shape[0] + qts[q].shape[0])))
    for lo in range(0, dims[p - 1], step):
        ix = (slice(None),) * (p - 1) + (slice(lo, lo + step),)
        sketch[ix], partial[ix] = stacked_products(a[ix], q, [g, qts])
    bases[p] = linalg.fixed_rank_basis(unfold(sketch, p), target_rank[p - 1])
    return _approx(a, mode_product(partial, p, bases[p][0].T), bases)


def tucker_svd_seq(a, plan):
    """Sequential sketched decomposition (the recommended default).

    Modes are processed by non-increasing dimension I_n, ties by mode
    index: a rule of the dims alone, not of memory layout, so every copy of
    one tensor gets the same decomposition. Each processed mode immediately
    shrinks the working tensor, so later sketches act on smaller data. The
    final working tensor is the core. Memory: at most 0.075x ``a.nbytes``
    (``tracemalloc`` peak, dense reciprocal_sum 100^3 at rank 5, C or F order).
    """
    a, target_rank = _input(a, plan.target_rank)
    dims = dims_of(a)
    order = sorted(range(1, len(dims) + 1), key=lambda n: (-dims[n - 1], n))
    return _tucker(a, target_rank, _sketch_basis(plan), order)


def _sketch_widths(target_rank, lprime, oversampling):
    """One sketch width per mode, each at least its rank in the checked ``target_rank``.

    ``lprime`` is one integer for every mode or one per mode; ``None`` gives
    mu_n + ``oversampling``.
    """
    if lprime is None:
        lprime = [mu + positive_int(oversampling, "oversampling", 0) for mu in target_rank]
    elif np.isscalar(lprime):
        lprime = [lprime] * len(target_rank)
    lprimes = [positive_int(x, "sketch width") for x in check_per_mode(lprime, "sketch widths")]
    if len(lprimes) != len(target_rank):
        raise ValueError(f"need one sketch width per mode, got {lprimes}")
    for mu, lp in zip(target_rank, lprimes):
        if lp < mu:
            raise ValueError(f"sketch width {lp} is below target rank {mu}")
    return lprimes


def _qr_tucker(sketcher, a, target_rank, lprime, oversampling, seed):
    """Sequential loop; each basis is the QR of a sketch ``lprime`` wide (one or one per mode)."""
    seed = check_seed(seed)
    a, target_rank = _input(a, target_rank)
    lprimes = _sketch_widths(target_rank, lprime, oversampling)

    def basis(c, n, mu):
        b = sketcher(c, n, lprimes[n - 1], seed)
        q, rank = linalg.qr_basis_with_rank(b)
        return q[:, :mu], rank

    return _tucker(a, target_rank, basis)


def ran_tucker(a, target_rank, lprime=None, oversampling=10, seed=0):
    """Sequential decomposition with one unstructured Gaussian sketch per mode.

    Reference point for the structured sketches: the test matrix is a full
    (prod of other dims) x lprime Gaussian, and the basis comes from QR
    truncated to mu_n columns. ``lprime`` defaults to mu_n + oversampling.
    Memory: at most 0.38x ``a.nbytes`` (``tracemalloc`` peak, dense
    reciprocal_sum 100^3 at rank 5, C or F order).
    """
    return _qr_tucker(sketch_full_gaussian, a, target_rank, lprime, oversampling, seed)


def kr_tucker(a, target_rank, lprime=None, oversampling=10, seed=0):
    """Sequential decomposition sketching with Khatri-Rao structured Gaussians.

    Same loop as :func:`ran_tucker` but the test matrix is a column-wise
    Kronecker chain of per-mode I_m x lprime Gaussians, so only
    sum(I_m) * lprime variates are drawn per mode. Memory: at most 0.2x
    ``a.nbytes`` (``tracemalloc`` peak, dense reciprocal_sum 100^3 at rank 5,
    C or F order).
    """
    return _qr_tucker(sketch_khatri_rao, a, target_rank, lprime, oversampling, seed)


def truncated_hosvd(a, target_rank):
    """Leading-mu_n left singular vectors of each unfolding, then project.

    Deterministic baseline. Dense inputs take the R factor of the QR of each
    unfolding's transpose and the SVD of that small R
    (:func:`linalg.left_singular`), so no right singular vectors are formed;
    sparse inputs work on the rows and columns of each unfolding that hold
    an entry, and never densify the tensor. A rank above the product of
    the other dims is met with an orthonormal completion and listed in
    ``rank_warnings``; both kinds of input take the same 1e-12 * sigma_1
    rank rule (see :func:`_exact_basis`). Memory: at most 2.6x ``a.nbytes``
    (``tracemalloc`` peak, dense reciprocal_sum 100^3 at rank 5, C or F order).
    """
    return _tucker(*_input(a, target_rank), _exact_basis, sequential=False)


def _check_init(init):
    if init not in ("random", "hosvd"):
        raise ValueError(f"init must be 'random' or 'hosvd', got {init!r}")


def hooi(a, target_rank, max_iters=50, tol=1e-4, seed=0, init="random"):
    """Alternating least squares refinement of the factor subspaces.

    Each sweep is one sequential :func:`_tucker` pass (Gauss-Seidel): the
    basis of mode n contracts the working tensor, which this sweep's new
    factors of modes < n have already shrunk, with the previous factors of
    modes > n, and takes the leading left singular vectors of its mode-n
    unfolding by :func:`linalg.left_singular`, without right singular
    vectors. The loop's last shrink leaves the core, so the fit
    (1 - relative error) comes from its norm, and a sweep reads the full
    tensor twice rather than once per mode. Sweeps stop when the fit
    improves by less than ``tol`` (a real number, not NaN; ``-inf`` runs every
    sweep) or after ``max_iters`` (at least 1). When the sweep that stops
    on ``tol`` has a lower fit than the one before it, that previous sweep
    is returned and the lower fit is left out of ``fit_history``.
    ``init`` is ``"random"`` (orthonormalized Gaussian factors, mode n's
    drawn from stream id n under ``seed``) or ``"hosvd"`` (the
    :func:`truncated_hosvd` factors, without its core). A mode at full rank is never
    refined and keeps an identity factor, as in every other algorithm;
    ``rank_warnings`` are those of the returned sweep. Memory: at most 0.08x
    ``a.nbytes`` (``tracemalloc`` peak, dense reciprocal_sum 100^3 at rank 5,
    C or F order).
    """
    seed = check_seed(seed)
    tol = real_number(tol, "tol")
    a, target_rank = _input(a, target_rank)
    dims = dims_of(a)
    max_iters = positive_int(max_iters, "max_iters")
    _check_init(init)
    # _tucker skips full-rank modes, so they get no factor to contract
    factors = [
        None if mu == d
        else _exact_basis(a, n, mu)[0] if init == "hosvd"
        else linalg.qr_basis_with_rank(gaussian_matrix(seed, n, d, mu))[0]
        for n, (d, mu) in enumerate(zip(dims, target_rank), start=1)
    ]

    def basis(c, n, mu):
        factors[n - 1], rank = _exact_basis(_project(c, [None] * n + factors[n:]), n, mu)
        return factors[n - 1], rank

    norm_a = frob_norm(a)
    history = []
    for _ in range(max_iters):
        approx = _tucker(a, target_rank, basis)
        # a ratio of norms: no square leaves the double range
        kept2 = (frob_norm(approx.core) / norm_a) ** 2 if norm_a else 1.0
        fit = 1.0 - math.sqrt(max(1.0 - kept2, 0.0))
        gain = fit - history[-1] if history else math.inf
        if gain < min(tol, 0.0):
            # stopped on tol by a fall: the previous sweep is returned
            break
        history.append(fit)
        best = approx
        if gain < tol:
            break
    best.fit_history = tuple(history)
    return best


ALGORITHMS = (
    "tucker_svd_seq",
    "tucker_svd_batch",
    "hooi",
    "truncated_hosvd",
    "ran_tucker",
    "kr_tucker",
)


def decompose(
    a,
    algorithm,
    target_rank,
    oversampling=10,
    seed=0,
    lprime=None,
    max_iters=50,
    tol=1e-4,
    init="random",
):
    """Run one algorithm by name with shared parameter conventions.

    ``a`` and ``target_rank`` are checked against the input contract of
    :mod:`tuckersketch.core`: a :class:`SparseTensor` or a real array of
    order >= 1, and one integer in 1..I_n per mode. ``seed`` and
    ``oversampling`` are integers >= 0 and ``lprime``, when given, one
    integer >= mu_n for every mode or one per mode; hooi's ``max_iters`` is an
    integer >= 1, its ``tol`` a real number other than NaN and its ``init``
    ``"random"`` or ``"hosvd"``, all whether or not ``algorithm`` uses
    them. Anything else raises ``ValueError`` naming the bad input, and a
    rank above I_n raises :class:`RankTooLargeError`. Seq and batch run
    ``default_plan(a.shape, target_rank, oversampling, seed)``; a custom
    plan goes to :func:`tucker_svd_seq` or :func:`tucker_svd_batch` itself.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; valid names: {', '.join(ALGORITHMS)}"
        )
    seed = check_seed(seed)
    oversampling = positive_int(oversampling, "oversampling", 0)
    max_iters, tol = positive_int(max_iters, "max_iters"), real_number(tol, "tol")
    _check_init(init)
    a = check_tensor(a)
    _sketch_widths(check_rank(dims_of(a), target_rank), lprime, oversampling)
    if algorithm in ("tucker_svd_seq", "tucker_svd_batch"):
        fn = tucker_svd_seq if algorithm == "tucker_svd_seq" else tucker_svd_batch
        return fn(a, default_plan(dims_of(a), target_rank, oversampling, seed))
    if algorithm == "hooi":
        return hooi(a, target_rank, max_iters=max_iters, tol=tol, seed=seed, init=init)
    if algorithm == "truncated_hosvd":
        return truncated_hosvd(a, target_rank)
    fn = ran_tucker if algorithm == "ran_tucker" else kr_tucker
    return fn(a, target_rank, lprime=lprime, oversampling=oversampling, seed=seed)
