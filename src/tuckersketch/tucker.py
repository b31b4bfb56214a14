"""Low multilinear rank approximation of order-N tensors.

All algorithms return a :class:`TuckerApprox` whose core is the source tensor
projected onto the orthonormal factor bases, so the reconstruction error obeys
``||a - recon||^2 = ||a||^2 - ||core||^2`` up to roundoff.

All six algorithms run the one per-mode loop :func:`_tucker`, each with its
own basis function; :func:`hooi` runs it once per sweep. A full-rank mode
gets a ``None`` factor there, which :func:`_project` skips; only the result
holds a fresh identity for it.

:func:`rlne` never forms the reconstruction: it streams the residual in
slabs of about 2 MiB along the slowest axis in memory, reading the input
once. :func:`reconstruct` builds the dense tensor for callers that want it.

Randomized algorithms are pure functions of (tensor, plan/parameters, seed);
see :mod:`tuckersketch.sketch` for the stream derivation.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import SparseTensor, dims_of, frob_norm, mode_product, unfold
from .sketch import (
    GaussianStream,
    default_plan,
    gaussian_matrix,
    sketch_full_gaussian,
    sketch_khatri_rao,
    sketch_mode,
)

ORTHO_TOL = 1e-10
# entries per slab of the residual that rlne streams (2 MiB of doubles)
_SLAB = 1 << 18


class RankTooLargeError(ValueError):
    """Requested multilinear rank exceeds a tensor dimension."""


@dataclass
class TuckerApprox:
    """Core tensor plus one orthonormal factor matrix per mode.

    ``factors[n-1]`` has shape (I_n, mu_n); orthonormality is checked at
    construction. ``rank_warnings`` lists modes whose requested width exceeded
    the numerical rank of the sketched/unfolded data (those trailing basis
    columns are arbitrary). ``fit_history`` is populated by :func:`hooi`.
    """

    core: np.ndarray
    factors: list
    rank_warnings: tuple = ()
    fit_history: tuple = ()

    def __post_init__(self):
        self.core = np.asarray(self.core, dtype=np.float64)
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
    """``a x_m Q_m^T`` over all modes, densified output.

    Contracts in decreasing shrink ratio, ties by ascending mode; a ``None``
    factor marks a mode that is not contracted.
    """
    dims = dims_of(a)
    jobs = [
        (dims[m - 1] / q.shape[1], m, q)
        for m, q in enumerate(factors, start=1)
        if q is not None
    ]
    out = a
    for _, m, q in sorted(jobs, key=lambda j: (-j[0], j[1])):
        out = mode_product(out, m, q.T)
    if isinstance(out, SparseTensor):
        out = out.densify()
    return out


def reconstruct(approx):
    """Dense tensor ``core x_n Q_n`` of the approximation."""
    out = approx.core
    for n, q in enumerate(approx.factors, start=1):
        out = mode_product(out, n, q)
    return out


def rlne(a, approx):
    """Relative low-rank norm error ||a - reconstruct(approx)|| / ||a||.

    Streams the residual slab by slab along the slowest axis in memory (the
    first for C order and for any strided view, the last for F order), so
    ``a`` is read once and both norms come from that one read. The core is
    contracted once with every factor but the fastest axis's; each slab of
    the reconstruction is then one GEMM against that factor. Memory is one
    slab of ``_SLAB`` entries plus that core chain, never a tensor-sized
    array; a :class:`SparseTensor` subtracts its nonzeros from each dense
    slab instead of being densified. Raises ``ValueError`` when the dims of
    ``a`` and ``approx`` differ.
    """
    dims = dims_of(a)
    if dims != approx.dims:
        raise ValueError(f"tensor dims {dims} do not match approximation dims {approx.dims}")
    core, factors = approx.core, approx.factors
    sparse = isinstance(a, SparseTensor)
    if not sparse:
        a = np.asarray(a)
        if a.flags.f_contiguous and not a.flags.c_contiguous:
            # a.T is C-contiguous: walk the transposed problem
            a, core, factors, dims = a.T, core.T, factors[::-1], dims[::-1]
    w = np.ascontiguousarray(core)
    for n, q in enumerate(factors[:-1], start=1):
        w = mode_product(w, n, q)
    # w has shape dims[:-1] + (r_N,); slab rows of it times q_t give the slab
    q_t = factors[-1].T
    last = len(dims) - 1
    # a slab fixes the axes before k and takes `step` indices of axis k with
    # every axis after it in full: at most _SLAB entries, in C order
    k = next(k for k in range(len(dims)) if math.prod(dims[k + 1 :]) <= _SLAB)
    inner = math.prod(dims[k + 1 :])
    step = max(1, _SLAB // inner)
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
        shape = (min(step, dims[k] - start),) + dims[k + 1 :]
        cols = ix[last] if k == last else slice(None)
        r = buf[: shape[0] * inner].reshape(shape)
        rows = w[ix[:last]].reshape(-1, q_t.shape[0])
        np.matmul(rows, q_t[:, cols], out=r.reshape(-1, shape[-1]))
        if sparse:
            sel = order[bounds[j] : bounds[j + 1]]
            at = (a.coords[sel, k] - start,) + tuple(a.coords[sel, k + 1 :].T)
            r[at] -= a.values[sel]
        else:
            x = np.asarray(a[ix], dtype=np.float64)
            r -= x
            x = x.reshape(-1)
            norm2 += float(x @ x)
        r = r.reshape(-1)
        err2 += float(r @ r)
    err, norm_a = math.sqrt(err2), math.sqrt(norm2)
    if norm_a == 0.0:
        return 0.0 if err == 0.0 else math.inf
    return err / norm_a


def metrics_for(a, approx, wall_time_s=float("nan")):
    e = rlne(a, approx)
    return Metrics(rlne=e, fit=1.0 - e, wall_time_s=wall_time_s)


def _validate_rank(dims, target_rank):
    if len(target_rank) != len(dims):
        raise ValueError(
            f"target rank has {len(target_rank)} entries for an order-{len(dims)} tensor"
        )
    for n, (mu, dim) in enumerate(zip(target_rank, dims), start=1):
        if mu < 1:
            raise ValueError(f"target rank for mode {n} must be >= 1, got {mu}")
        if mu > dim:
            raise RankTooLargeError(
                f"target rank {mu} for mode {n} exceeds dimension {dim}"
            )


def _tucker(a, target_rank, basis, order=None, sequential=True):
    """Per-mode loop: ``basis(c, n, mu)`` gives (factor, numerical rank).

    ``sequential`` shrinks the working tensor ``c`` by each factor in ``order``
    (default 1..N), so ``c`` ends as the core; otherwise the core is one
    projection of ``a`` at the end.
    """
    dims = dims_of(a)
    target_rank = tuple(int(r) for r in target_rank)
    _validate_rank(dims, target_rank)
    c = a
    factors = [None] * len(dims)
    warned = []
    for n in order or range(1, len(dims) + 1):
        mu = target_rank[n - 1]
        if mu == dims[n - 1]:
            continue
        q, rank = basis(c, n, mu)
        if rank < mu:
            warned.append(n)
        factors[n - 1] = q
        if sequential:
            c = mode_product(c, n, q.T)
    if not sequential:
        c = _project(a, factors)
    if c is a:
        # every mode was full rank: the core must not alias the input
        c = a.densify() if isinstance(a, SparseTensor) else np.array(a, dtype=np.float64)
    factors = [np.eye(d) if q is None else q for d, q in zip(dims, factors)]
    return TuckerApprox(c, factors, rank_warnings=tuple(sorted(warned)))


def _sketch_basis(plan):
    """Structured-sketch basis: rank-mu SVD of the mode's Kronecker sketch."""

    def basis(c, n, mu):
        b = sketch_mode(c, n, plan, GaussianStream(plan.seed, n))
        q, s = linalg.fixed_rank_basis(b, mu)
        # row norms of s are exactly the leading singular values
        return q, linalg.numerical_rank(np.linalg.norm(s, axis=1))

    return basis


def _qr_basis(sketcher, target_rank, lprime, oversampling, seed):
    """QR basis of a one-matrix sketch of width ``lprime`` (scalar or per mode)."""
    if lprime is None:
        lprime = [int(mu) + oversampling for mu in target_rank]
    elif np.isscalar(lprime):
        lprime = [lprime] * len(target_rank)
    lprimes = [int(x) for x in lprime]
    if len(lprimes) != len(target_rank):
        raise ValueError(f"need one sketch width per mode, got {lprimes}")
    for mu, lp in zip(target_rank, lprimes):
        if lp < mu:
            raise ValueError(f"sketch width {lp} is below target rank {mu}")

    def basis(c, n, mu):
        b = sketcher(c, n, lprimes[n - 1], GaussianStream(seed, n))
        q, rank = linalg.qr_basis_with_rank(b)
        return q[:, :mu], rank

    return basis


def _exact_basis(a, n, mu):
    """Leading mu left singular vectors of the exact mode-n unfolding.

    A sparse unfolding X takes them from the eigenvectors U of X X^T, and
    the singular values for the rank decision from the column norms of
    X^T U, where null directions come out near eps * sigma_1 (the Gram
    eigenvalues' roundoff would give sqrt(eps) * sigma_1), so the
    1e-12 * sigma_1 rule of every other basis applies. That settles
    exact-rank inputs; a spectrum that decays smoothly below
    sqrt(eps) * sigma_1 still mixes the trailing eigenvectors.
    """
    if isinstance(a, SparseTensor):
        x = a.unfold_csr(n)
        evals, evecs = np.linalg.eigh(linalg.check_finite((x @ x.T).toarray()))
        u = evecs[:, np.argsort(evals)[::-1][:mu]]
        u = u * linalg.column_sign_flips(u)
        return u, linalg.numerical_rank(np.linalg.norm(x.T @ u, axis=0))
    u, sig = linalg.left_singular(unfold(a, n), mu)
    return u, linalg.numerical_rank(sig)


def tucker_svd_batch(a, plan):
    """Batch sketched decomposition: every mode sketches the original tensor.

    For each mode independently, compress all other modes of ``a`` with
    Gaussian matrices, take the rank-mu_n SVD basis of the mode-n unfolding of
    the sketch, then project ``a`` onto all the bases at once for the core.
    """
    return _tucker(a, plan.target_rank, _sketch_basis(plan), sequential=False)


def tucker_svd_seq(a, plan):
    """Sequential sketched decomposition (the recommended default).

    Modes are processed in ``plan.order``; each processed mode immediately
    shrinks the working tensor, so later sketches act on smaller data. The
    final working tensor is the core.
    """
    return _tucker(a, plan.target_rank, _sketch_basis(plan), plan.order)


def ran_tucker(a, target_rank, lprime=None, oversampling=10, seed=0):
    """Sequential decomposition with one unstructured Gaussian sketch per mode.

    Reference point for the structured sketches: the test matrix is a full
    (prod of other dims) x lprime Gaussian, and the basis comes from QR
    truncated to mu_n columns. ``lprime`` defaults to mu_n + oversampling.
    """
    basis = _qr_basis(sketch_full_gaussian, target_rank, lprime, oversampling, seed)
    return _tucker(a, target_rank, basis)


def kr_tucker(a, target_rank, lprime=None, oversampling=10, seed=0):
    """Sequential decomposition sketching with Khatri-Rao structured Gaussians.

    Same loop as :func:`ran_tucker` but the test matrix is a column-wise
    Kronecker chain of per-mode I_m x lprime Gaussians, so only
    sum(I_m) * lprime variates are drawn per mode.
    """
    basis = _qr_basis(sketch_khatri_rao, target_rank, lprime, oversampling, seed)
    return _tucker(a, target_rank, basis)


def truncated_hosvd(a, target_rank):
    """Leading-mu_n left singular vectors of each unfolding, then project.

    Deterministic baseline. Dense inputs take the R factor of the QR of each
    unfolding's transpose and the SVD of that small R
    (:func:`linalg.left_singular`), so no right singular vectors are formed;
    sparse inputs use the eigendecomposition of the (small) Gram matrix of the
    unfolding, which never densifies the tensor. A rank above the product of
    the other dims is met with an orthonormal completion and listed in
    ``rank_warnings``; both kinds of input take the same 1e-12 * sigma_1
    rank rule (see :func:`_exact_basis`).
    """
    return _tucker(a, target_rank, _exact_basis, sequential=False)


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
    improves by less than ``tol`` or after ``max_iters`` (at least 1).
    ``init`` is ``"random"`` (orthonormalized Gaussian factors drawn from
    (seed, mode) streams) or ``"hosvd"``. A mode at full rank is never
    refined and keeps an identity factor, as in every other algorithm;
    ``rank_warnings`` are those of the last sweep.
    """
    dims = dims_of(a)
    target_rank = tuple(int(r) for r in target_rank)
    _validate_rank(dims, target_rank)
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if init == "hosvd":
        factors = truncated_hosvd(a, target_rank).factors
    elif init == "random":
        factors = [
            linalg.qr_basis_with_rank(gaussian_matrix(GaussianStream(seed, n), d, mu))[0]
            for n, (d, mu) in enumerate(zip(dims, target_rank), start=1)
        ]
    else:
        raise ValueError(f"init must be 'random' or 'hosvd', got {init!r}")
    # _tucker skips full-rank modes, so their factors are never contracted
    factors = [None if mu == d else q for q, d, mu in zip(factors, dims, target_rank)]

    def basis(c, n, mu):
        w = _project(c, [None] * n + factors[n:])
        factors[n - 1], sig = linalg.left_singular(unfold(w, n), mu)
        return factors[n - 1], linalg.numerical_rank(sig)

    norm_a = frob_norm(a)
    fit_prev = -math.inf
    history = []
    for _ in range(max_iters):
        approx = _tucker(a, target_rank, basis)
        err2 = max(norm_a**2 - frob_norm(approx.core) ** 2, 0.0)
        fit = 1.0 - math.sqrt(err2) / norm_a if norm_a else 1.0
        history.append(fit)
        if fit - fit_prev < tol:
            break
        fit_prev = fit
    approx.fit_history = tuple(history)
    return approx


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
    plan=None,
    lprime=None,
    max_iters=50,
    tol=1e-4,
    init="random",
):
    """Run one algorithm by name with shared parameter conventions."""
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; valid names: {', '.join(ALGORITHMS)}"
        )
    target_rank = tuple(int(r) for r in target_rank)
    _validate_rank(dims_of(a), target_rank)
    if algorithm in ("tucker_svd_seq", "tucker_svd_batch"):
        if plan is None:
            plan = default_plan(dims_of(a), target_rank, oversampling, seed)
        fn = tucker_svd_seq if algorithm == "tucker_svd_seq" else tucker_svd_batch
        return fn(a, plan)
    if algorithm == "hooi":
        return hooi(a, target_rank, max_iters=max_iters, tol=tol, seed=seed, init=init)
    if algorithm == "truncated_hosvd":
        return truncated_hosvd(a, target_rank)
    fn = ran_tucker if algorithm == "ran_tucker" else kr_tucker
    return fn(a, target_rank, lprime=lprime, oversampling=oversampling, seed=seed)
