"""Dense and sparse tensor primitives.

Conventions used across the package:

* Modes are numbered 1..N in every public signature, matching the data model
  and the file formats. Axis arithmetic is 0-based internally only.
* The linearization of a dense tensor is first-mode-fastest: element
  (i_1, ..., i_N) sits at offset (i_1-1) + (i_2-1)*I_1 + (i_3-1)*I_1*I_2 + ...
  Equivalently, ``arr.ravel(order="F")`` lists values in file order, and
  ``unfold(t, 1)`` is a pure reshape of that layout.
* ``unfold(t, n)`` maps (i_1, ..., i_N) to row i_n and column
  j = 1 + sum_{m != n} (i_m - 1) * prod_{k < m, k != n} I_k,
  i.e. the remaining modes in ascending order, earliest fastest.

Dense tensors are plain float ndarrays. The index maps above define what a
tensor means; the in-memory strides decide only what a contraction costs.
:func:`mode_view` views a mode of any array whose memory is a transposed
C-contiguous array (C order, F order as :func:`tuckersketch.tensor_io.read_tensor`
returns, and the ``np.moveaxis`` or ``.transpose`` views of either) as a
C-contiguous (pre, I_n, post) array in its memory order, which
:func:`memory_axes` names; any other layout, such as a sliced view, is copied
once to C order. :func:`mode_product` contracts that view into another such
array, so a chain of products never copies the tensor, and
:func:`mode_products` runs every chain of the package in one
:func:`contraction_order`.

Sparse tensors are :class:`SparseTensor` coordinate lists. Only their
contractions need scipy: :meth:`SparseTensor.unfold_csr` imports
``scipy.sparse`` on its first call, so a run on dense tensors never loads it.

Every decomposition and ``rlne`` check their input here and nowhere else:
:func:`check_tensor` and :func:`check_rank` raise ``ValueError`` naming a
complex or 0-d tensor, or a rank such as 2.7, ``True`` or ``'2'``. Every
per-mode argument (dims, ranks, densities) passes :func:`check_per_mode`,
so a scalar rank is refused, not broadcast.
Finiteness is checked where it is free: on what ``linalg`` factors. Every
other count (dims, seeds, oversampling, ``nnz``, iterations, modes) passes the
same rule, :func:`positive_int` with a lower bound of 0 or 1 and, for a
seed (:func:`check_seed`), a dim (:func:`check_dims`) or a mode
(:func:`check_mode`), the upper bound of what it indexes,
and every real parameter (a tolerance, an SNR, a density, a cap) passes
:func:`real_number` before its own range check.
"""

import math
import numbers

import numpy as np


class RankTooLargeError(ValueError):
    """Requested multilinear rank exceeds a tensor dimension."""


def positive_int(x, what, low=1, high=None):
    """``x`` as an int in ``low``..``high`` (no upper bound when ``high`` is None).

    A bool, float or string is refused, not truncated.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < low or (
        high is not None and x > high
    ):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{what} must be an integer {bounds}, got {x!r}")
    return int(x)


# the largest seed or stream id: each is one 64-bit word of a Philox key
KEY_MAX = 2**64 - 1
# the largest dim: coordinates are int64
DIM_MAX = 2**63 - 1


def check_seed(seed):
    """``seed`` as an int in 0..``KEY_MAX``."""
    return positive_int(seed, "seed", 0, KEY_MAX)


def real_number(x, what):
    """``x`` as a float, infinities kept; a bool, NaN, string or too large an int is refused."""
    if not isinstance(x, bool) and isinstance(x, numbers.Real):
        try:
            if not math.isnan(x):
                return float(x)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a real number, not NaN, got {x!r}")


def check_per_mode(x, what):
    """``x`` as a tuple of its entries, one per mode: a list, tuple, range or 1-d array.

    Anything else (a number, a string, a dict, ``None``, a 0-d array) is
    refused by name, not iterated or broadcast.
    """
    if isinstance(x, (list, tuple, range)) or (isinstance(x, np.ndarray) and x.ndim == 1):
        return tuple(x)
    raise ValueError(f"{what} must list one entry per mode, got {x!r}")


def check_dims(dims):
    """``dims`` as a tuple of ints >= 1, one per mode."""
    return tuple(positive_int(d, f"dim for mode {n}", 1, DIM_MAX)
                 for n, d in enumerate(check_per_mode(dims, "dims"), 1))


def check_rank(dims, target_rank):
    """``target_rank`` as one int in 1..I_n per mode of ``dims``."""
    rank = tuple(positive_int(r, f"target rank for mode {n}")
                 for n, r in enumerate(check_per_mode(target_rank, "target rank"), 1))
    if len(rank) != len(dims):
        raise ValueError(f"target rank has {len(rank)} entries for an order-{len(dims)} tensor")
    for n, (mu, dim) in enumerate(zip(rank, dims), start=1):
        if mu > dim:
            raise RankTooLargeError(f"target rank {mu} for mode {n} exceeds dimension {dim}")
    return rank


def _real(x, what):
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"{what} are complex ({x.dtype}); a tensor must be real")
    return x.astype(np.float64, copy=False)


def check_tensor(a):
    """``a`` as a :class:`SparseTensor` or a real float64 ndarray of order >= 1.

    A float64 array comes back as itself, in its own layout.
    """
    if isinstance(a, SparseTensor):
        return a
    a = _real(a, "tensor values")
    if a.ndim == 0:
        raise ValueError("tensor has order 0; a tensor must have order >= 1")
    return a


# a sum of squares outside this is redone on power-of-two scaled values:
# below, squares lose bits as subnormals; above, a residual's may overflow
SQUARES_RANGE = (2.0**-600, 2.0**600)


def pow2_scale(x):
    """Exact 2^-e <= 2^1023 putting max|x| * 2^-e in [0.5, 1) if it can (Blue 1978); else 1.0."""
    top = float(np.max(np.abs(x), initial=0.0))
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1023)) if 0.0 < top < math.inf else 1.0


def check_mode(mode, ndim):
    """``mode`` as an int in 1..``ndim``."""
    return positive_int(mode, "mode", 1, ndim)


def unfold(t, mode):
    """Matricize ``t`` along ``mode`` (1-based).

    Returns the I_n x (prod of the other dims) matrix whose columns enumerate
    the remaining modes in ascending order with the earliest varying fastest.
    """
    t = np.asarray(t, dtype=np.float64)
    mode = check_mode(mode, t.ndim)
    return np.reshape(np.moveaxis(t, mode - 1, 0), (t.shape[mode - 1], -1), order="F")


def fold(mat, mode, dims):
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    dims = check_dims(dims)
    mode = check_mode(mode, len(dims))
    mat = np.asarray(mat, dtype=np.float64)
    rest = tuple(d for i, d in enumerate(dims) if i != mode - 1)
    if mat.shape != (dims[mode - 1], math.prod(rest)):
        raise ValueError(
            f"matrix shape {mat.shape} does not match dims {dims} for mode {mode}"
        )
    t = np.reshape(mat, (dims[mode - 1],) + rest, order="F")
    return np.moveaxis(t, 0, mode - 1)


def mode_product(t, mode, b):
    """Mode-``mode`` product ``t x_mode b`` with a matrix ``b``.

    ``b`` has shape (J, I_mode); the result replaces dimension I_mode by J and
    equals ``fold(b @ unfold(t, mode), mode, dims)``, but never forms the
    unfolding: one batched GEMM with ``b`` on the left contracts the
    :func:`mode_view` of ``t``. The result is a C-contiguous array, possibly
    seen through a transposed view. Accepts a :class:`SparseTensor` for
    ``t`` (the result is dense, with mode ``mode`` fastest in memory).
    """
    b = np.asarray(b, dtype=np.float64)
    sparse = isinstance(t, SparseTensor)
    if not sparse:
        t = np.asarray(t, dtype=np.float64)
    dims = dims_of(t)
    mode = check_mode(mode, len(dims))
    if b.shape[1] != dims[mode - 1]:
        raise ValueError(
            f"matrix has {b.shape[1]} columns, mode {mode} has size {dims[mode - 1]}"
        )
    if sparse:
        # the (other dims x J) product is C-contiguous, so this is a view
        prod = (t.unfold_csr(mode).T @ b.T).T
        new_dims = list(dims)
        new_dims[mode - 1] = b.shape[0]
        return fold(prod, mode, new_dims)
    v, axes = mode_view(t, mode)
    pre, size, post = v.shape
    # at the innermost axis, one GEMM whose (J, pre) result puts the new axis
    # outermost; its transpose folds as a view
    out = (b @ v.reshape(pre, size).T).T if post == 1 else np.matmul(b, v)
    inverse = [0] * len(axes)
    for i, m in enumerate(axes):
        inverse[m] = i
    shape = [dims[m] for m in axes]
    shape[inverse[mode - 1]] = b.shape[0]
    return out.reshape(shape).transpose(inverse)


def mode_view(t, n):
    """Dense ``t`` as a C-contiguous (pre, I_n, post) view in its own memory order.

    Returns ``(v, axes)`` with ``axes`` from slowest to fastest
    (:func:`memory_axes`); pre and post are the sizes of the axes before and
    after axis n - 1 there. Only a layout that :func:`memory_axes` rejects is
    copied, once, to C order.
    """
    axes = memory_axes(t)
    if axes is None:
        t = np.ascontiguousarray(t)
        axes = tuple(range(t.ndim))
    v = t.transpose(axes)
    dims = v.shape
    k = axes.index(n - 1)
    return v.reshape(math.prod(dims[:k]), dims[k], math.prod(dims[k + 1 :])), axes


def mode_products(t, mats):
    """``t x_m mats[m]`` over every mode m of the dict ``mats``, as a dense array.

    Each matrix is J_m x I_m, and the products run in :func:`contraction_order`
    of the ratios I_m / J_m. A :class:`SparseTensor` left as it is (no
    matrices) is densified; a dense ``t`` comes back as itself.
    """
    dims = dims_of(t)
    for m in contraction_order(t, {m: dims[m - 1] / b.shape[0] for m, b in mats.items()}):
        t = mode_product(t, m, mats[m])
    return t.densify() if isinstance(t, SparseTensor) else t


def memory_axes(t):
    """Axes of the ndarray ``t`` from slowest to fastest in memory.

    ``t.transpose(memory_axes(t))`` is C-contiguous: (0, ..., N-1) for C
    order, (N-1, ..., 0) for F order, the permutation for a transposed or
    ``np.moveaxis`` view of either. Size-1 axes may sit anywhere. Returns
    ``None`` for an array that no transpose makes C-contiguous, such as a
    sliced view or one with a negative stride.
    """
    if t.flags.c_contiguous:
        return tuple(range(t.ndim))
    if t.flags.f_contiguous:
        return tuple(range(t.ndim - 1, -1, -1))
    # slowest first; numpy's contiguity flag ignores the size-1 axes
    axes = tuple(sorted(range(t.ndim), key=t.strides.__getitem__, reverse=True))
    return axes if t.transpose(axes).flags.c_contiguous else None


def contraction_order(t, ratios):
    """Modes of ``t`` by decreasing shrink ratio; ``ratios`` maps mode -> ratio.

    Ties go in memory order, slowest axis first (:func:`memory_axes`). This
    is the package's one rule for the order of a chain of products. A
    :class:`SparseTensor`, and a layout that :func:`mode_product` copies,
    count as C order. A pure function of the shapes and the layout.
    """
    axes = memory_axes(t) if isinstance(t, np.ndarray) else None
    if axes is None:
        axes = tuple(range(len(dims_of(t))))
    return sorted(ratios, key=lambda m: (-ratios[m], axes.index(m - 1)))


def dims_of(t):
    """Dims of a dense array or a :class:`SparseTensor`, as a tuple."""
    return t.dims if isinstance(t, SparseTensor) else np.shape(t)


@np.errstate(over="ignore")  # an overflowed sum of squares is redone scaled
def frob_norm(t):
    """Frobenius norm of a dense or sparse tensor, correct at any finite scale."""
    x = t.values if isinstance(t, SparseTensor) else np.asarray(t, dtype=np.float64)
    # norm ravels in memory order, so an F-ordered tensor is not copied
    norm = float(np.linalg.norm(x))
    if SQUARES_RANGE[0] <= norm * norm <= SQUARES_RANGE[1]:
        return norm
    scale = pow2_scale(x)
    return norm if scale == 1.0 else float(np.linalg.norm(x * scale)) / scale


class SparseTensor:
    """Order-N tensor stored as coordinates + values.

    ``coords`` is an (nnz, N) int array of 0-based indices, ``values`` the
    matching floats. Duplicate coordinates are rejected; use
    :func:`accumulate_sparse` to sum duplicates first. File formats write the
    same entries with 1-based indices.
    """

    def __init__(self, dims, coords, values):
        self.dims = check_dims(dims)
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        values = _real(values, "sparse values").ravel()
        if coords.size == 0:
            coords = coords.reshape(0, len(self.dims))
        if coords.shape != (values.size, len(self.dims)):
            raise ValueError(
                f"coords shape {coords.shape} does not match {values.size} values "
                f"of an order-{len(self.dims)} tensor"
            )
        if coords.size:
            if coords.min() < 0 or np.any(coords >= np.asarray(self.dims)):
                raise ValueError("coords out of range for dims " + str(self.dims))
            if _first_of_runs(coords[np.lexsort(coords.T)]).sum() != len(coords):
                raise ValueError("duplicate coordinates; sum duplicates before building")
        self.coords = coords
        self.values = values

    @property
    def nnz(self):
        return self.values.size

    @property
    def ndim(self):
        return len(self.dims)

    def densify(self):
        out = np.zeros(self.dims)
        if self.nnz:
            out[tuple(self.coords.T)] = self.values
        return out

    def unfold_csr(self, mode):
        """Mode-``mode`` unfolding as a scipy CSR matrix (same index map as unfold)."""
        # every sparse contraction comes through here, so importing
        # scipy.sparse on first use keeps it out of dense runs altogether
        import scipy.sparse

        mode = check_mode(mode, self.ndim)
        rows = self.coords[:, mode - 1]
        other = [m for m in range(self.ndim) if m != mode - 1]
        rest = tuple(self.dims[m] for m in other)
        if rest:
            cols = np.ravel_multi_index(
                tuple(self.coords[:, m] for m in other), rest, order="F"
            )
        else:
            cols = np.zeros(self.nnz, dtype=np.int64)
        shape = (self.dims[mode - 1], int(np.prod(rest, dtype=np.int64)) if rest else 1)
        return scipy.sparse.csr_matrix(
            (self.values, (rows, cols)), shape=shape
        )


def _first_of_runs(rows):
    """Mask of rows that differ from the row before them (the first is True)."""
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return first


def accumulate_sparse(dims, coords, values):
    """Build a :class:`SparseTensor`, summing entries that share coordinates.

    Entries come out in first-mode-fastest linear order; values sharing a
    coordinate are summed in input order. Exact zeros produced by cancellation
    are kept (the entry count is what the accumulation produced, not a pruned
    support).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    values = _real(values, "sparse values").ravel()
    if coords.size == 0:
        return SparseTensor(dims, np.empty((0, len(dims)), dtype=np.int64), [])
    # lexsort keys on the last mode first: the first-mode-fastest order, with
    # no linear index that could overflow int64
    order = np.lexsort(coords.T)
    first = _first_of_runs(coords[order])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    summed = np.zeros(int(first.sum()))
    np.add.at(summed, inverse, values)
    return SparseTensor(dims, coords[order[first]], summed)
