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
:func:`mode_product` runs on C- and F-contiguous arrays in place (F order is
what :func:`tuckersketch.tensor_io.read_tensor` returns) and copies any
other layout once. Its results are always C- or F-contiguous, so a chain of
products never copies the tensor.
"""

import math

import numpy as np
import scipy.sparse


def _check_mode(mode, ndim):
    if not 1 <= mode <= ndim:
        raise ValueError(f"mode must be in 1..{ndim}, got {mode}")


def unfold(t, mode):
    """Matricize ``t`` along ``mode`` (1-based).

    Returns the I_n x (prod of the other dims) matrix whose columns enumerate
    the remaining modes in ascending order with the earliest varying fastest.
    """
    t = np.asarray(t, dtype=np.float64)
    _check_mode(mode, t.ndim)
    return np.reshape(np.moveaxis(t, mode - 1, 0), (t.shape[mode - 1], -1), order="F")


def fold(mat, mode, dims):
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    dims = tuple(int(d) for d in dims)
    _check_mode(mode, len(dims))
    mat = np.asarray(mat, dtype=np.float64)
    rest = tuple(d for i, d in enumerate(dims) if i != mode - 1)
    if mat.shape != (dims[mode - 1], int(np.prod(rest, dtype=np.int64))):
        raise ValueError(
            f"matrix shape {mat.shape} does not match dims {dims} for mode {mode}"
        )
    t = np.reshape(mat, (dims[mode - 1],) + rest, order="F")
    return np.moveaxis(t, 0, mode - 1)


def mode_product(t, mode, b):
    """Mode-``mode`` product ``t x_mode b`` with a matrix ``b``.

    ``b`` has shape (J, I_mode); the result replaces dimension I_mode by J and
    equals ``fold(b @ unfold(t, mode), mode, dims)``, but never forms the
    unfolding. A C-contiguous ``t`` is viewed as (pre, I_mode, post) and
    contracted by one batched GEMM (a single GEMM for the first and last
    modes); an F-contiguous ``t`` runs the same kernel on ``t.T``; any other
    layout is copied once to C order first. The result is C- or F-contiguous.
    Accepts a :class:`SparseTensor` for ``t`` (the result is a dense
    F-contiguous array).
    """
    b = np.asarray(b, dtype=np.float64)
    sparse = isinstance(t, SparseTensor)
    if not sparse:
        t = np.asarray(t, dtype=np.float64)
    dims = dims_of(t)
    _check_mode(mode, len(dims))
    if b.shape[1] != dims[mode - 1]:
        raise ValueError(
            f"matrix has {b.shape[1]} columns, mode {mode} has size {dims[mode - 1]}"
        )
    if sparse:
        prod = (t.unfold_csr(mode).T @ b.T).T
        new_dims = list(dims)
        new_dims[mode - 1] = b.shape[0]
        return np.asfortranarray(fold(prod, mode, new_dims))
    if t.flags.c_contiguous:
        return _mode_product_c(t, mode, b)
    if t.flags.f_contiguous:
        return _mode_product_c(t.T, t.ndim + 1 - mode, b).T
    return _mode_product_c(np.ascontiguousarray(t), mode, b)


def _mode_product_c(t, mode, b):
    # t is C-contiguous, so the (pre, I_mode, post) reshapes below are views
    dims = t.shape
    pre = math.prod(dims[: mode - 1])
    post = math.prod(dims[mode:])
    new_dims = dims[: mode - 1] + (b.shape[0],) + dims[mode:]
    if post == 1:
        # one GEMM instead of ``pre`` matrix-vector products
        out = t.reshape(pre, dims[mode - 1]) @ b.T
    else:
        out = np.matmul(b, t.reshape(pre, dims[mode - 1], post))
    return out.reshape(new_dims)


def dims_of(t):
    """Dims of a dense array or a :class:`SparseTensor`, as a tuple."""
    return t.dims if isinstance(t, SparseTensor) else np.shape(t)


def frob_norm(t):
    """Frobenius norm of a dense or sparse tensor."""
    if isinstance(t, SparseTensor):
        return float(np.linalg.norm(t.values))
    # norm ravels in memory order, so an F-ordered tensor is not copied
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64)))


class SparseTensor:
    """Order-N tensor stored as coordinates + values.

    ``coords`` is an (nnz, N) int array of 0-based indices, ``values`` the
    matching floats. Duplicate coordinates are rejected; use
    :func:`accumulate_sparse` to sum duplicates first. File formats write the
    same entries with 1-based indices.
    """

    def __init__(self, dims, coords, values):
        self.dims = tuple(int(d) for d in dims)
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        values = np.asarray(values, dtype=np.float64).ravel()
        if coords.size == 0:
            coords = coords.reshape(0, len(self.dims))
        if coords.shape != (values.size, len(self.dims)):
            raise ValueError(
                f"coords shape {coords.shape} does not match {values.size} values "
                f"of an order-{len(self.dims)} tensor"
            )
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
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
        _check_mode(mode, self.ndim)
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
    dims = tuple(int(d) for d in dims)
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    values = np.asarray(values, dtype=np.float64).ravel()
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
