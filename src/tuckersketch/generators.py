"""Synthetic tensor families for experiments and tests.

Every generator is a pure function of its parameters and seed: each random
array is one draw keyed by ``(seed, stream id)``
(:func:`~tuckersketch.sketch.normals`, or
:func:`~tuckersketch.sketch.philox_rng` for the sparse families), so
benchmark inputs are reproducible bit-for-bit. Indices in the closed forms
below are 1-based, matching the data model.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (SparseTensor, accumulate_sparse, check_dims, check_per_mode, frob_norm,
                   mode_product, positive_int, real_number)
from .sketch import gaussian_matrix, normals, philox_rng


def _gather(table, dims, weights):
    """C-ordered tensor whose 0-based entry (i_1..i_N) is ``table[sum w_n * i_n]``.

    The read-only view repeats the table's memory under item strides
    ``weights``; the one copy out of it is the only tensor-sized write.
    """
    view = np.lib.stride_tricks.as_strided(
        table, shape=dims, strides=tuple(w * table.itemsize for w in weights), writeable=False
    )
    # numpy's default order K would follow the view's strides, which are F
    # for increasing weights
    return np.array(view, order="C")


def gen_reciprocal_sum(dims):
    """Smooth dense tensor a[i_1..i_N] = 1 / (i_1 + ... + i_N).

    The tensor holds only the values 1/s for s = N..sum(dims): they are
    computed once in a table and copied out in one write, so the peak memory
    is the output plus that table.
    """
    dims = check_dims(dims)
    table = np.reciprocal(np.arange(len(dims), sum(dims) + 1, dtype=np.float64))
    return _gather(table, dims, (1,) * len(dims))


def gen_log_reciprocal(dims):
    """Smooth dense order-3 tensor b[ijk] = 1 / ln(i + 2j + 3k).

    Copied in one write from the table of 1/ln s for s = 6..I+2J+3K.
    """
    dims = check_dims(dims)
    if len(dims) != 3:
        raise ValueError(f"this family is order 3, got order {len(dims)}")
    i, j, k = dims
    table = np.log(np.arange(6, i + 2 * j + 3 * k + 1, dtype=np.float64))
    return _gather(np.reciprocal(table, out=table), dims, (1, 2, 3))


def sparse_outer_sum(dims, terms):
    """Sum of weighted outer products of sparse vectors, as a SparseTensor.

    ``terms`` is a sequence of ``(weight, [(idx_m, val_m), ...])`` with one
    (indices, values) pair per mode, 0-based indices. Collisions within and
    across terms are summed.
    """
    all_coords = []
    all_vals = []
    for weight, vectors in terms:
        if len(vectors) != len(dims):
            raise ValueError(f"term has {len(vectors)} vectors for order {len(dims)}")
        idxs = [np.asarray(ix, dtype=np.int64) for ix, _ in vectors]
        vals = [np.asarray(v, dtype=np.float64) for _, v in vectors]
        if any(ix.size == 0 for ix in idxs):
            continue
        mesh = np.meshgrid(*idxs, indexing="ij")
        coords = np.column_stack([m.ravel() for m in mesh])
        outer = vals[0]
        for v in vals[1:]:
            outer = np.multiply.outer(outer, v)
        all_coords.append(coords)
        all_vals.append(weight * outer.ravel())
    if not all_coords:
        return SparseTensor(dims, np.empty((0, len(dims)), dtype=np.int64), [])
    return accumulate_sparse(dims, np.vstack(all_coords), np.concatenate(all_vals))


_OUTER_DENSITIES = (0.015, 0.025, 0.035, 0.045)


def gen_sparse_outer(i_dim, densities=None, seed=0, order=3):
    """Sparse sum of I outer products with decaying weights.

    Term j has weight 1000/j for j <= 10 and 1/j beyond. Each per-mode vector
    includes every index independently with probability density_m (expected
    nnz is exactly density_m * I), with uniform(0,1) values. A term with an
    empty vector in any mode contributes nothing; densities low enough that
    this always happens give the zero tensor.
    """
    i_dim = positive_int(i_dim, "i_dim")
    order = positive_int(order, "order")
    if densities is None:
        densities = _OUTER_DENSITIES[:order]
    densities = check_per_mode(densities, "densities")
    if len(densities) != order:
        raise ValueError(f"need {order} densities, got {len(densities)}")
    densities = [real_number(dens, f"densities[{m}]") for m, dens in enumerate(densities)]
    for dens in densities:
        if not 0.0 < dens <= 1.0:
            raise ValueError(f"densities must be in (0, 1], got {dens}")
    rng = philox_rng(seed, 0)
    terms = []
    for j in range(1, i_dim + 1):
        weight = 1000.0 / j if j <= 10 else 1.0 / j
        vectors = []
        for dens in densities:
            idx = np.flatnonzero(rng.random(i_dim) < dens)
            vectors.append((idx, rng.random(idx.size)))
        terms.append((weight, vectors))
    return sparse_outer_sum((i_dim,) * order, terms)


def gen_random_sparse(dims, nnz, seed=0):
    """Exactly ``nnz`` uniform random positions with uniform(0,1) values.

    Positions are drawn with rejection of repeats, kept in draw order; values
    are drawn after the support is fixed.
    """
    dims = check_dims(dims)
    total = math.prod(dims)
    if positive_int(nnz, "nnz", 0) > total:
        raise ValueError(f"nnz must be in 0..{total}, got {nnz}")
    rng = philox_rng(seed, 0)
    chosen = []
    seen = set()
    while len(chosen) < nnz:
        batch = rng.integers(0, total, size=2 * (nnz - len(chosen)))
        for lin in batch:
            if lin not in seen:
                seen.add(lin)
                chosen.append(lin)
                if len(chosen) == nnz:
                    break
    coords = np.column_stack(
        np.unravel_index(np.asarray(chosen, dtype=np.int64), dims, order="F")
    )
    return SparseTensor(dims, coords, rng.random(nnz))


@dataclass(frozen=True)
class NoisySpec:
    """Parameters for a noisy low-rank tensor: core shape, SNR in dB, seed."""

    core_dims: tuple
    snr_db: float
    seed: int = 0


def gen_tucker_noise(spec, dims):
    """Random low multilinear rank tensor plus scaled Gaussian noise.

    The signal is an i.i.d. normal core of shape ``spec.core_dims`` expanded
    by i.i.d. normal factors; the noise is i.i.d. normal over ``dims`` scaled
    by the beta that realizes ``spec.snr_db`` exactly:
    beta = ||signal|| / (||noise|| * 10^(snr/20)). ``snr_db`` is a real
    number, not NaN, for which beta and beta * ||noise|| are finite doubles,
    so ``-inf`` and values some thousands of dB from 0 are refused;
    ``snr_db=inf`` means no noise (beta = 0). Returns ``(tensor, beta)``.

    Stream ids under ``spec.seed``: 0 for the core, n for the factor of mode
    n, N+1 for the noise; tensors fill first-mode-fastest.
    """
    dims = check_dims(dims)
    snr_db = real_number(spec.snr_db, "snr_db")
    core_dims = check_per_mode(spec.core_dims, "core dims")
    if len(core_dims) != len(dims):
        raise ValueError(f"core order {len(core_dims)} does not match dims {dims}")
    for n, (c, d) in enumerate(zip(core_dims, dims), start=1):
        if positive_int(c, f"core dim for mode {n}") > d:
            raise ValueError(f"core dim for mode {n} must be in 1..{d}, got {c}")
    core = normals(spec.seed, 0, math.prod(core_dims))
    signal = core.reshape(core_dims, order="F")
    for n in range(1, len(dims) + 1):
        b = gaussian_matrix(spec.seed, n, dims[n - 1], core_dims[n - 1])
        signal = mode_product(signal, n, b)
    if snr_db == math.inf:
        return signal, 0.0
    noise = normals(spec.seed, len(dims) + 1, math.prod(dims)).reshape(dims, order="F")
    norm_noise = frob_norm(noise)
    try:
        beta = frob_norm(signal) / (norm_noise * 10.0 ** (snr_db / 20.0))
    except (OverflowError, ZeroDivisionError):  # 10^(snr/20) left the double range
        beta = math.inf
    if not math.isfinite(beta * norm_noise):
        raise ValueError(f"snr_db={snr_db!r} puts the noise scale beta outside the double range")
    # both are F-ordered, so the noise buffer takes the sum in place
    noise *= beta
    noise += signal
    return noise, float(beta)


FAMILIES = ("reciprocal_sum", "log_reciprocal", "sparse_outer", "random_sparse", "tucker_noise")


def generate(family, dims, seed=0, nnz=3000, densities=None, core_dims=None, snr_db=math.inf):
    """One tensor of the named family (see :data:`FAMILIES`) at ``dims``.

    ``seed`` feeds the random families; ``nnz`` is for random_sparse,
    ``densities`` for sparse_outer (cubic dims only), and ``core_dims`` and
    ``snr_db`` for tucker_noise, whose noise scale is dropped.
    """
    dims = check_dims(dims)
    if family == "reciprocal_sum":
        return gen_reciprocal_sum(dims)
    if family == "log_reciprocal":
        return gen_log_reciprocal(dims)
    if family == "sparse_outer":
        if len(set(dims)) != 1:
            raise ValueError(f"sparse_outer needs cubic dims, got {dims}")
        return gen_sparse_outer(dims[0], densities=densities, seed=seed, order=len(dims))
    if family == "random_sparse":
        return gen_random_sparse(dims, nnz, seed=seed)
    if family == "tucker_noise":
        if core_dims is None:
            raise ValueError("core dims are required for the tucker_noise family")
        return gen_tucker_noise(NoisySpec(core_dims, snr_db, seed), dims)[0]
    raise ValueError(f"unknown family {family!r}; valid names: {', '.join(FAMILIES)}")
