"""Synthetic tensor families for experiments and tests.

Every generator is a pure function of its parameters and seed (Philox streams,
see :mod:`tuckersketch.sketch`), so benchmark inputs are reproducible
bit-for-bit. Indices in the closed forms below are 1-based, matching the data
model.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import SparseTensor, accumulate_sparse, frob_norm, mode_product
from .sketch import GaussianStream, gaussian_matrix, philox_rng


def gen_reciprocal_sum(dims):
    """Smooth dense tensor a[i_1..i_N] = 1 / (i_1 + ... + i_N)."""
    dims = tuple(int(d) for d in dims)
    grids = np.ogrid[tuple(slice(1, d + 1) for d in dims)]
    return 1.0 / sum(grids).astype(np.float64)


def gen_log_reciprocal(dims):
    """Smooth dense order-3 tensor b[ijk] = 1 / ln(i + 2j + 3k)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise ValueError(f"this family is order 3, got order {len(dims)}")
    i, j, k = np.ogrid[1 : dims[0] + 1, 1 : dims[1] + 1, 1 : dims[2] + 1]
    return 1.0 / np.log((i + 2 * j + 3 * k).astype(np.float64))


def sparse_outer_sum(dims, terms):
    """Sum of weighted outer products of sparse vectors, as a SparseTensor.

    ``terms`` is a sequence of ``(weight, [(idx_m, val_m), ...])`` with one
    (indices, values) pair per mode, 0-based indices. Collisions within and
    across terms are summed.
    """
    dims = tuple(int(d) for d in dims)
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
    i_dim = int(i_dim)
    if densities is None:
        densities = _OUTER_DENSITIES[:order]
    if len(densities) != order:
        raise ValueError(f"need {order} densities, got {len(densities)}")
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
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims, dtype=np.int64))
    nnz = int(nnz)
    if not 0 <= nnz <= total:
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
    beta = ||signal|| / (||noise|| * 10^(snr/20)). ``snr_db=inf`` means no
    noise (beta = 0). Returns ``(tensor, beta)``.

    Stream layout under ``spec.seed``: core on stream 0, factor for mode n on
    stream n, noise on stream N+1; tensors fill first-mode-fastest.
    """
    dims = tuple(int(d) for d in dims)
    core_dims = tuple(int(d) for d in spec.core_dims)
    if len(core_dims) != len(dims):
        raise ValueError(f"core order {len(core_dims)} does not match dims {dims}")
    for n, (c, d) in enumerate(zip(core_dims, dims), start=1):
        if not 1 <= c <= d:
            raise ValueError(f"core dim for mode {n} must be in 1..{d}, got {c}")
    core = GaussianStream(spec.seed, 0).normals(int(np.prod(core_dims)))
    signal = core.reshape(core_dims, order="F")
    for n in range(1, len(dims) + 1):
        b = gaussian_matrix(GaussianStream(spec.seed, n), dims[n - 1], core_dims[n - 1])
        signal = mode_product(signal, n, b)
    if math.isinf(spec.snr_db):
        return signal, 0.0
    noise = (
        GaussianStream(spec.seed, len(dims) + 1)
        .normals(int(np.prod(dims)))
        .reshape(dims, order="F")
    )
    beta = frob_norm(signal) / (frob_norm(noise) * 10.0 ** (spec.snr_db / 20.0))
    return signal + beta * noise, float(beta)


FAMILIES = ("reciprocal_sum", "log_reciprocal", "sparse_outer", "random_sparse", "tucker_noise")


def generate(family, dims, seed=0, nnz=3000, densities=None, core_dims=None, snr_db=math.inf):
    """One tensor of the named family (see :data:`FAMILIES`) at ``dims``.

    ``seed`` feeds the random families; ``nnz`` is for random_sparse,
    ``densities`` for sparse_outer (cubic dims only), and ``core_dims`` and
    ``snr_db`` for tucker_noise, whose noise scale is dropped.
    """
    dims = tuple(int(d) for d in dims)
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
        return gen_tucker_noise(NoisySpec(tuple(core_dims), snr_db, seed), dims)[0]
    raise ValueError(f"unknown family {family!r}; valid names: {', '.join(FAMILIES)}")
