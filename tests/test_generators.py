"""Synthetic family tests.

The overlapping-support outer-sum oracle below was computed by an explicit
triple loop over term entries before the vectorized generator existed; the
four nonzeros and their values are frozen.
"""

import math
import tracemalloc

import numpy as np
import pytest

import tuckersketch as ts
from tuckersketch import generators


def test_reciprocal_sum_entries():
    a = ts.gen_reciprocal_sum((4, 4, 4))
    assert a[0, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert a[1, 2, 3] == pytest.approx(1.0 / 9.0, abs=1e-15)
    # symmetric under index permutation for cubic dims
    np.testing.assert_allclose(a, a.transpose(1, 0, 2), atol=1e-15)
    np.testing.assert_allclose(a, a.transpose(2, 1, 0), atol=1e-15)


def test_reciprocal_sum_order4():
    a = ts.gen_reciprocal_sum((3, 3, 3, 3))
    assert a[0, 0, 0, 0] == pytest.approx(0.25, abs=1e-15)
    assert a.shape == (3, 3, 3, 3)


def test_log_reciprocal_entries():
    b = ts.gen_log_reciprocal((4, 4, 4))
    assert b[0, 0, 0] == pytest.approx(1.0 / math.log(6.0), abs=1e-15)
    assert b[2, 1, 0] == pytest.approx(1.0 / math.log(10.0), abs=1e-15)
    # ln is increasing, so entries fall along every axis
    assert np.all(np.diff(b, axis=0) <= 0)
    assert np.all(np.diff(b, axis=2) <= 0)
    assert np.all(b > 0)
    assert b.max() == b[0, 0, 0]


@pytest.mark.parametrize(
    "gen, dims, oracle",
    [
        (ts.gen_reciprocal_sum, (80, 60, 50), lambda i: 1.0 / (i[0] + i[1] + i[2])),
        (ts.gen_reciprocal_sum, (24, 20, 18, 16), lambda i: 1.0 / (i[0] + i[1] + i[2] + i[3])),
        (ts.gen_log_reciprocal, (80, 60, 50), lambda i: 1.0 / np.log(i[0] + 2 * i[1] + 3 * i[2])),
    ],
)
def test_dense_generators_build_in_place(gen, dims, oracle):
    # oracle: float64 1-based index grids, every entry computed on its own.
    # Over 1 MB of output, so numpy's fixed casting buffers stay under 10%
    idx = (np.indices(dims) + 1).astype(np.float64)
    tracemalloc.start()
    try:
        a = gen(dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.dtype == np.float64 and a.flags.c_contiguous
    assert np.array_equal(a, oracle(idx))
    assert peak <= 1.1 * a.nbytes


def _owns_c_copy(a):
    # a fresh C-ordered array, never the read-only strided view of a table
    return (a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
            and a.base is None)


@pytest.mark.parametrize(
    "dims",
    [(1,), (7,), (1, 1), (1, 9), (9, 1), (3, 1, 4), (1, 1, 1), (17, 5, 11),
     (2, 3, 4, 5), (4, 1, 3, 1, 2), (3, 2, 1, 2, 3, 2), (2, 2, 2, 2, 2, 2)],
)
def test_reciprocal_sum_matches_closed_form_bytes(dims):
    sums = (np.indices(dims) + 1).sum(axis=0).astype(np.float64)
    a = ts.gen_reciprocal_sum(dims)
    assert a.shape == dims and _owns_c_copy(a)
    assert a.tobytes() == (1.0 / sums).tobytes()


@pytest.mark.parametrize(
    "dims", [(1, 1, 1), (1, 1, 6), (1, 6, 1), (6, 1, 1), (5, 7, 3), (2, 19, 4), (31, 3, 8)]
)
def test_log_reciprocal_matches_closed_form_bytes(dims):
    i, j, k = np.indices(dims) + 1
    a = ts.gen_log_reciprocal(dims)
    assert a.shape == dims and _owns_c_copy(a)
    assert a.tobytes() == (1.0 / np.log((i + 2 * j + 3 * k).astype(np.float64))).tobytes()


def test_log_reciprocal_rejects_other_orders():
    with pytest.raises(ValueError):
        ts.gen_log_reciprocal((4, 4))
    with pytest.raises(ValueError):
        ts.gen_log_reciprocal((4, 4, 4, 4))


def test_sparse_outer_sum_frozen_oracle():
    terms = [
        (2.0, [([0, 2], [1.0, 3.0]), ([1], [2.0]), ([0, 1], [1.0, 1.0])]),
        (-1.0, [([0], [2.0]), ([1], [4.0]), ([0], [1.0])]),
    ]
    s = ts.sparse_outer_sum((3, 3, 3), terms)
    assert s.nnz == 4
    d = s.densify()
    assert d[0, 1, 0] == -4.0
    assert d[0, 1, 1] == 4.0
    assert d[2, 1, 0] == 12.0
    assert d[2, 1, 1] == 12.0
    assert np.count_nonzero(d) == 4


def test_sparse_outer_sum_single_singleton_term():
    # one entry: 1000 * 0.5 * 0.5 * 0.5 at 1-based position (1, 2, 3)
    terms = [(1000.0, [([0], [0.5]), ([1], [0.5]), ([2], [0.5])])]
    s = ts.sparse_outer_sum((5, 5, 5), terms)
    assert s.nnz == 1
    assert s.densify()[0, 1, 2] == 125.0


def test_sparse_outer_sum_empty_vector_drops_term():
    terms = [(7.0, [([], []), ([0], [1.0]), ([0], [1.0])])]
    s = ts.sparse_outer_sum((3, 3, 3), terms)
    assert s.nnz == 0


def test_gen_sparse_outer_determinism_and_support():
    a = ts.gen_sparse_outer(40, seed=5)
    b = ts.gen_sparse_outer(40, seed=5)
    np.testing.assert_array_equal(a.coords, b.coords)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.dims == (40, 40, 40)
    assert a.nnz > 0
    assert not np.array_equal(a.values, ts.gen_sparse_outer(40, seed=6).values)


def test_gen_sparse_outer_first_terms_dominate():
    # reimplement the documented sampling to split leading and tail terms:
    # weights fall from 1000/j to 1/j after j=10, so the first ten outer
    # products must carry nearly all the energy
    i_dim = 100
    densities = (0.015, 0.025, 0.035)
    rng = generators.philox_rng(0, 0)
    terms = []
    for j in range(1, i_dim + 1):
        weight = 1000.0 / j if j <= 10 else 1.0 / j
        vectors = []
        for dens in densities:
            idx = np.flatnonzero(rng.random(i_dim) < dens)
            vectors.append((idx, rng.random(idx.size)))
        terms.append((weight, vectors))
    full = ts.sparse_outer_sum((i_dim,) * 3, terms)
    lead = ts.sparse_outer_sum((i_dim,) * 3, terms[:10])
    built = ts.gen_sparse_outer(i_dim, seed=0)
    # the reimplementation must agree with the generator exactly
    np.testing.assert_array_equal(full.coords, built.coords)
    np.testing.assert_array_equal(full.values, built.values)
    assert ts.frob_norm(lead) ** 2 >= 0.99 * ts.frob_norm(full) ** 2


def test_gen_sparse_outer_density_validation():
    with pytest.raises(ValueError):
        ts.gen_sparse_outer(20, densities=(0.5, 0.5))
    with pytest.raises(ValueError):
        ts.gen_sparse_outer(20, densities=(0.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        ts.gen_sparse_outer(20, densities=(0.5, 0.5, 1.5))


def test_gen_sparse_outer_zero_when_densities_tiny():
    s = ts.gen_sparse_outer(10, densities=(1e-9, 1e-9, 1e-9), seed=0)
    assert s.nnz == 0


def test_gen_random_sparse_exact_support():
    s = ts.gen_random_sparse((12, 11, 10), 100, seed=4)
    assert s.nnz == 100
    # coordinates unique and in range
    lin = np.ravel_multi_index(s.coords.T, s.dims, order="F")
    assert len(np.unique(lin)) == 100
    assert np.all(s.values > 0) and np.all(s.values < 1)
    t = ts.gen_random_sparse((12, 11, 10), 100, seed=4)
    np.testing.assert_array_equal(s.coords, t.coords)
    np.testing.assert_array_equal(s.values, t.values)


def test_gen_random_sparse_bounds():
    with pytest.raises(ValueError):
        ts.gen_random_sparse((2, 2, 2), 9)
    assert ts.gen_random_sparse((2, 2, 2), 0).nnz == 0
    full = ts.gen_random_sparse((2, 2, 2), 8, seed=1)
    assert full.nnz == 8


def test_tucker_noise_infinite_snr_is_exact_rank():
    spec = ts.NoisySpec((3, 3, 3), float("inf"), seed=2)
    a, beta = ts.gen_tucker_noise(spec, (15, 15, 15))
    assert beta == 0.0
    for n in (1, 2, 3):
        sig = np.linalg.svd(ts.unfold(a, n), compute_uv=False)
        assert sig[3] <= 1e-10 * sig[0]


def test_tucker_noise_realized_snr_exact():
    # reconstruct signal and noise from the return values and recompute the
    # ratio the beta was solved from
    for snr in (0.0, 10.0, 25.0):
        spec = ts.NoisySpec((3, 3, 3), snr, seed=7)
        noisy, beta = ts.gen_tucker_noise(spec, (12, 12, 12))
        clean, _ = ts.gen_tucker_noise(ts.NoisySpec((3, 3, 3), float("inf"), seed=7), (12, 12, 12))
        scaled_noise = noisy - clean
        realized = 20.0 * math.log10(ts.frob_norm(clean) / ts.frob_norm(scaled_noise))
        assert realized == pytest.approx(snr, abs=1e-9)
        assert beta > 0


def test_tucker_noise_zero_db_balances_energy():
    spec = ts.NoisySpec((2, 2, 2), 0.0, seed=3)
    noisy, beta = ts.gen_tucker_noise(spec, (10, 10, 10))
    clean, _ = ts.gen_tucker_noise(ts.NoisySpec((2, 2, 2), float("inf"), seed=3), (10, 10, 10))
    assert ts.frob_norm(noisy - clean) == pytest.approx(ts.frob_norm(clean), rel=1e-9)


@pytest.mark.parametrize("snr", [float("nan"), -math.inf, True, "10", 1j, None])
def test_tucker_noise_rejects_bad_snr(snr):
    with pytest.raises(ValueError, match="snr_db"):
        ts.gen_tucker_noise(ts.NoisySpec((2, 2, 2), snr), (4, 4, 4))
    with pytest.raises(ValueError, match="snr_db"):
        generators.generate("tucker_noise", (4, 4, 4), core_dims=(2, 2, 2), snr_db=snr)


def test_tucker_noise_sums_in_place_in_f_order():
    # the scaled noise buffer takes the signal: no tensor-sized temporaries
    # beyond signal and noise (3.0x when they were summed into a new array)
    ts.gen_tucker_noise(ts.NoisySpec((2, 2, 2), 10.0, 1), (6, 6, 6))
    dims = (100, 100, 100)
    tracemalloc.start()
    try:
        a, beta = ts.gen_tucker_noise(ts.NoisySpec((5, 5, 5), 10.0, 1), dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.flags.f_contiguous and a.flags.writeable and beta > 0
    assert peak <= 2.6 * a.nbytes
    clean, _ = ts.gen_tucker_noise(ts.NoisySpec((5, 5, 5), math.inf, 1), dims)
    assert clean.flags.f_contiguous


def test_tucker_noise_core_dim_validation():
    with pytest.raises(ValueError):
        ts.gen_tucker_noise(ts.NoisySpec((5, 5, 5), 10.0), (4, 8, 8))
    with pytest.raises(ValueError):
        ts.gen_tucker_noise(ts.NoisySpec((2, 2), 10.0), (4, 4, 4))


def test_generator_seed_isolation():
    # different families under the same seed draw from independent streams;
    # the random-sparse support must not shift when only values change
    a = ts.gen_random_sparse((9, 9, 9), 50, seed=0)
    b = ts.gen_random_sparse((9, 9, 9), 50, seed=0)
    np.testing.assert_array_equal(a.coords, b.coords)


def _same_tensor(x, y):
    if isinstance(x, ts.SparseTensor):
        return (x.dims == y.dims and np.array_equal(x.coords, y.coords)
                and x.values.tobytes() == y.values.tobytes())
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_generate_dispatches_every_family():
    from tuckersketch import bench, cli

    dims = (6, 6, 6)
    expected = {
        "reciprocal_sum": ts.gen_reciprocal_sum(dims),
        "log_reciprocal": ts.gen_log_reciprocal(dims),
        "sparse_outer": ts.gen_sparse_outer(6, densities=(0.5, 0.4, 0.3), seed=2),
        "random_sparse": ts.gen_random_sparse(dims, 40, seed=2),
        "tucker_noise": ts.gen_tucker_noise(ts.NoisySpec((2, 2, 2), 10.0, 2), dims)[0],
    }
    assert tuple(expected) == generators.FAMILIES
    for family, want in expected.items():
        got = generators.generate(family, dims, seed=2, nnz=40, densities=(0.5, 0.4, 0.3),
                                  core_dims=(2, 2, 2), snr_db=10.0)
        assert _same_tensor(got, want), family
    # the one table: bench and the CLI take their family names from it
    assert bench.FAMILIES is generators.FAMILIES
    parser = cli._build_parser()
    for family in generators.FAMILIES:
        args = parser.parse_args(["gen", family, "--dims", "4,4,4", "--out", "t.txt"])
        assert args.family == family


def test_generate_rejects_bad_requests():
    with pytest.raises(ValueError, match="valid names"):
        generators.generate("nope", (4, 4, 4))
    with pytest.raises(ValueError, match="cubic"):
        generators.generate("sparse_outer", (4, 5, 4))
    with pytest.raises(ValueError, match="core dims"):
        generators.generate("tucker_noise", (4, 4, 4))
