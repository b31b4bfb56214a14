"""Decomposition algorithm tests.

Superdiagonal oracles: for diag(3,2,1) on a 3x3x3 tensor the best rank-(2,2,2)
approximation drops only the trailing 1, so RLNE = 1/sqrt(14); rank-(1,1,1)
drops 2 and 1, so RLNE = sqrt(5/14). Worked by hand, frozen here.
"""

import itertools
import math
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckersketch as ts
from tuckersketch import core, linalg, sketch, tucker
from tuckersketch.sketch import SketchPlan, default_plan, sketch_mode

from test_core import LAYOUTS, tensor_in_layout

SUPERDIAG_RLNE_222 = 0.2672612419124244  # 1/sqrt(14)
SUPERDIAG_RLNE_111 = 0.5976143046671968  # sqrt(5/14)


def superdiag():
    d = np.zeros((3, 3, 3))
    d[0, 0, 0], d[1, 1, 1], d[2, 2, 2] = 3.0, 2.0, 1.0
    return d


def exact_rank_tensor(dims, rank, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(rank)
    for n in range(1, len(dims) + 1):
        a = ts.mode_product(a, n, rng.standard_normal((dims[n - 1], rank[n - 1])))
    return a


def sparse_copy(a):
    coords = np.argwhere(a != 0.0)
    return ts.SparseTensor(a.shape, coords, a[tuple(coords.T)])


def test_hosvd_superdiagonal_oracles():
    d = superdiag()
    apx = ts.truncated_hosvd(d, (2, 2, 2))
    assert ts.rlne(d, apx) == pytest.approx(SUPERDIAG_RLNE_222, abs=1e-12)
    apx = ts.truncated_hosvd(d, (1, 1, 1))
    assert ts.rlne(d, apx) == pytest.approx(SUPERDIAG_RLNE_111, abs=1e-12)
    # factors pick the standard basis directions of the kept diagonal entries
    np.testing.assert_allclose(np.abs(apx.factors[0][:, 0]), [1.0, 0.0, 0.0], atol=1e-12)


def test_all_algorithms_recover_exact_rank():
    a = exact_rank_tensor((18, 15, 16), (3, 3, 3), seed=1)
    for alg in ts.ALGORITHMS:
        for seed in (0, 4):
            apx = ts.decompose(a, alg, (3, 3, 3), seed=seed)
            assert ts.rlne(a, apx) <= 1e-10, alg


def test_factors_orthonormal_and_core_consistent():
    a = ts.gen_reciprocal_sum((15, 14, 13))
    for alg in ts.ALGORITHMS:
        apx = ts.decompose(a, alg, (4, 4, 4), seed=2)
        for q in apx.factors:
            np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)
        core_rel, pyth = apx.source_residuals(a)
        assert core_rel <= 1e-10, alg
        assert pyth <= 1e-8, alg


def test_hooi_fit_history_monotone():
    a = ts.gen_log_reciprocal((20, 20, 20))
    apx = ts.hooi(a, (3, 3, 3), max_iters=20, tol=0.0, seed=0)
    hist = apx.fit_history
    assert len(hist) >= 2
    for prev, cur in zip(hist, hist[1:]):
        assert cur >= prev - 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_hooi_returns_its_best_sweep(seed):
    # at tol=0 the last sweep can only be flat or a roundoff fall; a fall
    # is not returned, so the returned fit is the best in the history
    a = ts.gen_log_reciprocal((20, 20, 20))
    apx = ts.hooi(a, (3, 3, 3), max_iters=20, tol=0.0, seed=seed)
    kept2 = (core.frob_norm(apx.core) / core.frob_norm(a)) ** 2
    assert 1.0 - math.sqrt(1.0 - kept2) == max(apx.fit_history) == apx.fit_history[-1]


@pytest.mark.parametrize("seed", range(10))
def test_hooi_sweeps_lose_fit_only_to_roundoff(seed):
    # tol=-inf records every sweep, falls included. The fit is
    # 1 - sqrt(1 - kept2), so a roundoff d in kept2 moves it by d / (2 rlne);
    # with d <= 32 eps a fall stays under 16 eps / rlne (measured: at most
    # 5 eps / rlne over seeds 0-39, rlne 5.5e-4)
    a = ts.gen_log_reciprocal((20, 20, 20))
    hist = ts.hooi(a, (3, 3, 3), max_iters=30, tol=-math.inf, seed=seed).fit_history
    assert len(hist) == 30
    bound = 16 * np.finfo(float).eps / (1.0 - hist[-1])
    for prev, cur in zip(hist, hist[1:]):
        assert cur >= prev - bound


def test_hooi_from_hosvd_never_worse():
    a = ts.gen_reciprocal_sum((18, 18, 18))
    base = ts.rlne(a, ts.truncated_hosvd(a, (3, 3, 3)))
    refined = ts.rlne(a, ts.hooi(a, (3, 3, 3), init="hosvd"))
    assert refined <= base + 1e-12


def test_hooi_rejects_unknown_init():
    with pytest.raises(ValueError):
        ts.hooi(np.ones((3, 3, 3)), (1, 1, 1), init="zeros")


def test_hooi_sweeps_match_the_textbook_sweeps():
    # each mode takes the leading left singular vectors of a contracted with
    # the newest factor of every other mode (Gauss-Seidel); shrinking the
    # working tensor as the sweep goes must give the same subspaces, also
    # with unequal shrink ratios and a full-rank mode
    rng = np.random.default_rng(1)
    a = ts.gen_reciprocal_sum((12, 10, 16)) + 1e-3 * rng.standard_normal((12, 10, 16))
    rank = (4, 10, 5)
    apx = ts.hooi(a, rank, max_iters=3, tol=-math.inf, seed=2)
    factors = [
        np.eye(d) if mu == d
        else linalg.qr_basis_with_rank(ts.gaussian_matrix(2, n, d, mu))[0]
        for n, (d, mu) in enumerate(zip(a.shape, rank), start=1)
    ]
    for _ in range(3):
        for n in (1, 3):
            w = a
            for m, q in enumerate(factors, start=1):
                if m != n:
                    w = ts.mode_product(w, m, q.T)
            factors[n - 1] = np.linalg.svd(ts.unfold(w, n))[0][:, : rank[n - 1]]
    assert len(apx.fit_history) == 3
    for q, q_ref in zip(apx.factors, factors):
        np.testing.assert_allclose(q @ q.T, q_ref @ q_ref.T, rtol=0, atol=1e-9)


def test_hooi_random_init_draws_nothing_for_a_full_rank_mode(monkeypatch):
    shapes = []

    def spy(seed, stream_id, rows, cols):
        shapes.append((rows, cols))
        return ts.gaussian_matrix(seed, stream_id, rows, cols)

    monkeypatch.setattr(tucker, "gaussian_matrix", spy)
    ts.hooi(ts.gen_reciprocal_sum((12, 10, 16)), (4, 10, 5), max_iters=2, seed=2)
    assert shapes == [(12, 4), (16, 5)]


@pytest.mark.parametrize("max_iters", [0, -1, 2.5, True, "2"])
def test_hooi_needs_at_least_one_sweep(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        ts.hooi(ts.gen_reciprocal_sum((5, 6, 7)), (2, 2, 2), max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters"):
        ts.decompose(ts.gen_reciprocal_sum((5, 6, 7)), "hooi", (2, 2, 2), max_iters=max_iters)


@pytest.mark.parametrize("tol", [math.nan, "x", True, None, 1j])
def test_hooi_tol_is_a_real_number(tol):
    a = np.random.default_rng(0).standard_normal((6, 7, 8))
    with pytest.raises(ValueError, match="tol"):
        ts.hooi(a, (2, 2, 2), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        ts.decompose(a, "hooi", (2, 2, 2), tol=tol)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"tol": math.nan}, "tol"), ({"tol": "x"}, "tol"), ({"max_iters": 0}, "max_iters"),
     ({"init": "bogus"}, "init")],
)
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_decompose_checks_hooi_parameters_for_every_algorithm(alg, kwargs, name):
    a = np.random.default_rng(0).standard_normal((6, 7, 8))
    with pytest.raises(ValueError, match=name):
        ts.decompose(a, alg, (2, 2, 2), **kwargs)


def test_sparse_hosvd_takes_the_dense_rank_rule():
    # rank 1: the Gram eigenvalues' roundoff gives sigma_2 / sigma_1 near
    # 1e-8 after the square root, which must not pass for rank. The
    # unfoldings of the larger tensor hold more than _SLAB entries, so its
    # sparse copy takes the Gram route. In the last tensor two rows of each
    # mode hold an entry, so a sparse basis of width 3 needs a unit vector
    # on an empty row
    rng = np.random.default_rng(5)
    for dims, live in (((8, 9, 10), 10), ((8, 200, 200), 200), ((8, 9, 10), 2)):
        dense = np.einsum("i,j,k->ijk", *(rng.standard_normal(d) * (np.arange(d) < live)
                                           for d in dims))
        for a in (dense, sparse_copy(dense)):
            apx = ts.truncated_hosvd(a, (3, 3, 3))
            assert apx.rank_warnings == (1, 2, 3)
            assert ts.rlne(a, apx) < 1e-14


def test_processing_order_insensitivity():
    # seq processes the modes of a cube in index order, so on the six
    # transposes of one tensor it processes the original modes in each of
    # the six orders; on a smooth tensor the errors stay within a small
    # factor of each other. The tensor is not symmetric (a symmetric one's
    # transposes are one input), so the orders give different errors. One
    # draw's error spreads as widely as the orders do, so each order's error
    # is its median over seeds 0-6.
    a = ts.gen_log_reciprocal((20, 20, 20))
    errs = []
    for perm in itertools.permutations(range(3)):
        b = np.transpose(a, perm)
        errs.append(np.median([
            ts.rlne(b, ts.tucker_svd_seq(b, default_plan(b.shape, (4, 4, 4), seed=seed)))
            for seed in range(7)]))
    assert 1.05 * min(errs) < max(errs) <= 2.0 * min(errs)


@pytest.mark.parametrize("dims, order", [((50, 80, 60), [2, 3, 1]), ((60, 60, 30), [1, 2, 3])])
def test_seq_processes_modes_by_non_increasing_dim_ties_by_index(monkeypatch, dims, order):
    # the order is one of the dims alone: an F copy is processed alike
    seen, real = [], tucker.sketch_mode

    def spy(c, n, plan):
        seen.append(n)
        return real(c, n, plan)

    monkeypatch.setattr(tucker, "sketch_mode", spy)
    a = ts.gen_reciprocal_sum(dims)
    plan = default_plan(dims, (5, 5, 5), oversampling=5)
    for copy in (a, np.asfortranarray(a)):
        seen.clear()
        ts.tucker_svd_seq(copy, plan)
        assert seen == order


def test_degenerate_full_rank_modes_use_identity():
    a = ts.gen_reciprocal_sum((10, 12, 14))
    apx = ts.decompose(a, "tucker_svd_seq", (10, 3, 3), seed=0)
    np.testing.assert_array_equal(apx.factors[0], np.eye(10))
    # all modes at full rank: lossless
    apx = ts.decompose(a, "tucker_svd_batch", (10, 12, 14), seed=0)
    assert ts.rlne(a, apx) <= 1e-10


def test_rank_warnings_surface_deficiency():
    # the shortfall is reported as data only: no warning is emitted
    a = exact_rank_tensor((12, 12, 12), (2, 2, 2), seed=5)
    for alg in ("tucker_svd_seq", "tucker_svd_batch", "ran_tucker", "kr_tucker",
                "truncated_hosvd"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            apx = ts.decompose(a, alg, (4, 4, 4), seed=1)
        assert not caught, (alg, [str(w.message) for w in caught])
        assert apx.rank_warnings, alg
        assert all(1 <= n <= 3 for n in apx.rank_warnings)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_rank_above_the_product_of_the_other_dims(alg, sparse):
    # mode 1's unfolding is 10 x 4, so its 8-column basis needs a completion
    dense = np.random.default_rng(2).standard_normal((10, 2, 2))
    a = sparse_copy(dense) if sparse else dense
    apx = ts.decompose(a, alg, (8, 2, 2), seed=0)
    assert apx.core.shape == (8, 2, 2)
    assert 1 in apx.rank_warnings
    assert ts.rlne(a, apx) <= 1e-12


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_order_1_tensors(alg, sparse):
    dense = np.arange(1.0, 8.0)
    a = sparse_copy(dense) if sparse else dense
    if alg in ("tucker_svd_seq", "tucker_svd_batch"):
        with pytest.raises(ValueError, match="order 1"):
            ts.decompose(a, alg, (3,), seed=0)
        return
    for rank in (1, 3):
        apx = ts.decompose(a, alg, (rank,), seed=0)
        assert apx.core.shape == (rank,)
        assert apx.rank_warnings == (() if rank == 1 else (1,))
        assert ts.rlne(a, apx) <= 1e-12


def test_hosvd_reaches_the_svd_accuracy_floor():
    # Gram + eigh of the unfoldings would floor this near 1e-8
    a = ts.gen_reciprocal_sum((40, 40, 40))
    assert ts.rlne(a, ts.truncated_hosvd(a, (20, 20, 20))) <= 1e-13


def test_hosvd_forms_no_right_singular_vectors():
    # the unfolding and the QR's copy of it, not an unfolding-sized V as well
    a = ts.gen_reciprocal_sum((12, 12, 12, 12, 12))
    tracemalloc.start()
    try:
        ts.truncated_hosvd(a, (5,) * 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * a.nbytes


EXACT_BASIS_CASES = {
    # rank 3 of a 4000 x 2 matrix and rank 2 of a 4000-vector need a
    # completion; mode 1 of the sparse tensor unfolds to 2000 x 9, and of
    # the wide one to 1000 x 1000 with at most 30 rows that hold an entry
    "matrix": (lambda: ts.gen_reciprocal_sum((4000, 2)), (3, 2)),
    "vector": (lambda: np.arange(1.0, 4001.0), (2,)),
    "sparse": (lambda: ts.gen_random_sparse((2000, 3, 3), 300, seed=1), (2, 2, 2)),
    "sparse-wide": (lambda: ts.gen_random_sparse((1000, 4, 250), 30, seed=1), (2, 2, 2)),
}


@pytest.mark.parametrize("alg", ["truncated_hosvd", "hooi"])
@pytest.mark.parametrize("case", EXACT_BASIS_CASES)
def test_exact_bases_allocate_no_mode_squared_array(alg, case):
    make, rank = EXACT_BASIS_CASES[case]
    a = make()
    dense = a.densify() if isinstance(a, core.SparseTensor) else a
    ts.decompose(a, alg, rank)  # imports, such as scipy.sparse, before measuring
    tracemalloc.start()
    try:
        apx = ts.decompose(a, alg, rank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an I_1 x I_1 array of doubles would be 20 times this bound
    assert peak < dense.shape[0] ** 2 * 8 / 20
    assert apx.core.shape == rank
    want = ts.rlne(dense, ts.decompose(dense, alg, rank))
    assert ts.rlne(a, apx) == pytest.approx(want, rel=1e-12, abs=1e-15)


# tracemalloc peak of one decomposition of reciprocal_sum 100^3 at rank 5, over
# a.nbytes: the largest peak measured in C and in F order (seq 0.059, batch
# 0.158, hooi 0.062, truncated_hosvd 2.02, ran_tucker 0.30 in C order and 0.23
# in F, kr_tucker 0.158) plus 25%, rounded up. Each algorithm's docstring and
# the README state the same bound.
MEMORY_BOUNDS = {
    "tucker_svd_seq": 0.075,
    "tucker_svd_batch": 0.2,
    "hooi": 0.08,
    "truncated_hosvd": 2.6,
    "ran_tucker": 0.38,
    "kr_tucker": 0.2,
}


@pytest.fixture(scope="module")
def reciprocal_100():
    return ts.gen_reciprocal_sum((100, 100, 100))


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("alg", ts.ALGORITHMS)
def test_each_algorithm_keeps_its_memory_bound(alg, order, reciprocal_100):
    a = np.asarray(reciprocal_100, order=order)
    ts.decompose(ts.gen_reciprocal_sum((6, 6, 6)), alg, (5, 5, 5))  # imports first
    tracemalloc.start()
    try:
        ts.decompose(a, alg, (5, 5, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MEMORY_BOUNDS[alg] * a.nbytes


@pytest.mark.parametrize("dims, bound", [
    # unequal modes: a sketch that started at the middle axis of memory would
    # copy the tensor to a transposed layout (1.13x)
    ((100, 120, 80), MEMORY_BOUNDS["kr_tucker"]),
    # every mode is shorter than the sketch width 15, so two end modes are
    # contracted at once: 0.59x, most of it seq's first shrink, plus 25%
    ((12,) * 5, 0.75),
])
def test_kr_tucker_contracts_an_end_axis_first(dims, bound):
    a = ts.gen_reciprocal_sum(dims)
    ts.kr_tucker(ts.gen_reciprocal_sum((6,) * len(dims)), (5,) * len(dims))  # imports first
    tracemalloc.start()
    try:
        ts.kr_tucker(a, (5,) * len(dims))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * a.nbytes


def test_pythagoras_identity():
    a = ts.gen_reciprocal_sum((16, 16, 16))
    norm2 = ts.frob_norm(a) ** 2
    apx = ts.decompose(a, "tucker_svd_seq", (5, 5, 5), seed=9)
    err2 = (ts.rlne(a, apx) * ts.frob_norm(a)) ** 2
    assert abs(err2 - (norm2 - ts.frob_norm(apx.core) ** 2)) <= 1e-8 * norm2


def test_seed_determinism_and_variation():
    a = ts.gen_random_sparse((15, 15, 15), 100, seed=2)
    one = ts.decompose(a, "tucker_svd_seq", (4, 4, 4), seed=6)
    two = ts.decompose(a, "tucker_svd_seq", (4, 4, 4), seed=6)
    for qa, qb in zip(one.factors, two.factors):
        np.testing.assert_array_equal(qa, qb)
    np.testing.assert_array_equal(one.core, two.core)
    other = ts.decompose(a, "tucker_svd_seq", (4, 4, 4), seed=7)
    assert any(not np.array_equal(qa, qb) for qa, qb in zip(one.factors, other.factors))


def test_sparse_input_consistent_with_dense():
    s = ts.gen_random_sparse((14, 14, 14), 120, seed=8)
    d = s.densify()
    for alg in ts.ALGORITHMS:
        es = ts.rlne(s, ts.decompose(s, alg, (4, 4, 4), seed=3))
        ed = ts.rlne(d, ts.decompose(d, alg, (4, 4, 4), seed=3))
        # identical sketches; only the contraction kernel differs
        assert es == pytest.approx(ed, abs=1e-9), alg


def test_batch_and_seq_share_first_sketch():
    # the first processed mode of seq sees the original tensor, exactly like
    # batch does for that mode, so the factors agree there
    a = ts.gen_reciprocal_sum((12, 11, 10))  # seq processes modes 1, 2, 3
    plan = default_plan((12, 11, 10), (3, 3, 3), oversampling=5, seed=4)
    seq = ts.tucker_svd_seq(a, plan)
    bat = ts.tucker_svd_batch(a, plan)
    np.testing.assert_allclose(seq.factors[0], bat.factors[0], atol=1e-12)


def test_rank_validation_errors():
    a = np.ones((4, 4, 4))
    with pytest.raises(tucker.RankTooLargeError):
        ts.decompose(a, "truncated_hosvd", (5, 4, 4))
    with pytest.raises(ValueError):
        ts.decompose(a, "truncated_hosvd", (0, 2, 2))
    with pytest.raises(ValueError):
        ts.decompose(a, "truncated_hosvd", (2, 2))
    assert issubclass(tucker.RankTooLargeError, ValueError)


# (tensor from a 6x7x8 one, target rank, what the error must name)
CONTRACT_CASES = {
    "complex": (lambda a: a + 1j, (2, 2, 2), "complex"),
    "fractional rank": (None, (2.7, 2, 2), "target rank for mode 1 .*2.7"),
    "float rank": (None, (2, np.float64(2.0), 2), "target rank for mode 2 .*2.0"),
    "bool rank": (None, (2, 2, True), "target rank for mode 3 .*True"),
    "string rank": (None, ("2", 2, 2), "target rank for mode 1 .*'2'"),
    "0-d": (lambda a: np.array(1.5), (2, 2, 2), "order 0"),
}


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize(
    "case, sparse",
    # a SparseTensor is real and of order >= 1 by construction
    [(c, False) for c in CONTRACT_CASES]
    + [(c, True) for c, (make, _, _) in CONTRACT_CASES.items() if make is None],
)
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_inputs_outside_the_contract_are_refused_by_name(alg, case, sparse, direct):
    make, rank, names = CONTRACT_CASES[case]
    a = np.random.default_rng(0).standard_normal((6, 7, 8))
    if make is not None:
        a = make(a)
    elif sparse:
        a = sparse_copy(a)
    with pytest.raises(ValueError, match=names):
        if not direct:
            ts.decompose(a, alg, rank, seed=0)
        elif alg in ("tucker_svd_seq", "tucker_svd_batch"):
            getattr(ts, alg)(a, default_plan((6, 7, 8), rank))
        else:
            getattr(ts, alg)(a, rank)


@pytest.mark.parametrize("alg", ["tucker_svd_seq", "tucker_svd_batch"])
@pytest.mark.parametrize(
    "rank, names",
    [
        ((3, 3, 3, 3), "4 entries for an order-3 tensor"),
        # a string is refused whole, not read one character per mode
        ("junk", "target rank must list one entry per mode, got 'junk'"),
    ],
)
def test_seq_and_batch_refuse_a_target_rank_of_another_length(alg, rank, names):
    a = np.random.default_rng(0).standard_normal((6, 7, 8))
    with pytest.raises(ValueError, match=names):
        ts.decompose(a, alg, rank)


@pytest.mark.parametrize("alg", ["tucker_svd_seq", "tucker_svd_batch"])
def test_decompose_runs_the_default_plan(alg):
    a = np.random.default_rng(0).standard_normal((6, 7, 8))
    got = ts.decompose(a, alg, (2, 3, 2), oversampling=3, seed=7)
    want = getattr(ts, alg)(a, default_plan(a.shape, (2, 3, 2), 3, 7))
    assert got.core.tobytes() == want.core.tobytes()
    for q, q_want in zip(got.factors, want.factors):
        assert q.tobytes() == q_want.tobytes()


@pytest.mark.parametrize("lprime", [7.5, (7, 7.0, 7), (7, True, 7)])
@pytest.mark.parametrize("alg", ["ran_tucker", "kr_tucker"])
def test_sketch_widths_must_be_integers(alg, lprime):
    a = np.random.default_rng(0).standard_normal((6, 7, 8))
    with pytest.raises(ValueError, match="sketch width"):
        ts.decompose(a, alg, (1, 1, 1), lprime=lprime)


@pytest.mark.parametrize("lprime, names", [
    ((5, 5), "one sketch width per mode"),
    ((1, 5, 5), "sketch width 1 is below target rank 2"),
])
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_sketch_widths_are_checked_the_same_way_for_every_algorithm(alg, lprime, names):
    # also by the algorithms that draw no sketch of width lprime
    with pytest.raises(ValueError, match=names):
        ts.decompose(ts.gen_reciprocal_sum((6, 7, 8)), alg, (2, 2, 2), lprime=lprime)


@pytest.mark.parametrize("case", ["complex", "0-d"])
def test_rlne_refuses_tensors_outside_the_contract(case):
    a = np.random.default_rng(0).standard_normal((6, 7, 8))
    apx = ts.truncated_hosvd(a, (2, 2, 2))
    make, _, names = CONTRACT_CASES[case]
    with pytest.raises(ValueError, match=names):
        ts.rlne(make(a), apx)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rlne_refuses_non_finite_tensors(value):
    a = np.random.default_rng(0).standard_normal((6, 7, 8))
    apx = ts.truncated_hosvd(a, (2, 2, 2))
    a[1, 2, 3] = value
    with pytest.raises(ValueError, match="non-finite"):
        ts.rlne(a, apx)
    with pytest.raises(ValueError, match="non-finite"):
        ts.rlne(sparse_copy(a), apx)


@pytest.mark.parametrize("dims", [(6, 7, 8), (9, 8, 7, 6)])
@pytest.mark.parametrize("k", [-1000, -520, 510, 1000])
def test_results_hold_at_any_finite_scale(dims, k):
    # squares of entries near 2^±1000 leave the double range; the rescaled
    # sums must give the rlne, rank decisions and sweeps of the unscaled input
    a = np.random.default_rng(3).standard_normal(dims)
    rank = (3,) * len(dims)
    for alg, kind in itertools.product(tucker.ALGORITHMS, (np.asarray, sparse_copy)):
        ref = ts.decompose(kind(a), alg, rank, seed=1)
        x = kind(a * 2.0**k)
        apx = ts.decompose(x, alg, rank, seed=1)
        expected = pytest.approx(ts.rlne(kind(a), ref), rel=1e-15, abs=0.0)
        assert ts.rlne(x, apx) == expected, alg
        assert apx.rank_warnings == ref.rank_warnings, alg
        assert len(apx.fit_history) == len(ref.fit_history), alg


@pytest.mark.parametrize("value", [1e-310, 2.0**-1030, 5e-324])
def test_all_subnormal_tensors_have_a_norm_and_an_rlne(value):
    # max|x| below 2^-1024 would need a scale past 2^1023; it stops there
    a = np.full((5, 5, 5), value)
    for x in (a, sparse_copy(a)):
        assert core.frob_norm(x) == pytest.approx(math.sqrt(125) * value, rel=1e-12, abs=0.0)
        for alg in tucker.ALGORITHMS:
            err = ts.rlne(x, ts.decompose(x, alg, (2, 2, 2), seed=1))
            # a rank-1 tensor; below ~1e-320 the sketches round to a few bits
            assert err < 1e-12 if value > 1e-320 else math.isfinite(err), alg


def test_decompose_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="valid names"):
        ts.decompose(np.ones((3, 3, 3)), "cp_als", (1, 1, 1))


def test_approx_construction_validates():
    core = np.zeros((2, 2))
    with pytest.raises(ValueError):
        ts.TuckerApprox(core, [np.eye(3)[:, :2]])  # order mismatch
    with pytest.raises(ValueError):
        ts.TuckerApprox(np.zeros((2, 2, 2)), [np.ones((3, 2)), np.eye(3)[:, :2], np.eye(3)[:, :2]])


def test_metrics_for_fields():
    a = ts.gen_reciprocal_sum((8, 8, 8))
    apx = ts.truncated_hosvd(a, (2, 2, 2))
    m = ts.metrics_for(a, apx, wall_time_s=1.25)
    assert m.fit == pytest.approx(1.0 - m.rlne, abs=1e-15)
    assert m.wall_time_s == 1.25


def test_order4_sequential_decomposition():
    a = exact_rank_tensor((9, 8, 7, 6), (2, 2, 2, 2), seed=11)
    apx = ts.decompose(a, "tucker_svd_seq", (2, 2, 2, 2), seed=0)
    assert ts.rlne(a, apx) <= 1e-10
    assert apx.core.shape == (2, 2, 2, 2)


def test_reconstruct_matches_projection_chain():
    a = ts.gen_log_reciprocal((10, 10, 10))
    apx = ts.decompose(a, "hooi", (3, 3, 3), seed=1)
    recon = ts.reconstruct(apx)
    manual = apx.core
    for n, q in enumerate(apx.factors, start=1):
        manual = ts.mode_product(manual, n, q)
    np.testing.assert_allclose(recon, manual, atol=1e-12)


@pytest.mark.parametrize("dims, rank", [((14, 12, 10), (3, 4, 2)), ((7, 6, 5, 4), (2, 3, 2, 2))])
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_memory_order_does_not_change_the_decomposition(alg, dims, rank):
    # mode_product contracts an F-ordered or moved-axis tensor through its
    # transpose, and a sliced view is copied once to C order; read_tensor
    # returns F order, the generators C order. Contraction-order ties follow
    # the layout, so only roundoff may differ
    a, _ = ts.gen_tucker_noise(ts.NoisySpec(rank, 30.0, seed=4), dims)
    a = np.ascontiguousarray(a)
    moved = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    sliced = np.repeat(a, 2, axis=-1)[..., ::2]
    assert core.memory_axes(moved) == (*range(1, len(dims)), 0)
    assert core.memory_axes(sliced) is None
    apx_c = ts.decompose(a, alg, rank, seed=2)
    for b in (np.asfortranarray(a), moved, sliced):
        np.testing.assert_array_equal(b, a)
        apx = ts.decompose(b, alg, rank, seed=2)
        for q, q_c in zip(apx.factors, apx_c.factors):
            np.testing.assert_allclose(q, q_c, rtol=0, atol=1e-9)
        np.testing.assert_allclose(apx.core, apx_c.core, rtol=0, atol=1e-9 * ts.frob_norm(a))


@pytest.mark.parametrize("order", ["C", "F", "moveaxis"])
@pytest.mark.parametrize("alg", ["tucker_svd_seq", "tucker_svd_batch"])
def test_sketched_decomposition_and_rlne_do_not_copy_the_input(alg, order):
    a = ts.gen_reciprocal_sum((60, 60, 60))
    a = np.moveaxis(a, 0, -1) if order == "moveaxis" else np.asarray(a, order=order)
    tracemalloc.start()
    try:
        apx = ts.decompose(a, alg, (4, 4, 4), seed=0)
        decompose_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ts.rlne(a, apx)
        rlne_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decompose_peak < a.nbytes / 2
    # the reconstruction itself is one tensor-sized array
    assert rlne_peak < 1.5 * a.nbytes


def peak_bytes_of_rlne(a, apx):
    tracemalloc.start()
    try:
        ts.rlne(a, apx)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", ["C", "F"])
def test_rlne_streams_without_a_tensor_sized_array(order):
    # one 2 MiB slab (0.15 of a) plus the core chain 120 x 120 x 3 (0.025)
    a = np.asarray(ts.gen_reciprocal_sum((120, 120, 120)), order=order)
    apx = ts.decompose(a, "tucker_svd_seq", (3, 3, 3), seed=0)
    assert peak_bytes_of_rlne(a, apx) < 0.2 * a.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_rlne_builds_the_core_chain_in_chunks(order):
    # in C order the chain over every factor but the fastest axis's is
    # 100 x 100 x 100 at this rank: whole, it and the slab were 1.26 a.nbytes
    a = np.asarray(ts.gen_reciprocal_sum((100, 100, 100)), order=order)
    apx = ts.decompose(a, "tucker_svd_seq", (5, 5, 100), seed=0)
    assert peak_bytes_of_rlne(a, apx) < 0.9 * a.nbytes


def test_rlne_contracts_the_modes_before_the_chunked_one_once(monkeypatch):
    # mode 2 grows the chain by less than mode 1 (10/20 against 2/30), so it
    # comes first, on the whole core; one chain chunk per index of axis 0
    # must not redo it
    a = ts.gen_reciprocal_sum((30, 20, 10))
    apx = ts.decompose(a, "tucker_svd_seq", (2, 10, 10), seed=0)
    ref = ts.rlne(a, apx)
    modes, original = [], tucker.mode_product

    def spy(t, mode, b):
        modes.append(mode)
        return original(t, mode, b)

    monkeypatch.setattr(tucker, "mode_product", spy)
    monkeypatch.setattr(tucker, "_SLAB", 64)
    assert ts.rlne(a, apx) == pytest.approx(ref, rel=1e-12)
    assert modes.count(2) == 1 and modes.count(1) == 30


def test_sparse_rlne_never_densifies():
    # one slab of 6 x 200 x 200 (0.03 of the dense size) plus the core
    # chain 200 x 200 x 3 (0.015)
    s = ts.gen_random_sparse((200, 200, 200), 3000, seed=0)
    apx = ts.decompose(s, "tucker_svd_seq", (3, 3, 3), seed=0)
    assert peak_bytes_of_rlne(s, apx) < 0.05 * 200**3 * 8


@pytest.mark.parametrize("sparse", [False, True])
def test_rlne_cuts_the_next_axis_when_one_index_outgrows_a_slab(sparse):
    # one index of axis 0 holds 4 _SLAB entries, so a slab takes a run of
    # axis 1 too; slabs of whole indices of axis 0 would hold half the tensor
    dims = (2, 1000, 1000)
    a = ts.gen_random_sparse(dims, 3000, seed=0) if sparse else ts.gen_reciprocal_sum(dims)
    apx = ts.decompose(a, "tucker_svd_seq", (2, 5, 5), seed=0)
    assert peak_bytes_of_rlne(a, apx) < 0.25 * math.prod(dims) * 8
    dense = a.densify() if sparse else a
    ref = np.linalg.norm(dense - ts.reconstruct(apx)) / np.linalg.norm(dense)
    assert ts.rlne(a, apx) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("dims", [(3, 300000), (900000,)])
def test_rlne_cuts_the_last_axis_when_one_row_outgrows_a_slab(dims, sparse):
    # one row of the last axis holds more than _SLAB entries, so a slab is a
    # run of that row: 2 MiB, 0.29 of the dense size
    a = ts.gen_random_sparse(dims, 3000, seed=0) if sparse else ts.gen_reciprocal_sum(dims)
    dense = a.densify() if sparse else a
    if len(dims) > 1:
        apx = ts.decompose(a, "tucker_svd_seq", (2, 2), seed=0)
    else:
        # every rank-1 basis of a vector is exact: a perturbed one leaves a residual
        rng = np.random.default_rng(0)
        q = dense + np.linalg.norm(dense) / 1000 * rng.standard_normal(dims)
        q /= np.linalg.norm(q)
        apx = ts.TuckerApprox(np.array([q @ dense]), [q[:, None]])
    assert peak_bytes_of_rlne(a, apx) < 0.4 * math.prod(dims) * 8
    ref = np.linalg.norm(dense - ts.reconstruct(apx)) / np.linalg.norm(dense)
    assert ts.rlne(a, apx) == pytest.approx(ref, rel=1e-10)


def test_rlne_rejects_mismatched_dims():
    apx = ts.truncated_hosvd(np.ones((4, 5, 5)), (1, 1, 1))
    with pytest.raises(ValueError, match="do not match"):
        ts.rlne(np.ones((5, 5)), apx)
    s = ts.SparseTensor((4, 5, 6), [[0, 0, 0]], [1.0])
    with pytest.raises(ValueError, match="do not match"):
        ts.rlne(s, apx)


@pytest.mark.parametrize("sparse", [False, True])
def test_rlne_of_the_zero_tensor(sparse):
    zero = np.zeros((3, 4, 5))
    a = sparse_copy(zero) if sparse else zero
    assert ts.rlne(a, ts.truncated_hosvd(a, (2, 2, 2))) == 0.0
    nonzero = ts.truncated_hosvd(exact_rank_tensor((3, 4, 5), (2, 2, 2), seed=1), (2, 2, 2))
    assert ts.rlne(a, nonzero) == math.inf


# at order 1 the sketch plans and the Khatri-Rao einsum have no other mode
ORDER_1_ALGORITHMS = ("hooi", "truncated_hosvd", "ran_tucker")


@st.composite
def rlne_cases(draw):
    """Orders 1-5 in every memory layout, with slabs from one entry upward."""
    order = draw(st.integers(1, 5))
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=order, max_size=order)))
    rank = tuple(draw(st.integers(1, d)) for d in dims)
    layout = draw(st.sampled_from(LAYOUTS))
    slab = draw(st.sampled_from([1, 2, 3, 7, 16, 50, tucker._SLAB]))
    return dims, rank, layout, slab, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(rlne_cases())
def test_streamed_rlne_matches_the_dense_residual(case):
    dims, rank, layout, slab, seed = case
    rng = np.random.default_rng(seed)
    a = tensor_in_layout(dims, layout, rng)
    dense = a.densify() if isinstance(a, ts.SparseTensor) else np.array(a)
    algorithms = tucker.ALGORITHMS if len(dims) > 1 else ORDER_1_ALGORITHMS
    with pytest.MonkeyPatch.context() as mp:
        # small slabs cut several axes and leave a ragged last slab
        mp.setattr(tucker, "_SLAB", slab)
        for alg in algorithms:
            apx = ts.decompose(a, alg, rank, seed=seed % 1000)
            norm_a = np.linalg.norm(dense)
            err = np.linalg.norm(dense - ts.reconstruct(apx))
            ref = err / norm_a if norm_a else (0.0 if err == 0.0 else math.inf)
            got = ts.rlne(a, apx)
            assert got == ref or abs(got - ref) <= 1e-10 * ref + 1e-13, (alg, got, ref)
    if not isinstance(a, ts.SparseTensor):
        np.testing.assert_array_equal(a, dense)


def test_identity_factor_is_not_shared_writable():
    # a skipped full-rank mode's identity factor belongs to its result:
    # writing to it must not reach other results, earlier or later
    a = ts.gen_reciprocal_sum((5, 5, 5, 16))
    for alg in tucker.ALGORITHMS:
        apx = ts.decompose(a, alg, (2, 2, 2, 16), seed=0)
        other = ts.decompose(a, alg, (2, 2, 2, 16), seed=0)
        apx.factors[3][0, 0] = 2.0
        again = ts.decompose(a, alg, (2, 2, 2, 16), seed=0)
        np.testing.assert_array_equal(other.factors[3], np.eye(16))
        np.testing.assert_array_equal(again.factors[3], np.eye(16))


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_core_never_aliases_the_input(alg, sparse):
    # with every mode at full rank the approximation reproduces the input,
    # but its core is never the input array itself
    dense = exact_rank_tensor((4, 5, 6), (2, 2, 2), seed=4)
    a = sparse_copy(dense) if sparse else dense
    before = dense.copy()
    apx = ts.decompose(a, alg, dense.shape, seed=0)
    np.testing.assert_allclose(ts.reconstruct(apx), dense, rtol=0, atol=1e-12)
    apx.core[...] = 7.0
    if sparse:
        np.testing.assert_array_equal(a.densify(), before)
    else:
        np.testing.assert_array_equal(a, before)


def with_bad_entry(a, value):
    a = a.copy()
    a[2, 3, 1] = value
    return a


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_non_finite_input_is_rejected(alg, sparse, value):
    a = with_bad_entry(exact_rank_tensor((8, 9, 7), (2, 2, 2), seed=3), value)
    if sparse:
        coords = np.argwhere(a != 0.0)
        a = ts.SparseTensor(a.shape, coords, a[tuple(coords.T)])
    # in these three, a product of the dense input adds inf to -inf before
    # linalg sees the result, and numpy warns of the NaN that this makes
    nan_warning = not sparse and value == np.inf and alg in ("hooi", "ran_tucker", "kr_tucker")
    with pytest.warns(RuntimeWarning, match="invalid value") if nan_warning else nullcontext():
        with pytest.raises(ValueError, match="non-finite"):
            ts.decompose(a, alg, (3, 3, 3), seed=1)


def test_non_finite_input_is_rejected_when_every_mode_is_full_rank():
    # no mode is sketched or factorized, so only the core check sees it
    a = with_bad_entry(ts.gen_reciprocal_sum((4, 5, 3)), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        ts.decompose(a, "tucker_svd_seq", (4, 5, 3))


def test_nan_factor_fails_orthonormality_check():
    q = np.eye(3)[:, :2].copy()
    q[0, 0] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        ts.TuckerApprox(np.zeros((2,)), [q])


@st.composite
def driver_cases(draw):
    """Order 3-4, sizes 4-12, ranks that often keep a mode at full rank."""
    dims = tuple(draw(st.lists(st.integers(4, 12), min_size=3, max_size=4)))
    rank = tuple(draw(st.one_of(st.just(d), st.integers(1, d))) for d in dims)
    density = draw(st.sampled_from([1.0, 0.5]))
    return dims, rank, density, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(driver_cases())
def test_every_algorithm_agrees_across_dense_c_dense_f_and_sparse(case):
    dims, rank, density, seed = case
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(dims) * (rng.random(dims) < density)
    inputs = {"C": dense, "F": np.asfortranarray(dense), "sparse": sparse_copy(dense)}
    for alg in tucker.ALGORITHMS:
        runs = {}
        for kind, a in inputs.items():
            apx = ts.decompose(a, alg, rank, seed=seed % 1000)
            assert apx.source_residuals(a)[1] <= 1e-8, (alg, kind)
            runs[kind] = apx, ts.rlne(a, apx)
        ref, ref_err = runs["C"]
        for kind, (apx, err) in runs.items():
            # past a mode's numerical rank the basis columns are arbitrary, and
            # in the sequential loop they steer every later shrink
            if ref.rank_warnings or apx.rank_warnings:
                continue
            # rlne is a residual norm over ||a||, so it carries an absolute
            # roundoff of a few eps; that floor decides only when nothing
            # was truncated
            assert abs(err - ref_err) <= 1e-10 * ref_err + 1e-13, (alg, kind)
            for q, q_ref in zip(apx.factors, ref.factors):
                np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-9, err_msg=alg)


# (dims, rank): orders 2-5, a full-rank mode at the shared mode of C order
# (1), of F order (N), and elsewhere, an outermost mode too short to share
# in C order (its widths sum to 6 > 3), every mode but C order's outermost
# at full rank, and a size-1 mode outermost in C order
SHARED_PASS_CASES = [
    ((9, 8), (2, 3)),
    ((8, 7, 6), (2, 3, 2)),
    ((7, 5, 4, 7), (2, 2, 3, 2)),
    ((9, 5, 3, 4, 9), (2, 2, 2, 2, 2)),
    ((8, 7, 6), (8, 3, 2)),
    ((8, 7, 6), (2, 3, 6)),
    ((6, 5, 4, 5), (2, 5, 3, 2)),
    ((3, 8, 8), (2, 2, 2)),
    ((8, 7, 6), (2, 7, 6)),
    ((1, 8, 7, 6), (1, 2, 3, 2)),
]


@pytest.mark.parametrize("layout", ["C", "F", "slice", "moveaxis"])
@pytest.mark.parametrize("dims, rank", SHARED_PASS_CASES)
def test_batch_sketches_equal_the_per_mode_sketches(monkeypatch, dims, rank, layout):
    # the shared first contraction and the fused last pass only reorder each
    # mode's chain; the basis of the outermost mode in memory p comes last
    a = tensor_in_layout(dims, layout, np.random.default_rng(len(dims)))
    plan = default_plan(dims, rank, oversampling=3, seed=6)
    sketches = []

    def spy(b, mu):
        sketches.append(b)
        return fixed_rank_basis(b, mu)

    fixed_rank_basis = linalg.fixed_rank_basis
    monkeypatch.setattr(linalg, "fixed_rank_basis", spy)
    apx = ts.tucker_svd_batch(a, plan)
    # a sliced input is laid out in C order
    axes = core.memory_axes(a) or tuple(range(len(dims)))
    p = next(m for m in axes if dims[m] > 1) + 1
    modes = [n for n, (d, mu) in enumerate(zip(dims, rank), start=1) if mu < d]
    by_mode = dict(zip(sorted(modes, key=lambda n: n == p), sketches))
    assert len(sketches) == len(modes) == len(by_mode)
    for n in modes:
        ref = sketch_mode(a, n, plan)
        np.testing.assert_allclose(by_mode[n], ref, rtol=0, atol=1e-12 * np.linalg.norm(ref))
    ref_core = tucker._project(np.asarray(a), [q if q.shape[0] > q.shape[1] else None
                                               for q in apx.factors])
    np.testing.assert_allclose(apx.core, ref_core, rtol=0, atol=1e-12 * np.linalg.norm(a))


@pytest.mark.parametrize("slab, step", [(1, 1), (160, 2), (320, 4), (500, 6)])
@pytest.mark.parametrize("layout", ["C", "F", "moveaxis"])
def test_fused_pass_is_the_same_in_slabs_of_any_size(monkeypatch, slab, step, layout):
    # one index of the fused mode p (9 long in C order, 7 otherwise) makes an
    # 80-entry stacked product here, so these give blocks of one index of p
    # upward; blocks of more than one end with a ragged one
    dims, rank = (9, 5, 4, 7), (2, 2, 3, 2)
    a = tensor_in_layout(dims, layout, np.random.default_rng(3))
    plan = default_plan(dims, rank, oversampling=3, seed=1)
    ref = ts.tucker_svd_batch(a, plan)
    p = 1 if layout == "C" else 4
    blocks, original = [], tucker.stacked_products

    def spy(t, mode, chains):
        blocks.append(t.shape[p - 1])
        return original(t, mode, chains)

    monkeypatch.setattr(tucker, "stacked_products", spy)
    monkeypatch.setattr(tucker, "_SLAB", slab)
    apx = ts.tucker_svd_batch(a, plan)
    # the lead's read of the whole tensor, then the fused pass's blocks
    n = dims[p - 1]
    assert blocks == [n] + [min(step, n - lo) for lo in range(0, n, step)]
    np.testing.assert_allclose(apx.core, ref.core, rtol=0, atol=1e-12 * np.linalg.norm(a))
    for q, q_ref in zip(apx.factors, ref.factors):
        np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-9)


def test_fused_pass_allocates_one_bounded_block_at_a_time():
    # L_{1,q} = 3 here, so a block's stacked product is 7/8 of its input.
    # Blocks hold at most _SLAB product entries (1/8 of a), beside the
    # partial core (1/8 of a); blocks of half of a would make 7 MiB
    # products and peak above a.nbytes
    a = np.random.default_rng(0).standard_normal((4096, 8, 8, 8))
    plan = default_plan(a.shape, (2, 4, 4, 4))
    assert plan.sketch_dims[1] == (3, 3, 3)
    tracemalloc.start()
    try:
        ts.tucker_svd_batch(a, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * a.nbytes


@pytest.mark.parametrize("layout, p, q", [("C", 1, 2), ("F", 4, 3)])
def test_fused_pass_breaks_ties_to_the_mode_next_to_the_fused_one(monkeypatch, layout, p, q):
    # every ratio I_m / (L_{p,m} + mu_m) ties, as at 60^4 rank 8, where the
    # stacked product was faster at the mode next to p in memory than at
    # the innermost one. The widths L_{n,p} sum to 6 < 12, so the lead
    # contracts p once, and the fused pass reads a in one slab.
    dims = (12, 12, 12, 12)
    a = tensor_in_layout(dims, layout, np.random.default_rng(2))
    plan = default_plan(dims, (2, 2, 2, 2), oversampling=3, seed=1)
    modes = []

    def spy(t, mode, b):
        if np.shares_memory(t, a):
            modes.append(mode)
        return ts.mode_product(t, mode, b)

    for module in (core, tucker, sketch):
        monkeypatch.setattr(module, "mode_product", spy)
    ts.tucker_svd_batch(a, plan)
    assert modes == [p, q]


@pytest.mark.parametrize(
    "dims, rank, layout, reads",
    [
        ((12, 7, 12), 2, "C", 2),
        ((12, 7, 12), 2, "F", 2),
        ((12, 7, 12), 2, "slice", 2),
        ((12, 7, 12), 2, "moveaxis", 2),
        ((10, 5, 4, 10), 2, "C", 2),
        ((10, 5, 4, 10), 2, "F", 2),
        ((9, 4, 3, 4, 9), 2, "C", 2),
        ((9, 4, 3, 4, 9), 2, "F", 2),
        # the widths at the outermost mode sum to 8 (C) and 6 (F): no sharing
        ((8, 7, 6), 2, "C", 3),
        ((8, 7, 6), 2, "F", 3),
        ((3, 12, 12), 2, "C", 3),
        ((3, 12, 12), 2, "F", 2),
        # order 2: the other mode's width exceeds the outermost mode
        ((9, 8), (2, 3), "C", 2),
        ((9, 8), (2, 3), "F", 2),
        # the outermost mode at full rank: the lead, then the projection
        ((12, 7, 12), (12, 2, 2), "C", 2),
        ((8, 7, 6), (8, 2, 2), "C", 3),
        # every mode but the outermost at full rank: its sketch, then the
        # projection
        ((12, 7, 12), (2, 7, 12), "C", 2),
        ((12, 7, 12), (12, 7, 2), "F", 2),
        # a size-1 mode is never the one shared or fused
        ((1, 12, 7, 12), (1, 2, 2, 2), "C", 2),
        ((12, 7, 12, 1), (2, 2, 2, 1), "F", 2),
    ],
)
def test_dense_batch_reads_the_input_twice_when_the_lead_shrinks(
    monkeypatch, dims, rank, layout, reads
):
    # shared: the stacked lead, then one pass for the outermost mode's sketch
    # and the core; otherwise one read per other mode's sketch and that pass.
    # A sliced view is copied once up front, and the reads are of that copy.
    a = tensor_in_layout(dims, layout, np.random.default_rng(0))
    laid_out, read, original = [], [], tucker._input

    def checked(x, rank):
        out = original(x, rank)
        laid_out.append(out[0])
        return out

    def spy(t, mode, b):
        if isinstance(t, np.ndarray) and np.shares_memory(t, laid_out[0]):
            read.append(t.size)
        return ts.mode_product(t, mode, b)

    monkeypatch.setattr(tucker, "_input", checked)
    # the sketch chains and the projection run in core.mode_products
    for module in (core, tucker, sketch):
        monkeypatch.setattr(module, "mode_product", spy)
    rank = (rank,) * len(dims) if isinstance(rank, int) else rank
    ts.decompose(a, "tucker_svd_batch", rank, seed=1)
    assert (laid_out[0] is a) == (layout != "slice")
    assert sum(read) / a.size == reads


@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_a_sliced_input_is_copied_once_per_call(monkeypatch, alg):
    # mode_product, unfold and sketch_full_gaussian would each copy the view
    a = ts.gen_reciprocal_sum((20, 18, 16))[::2, ::2, ::2]
    assert core.memory_axes(a) is None
    ref = ts.decompose(np.ascontiguousarray(a), alg, (3, 3, 3), seed=0, max_iters=2)
    received = []

    def wrap(fn):
        def spy(t, *args):
            received.append(t is a)
            return fn(t, *args)

        return spy

    for name in ("mode_product", "unfold", "sketch_full_gaussian"):
        for module in (core, sketch, tucker):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    apx = ts.decompose(a, alg, (3, 3, 3), seed=0, max_iters=2)
    assert received and not any(received)
    # the copy is in C order: the same run as on a C-ordered input
    assert apx.core.tobytes() == ref.core.tobytes()


@pytest.mark.parametrize("rank", [(2, 3, 2, 2), (12, 3, 2, 5), (2, 5, 3, 12)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_batch_draws_each_sketch_matrix_once(monkeypatch, rank, order):
    dims = (12, 5, 6, 12)
    a = np.asarray(ts.gen_reciprocal_sum(dims), order=order)
    ids = []

    def spy(seed, stream_id, rows, cols):
        ids.append(stream_id)
        return ts.gaussian_matrix(seed, stream_id, rows, cols)

    for module in (tucker, sketch):
        monkeypatch.setattr(module, "gaussian_matrix", spy)
    ts.decompose(a, "tucker_svd_batch", rank, seed=1)
    needed = [n for n, (d, mu) in enumerate(zip(dims, rank), start=1) if mu < d]
    assert sorted(ids) == sorted(256 * n + m for n in needed for m in range(1, 5) if m != n)


def test_sparse_batch_sketches_each_mode_from_the_input():
    # sparse input keeps the per-mode loop, bit for bit
    s = ts.gen_random_sparse((30, 25, 20), 400, seed=3)
    plan = default_plan(s.dims, (4, 3, 5), oversampling=5, seed=2)
    apx = ts.tucker_svd_batch(s, plan)

    def basis(c, n, mu):
        return linalg.fixed_rank_basis(sketch_mode(s, n, plan), mu)

    ref = tucker._tucker(s, plan.target_rank, basis, sequential=False)
    assert apx.core.tobytes() == ref.core.tobytes()
    for q, q_ref in zip(apx.factors, ref.factors):
        assert q.tobytes() == q_ref.tobytes()


@pytest.mark.parametrize(
    "order, first",
    [
        ("C", [1, 2, 3]),
        ("F", [3, 2, 1]),
        ("moveaxis", [3, 1, 2]),
        ("C", [1, 2, 3, 4]),
        ("F", [4, 3, 2, 1]),
        ("moveaxis", [4, 1, 2, 3]),
    ],
)
def test_tied_shrink_ratios_contract_the_outermost_mode_first(monkeypatch, order, first):
    # then the others in memory order, slowest first: core.memory_axes
    dims = (8,) * len(first)
    a = ts.gen_reciprocal_sum(dims)
    if order == "F":
        a = np.asfortranarray(a)
    elif order == "moveaxis":
        a = np.moveaxis(a, 0, -1)
    seen = []

    def spy(t, mode, b):
        seen.append(mode)
        return ts.mode_product(t, mode, b)

    for module in (core, tucker, sketch):
        monkeypatch.setattr(module, "mode_product", spy)
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 2)))[0]
    tucker._project(a, [q] * len(dims))
    assert seen == first == [m + 1 for m in core.memory_axes(a)]
    modes = range(1, len(dims) + 1)
    plan = SketchPlan((2,) * len(dims), {n: (2,) * (len(dims) - 1) for n in modes})
    seen.clear()
    for n in modes:
        sketch_mode(a, n, plan)
    assert seen == [m for n in modes for m in first if m != n]
    # reconstruct expands a core that is always in C order: modes 1..N
    seen.clear()
    ts.reconstruct(ts.TuckerApprox(np.ones((2,) * len(dims)), [q] * len(dims)))
    assert seen == list(modes)
