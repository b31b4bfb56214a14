"""Decomposition algorithm tests.

Superdiagonal oracles: for diag(3,2,1) on a 3x3x3 tensor the best rank-(2,2,2)
approximation drops only the trailing 1, so RLNE = 1/sqrt(14); rank-(1,1,1)
drops 2 and 1, so RLNE = sqrt(5/14). Worked by hand, frozen here.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckersketch as ts
from tuckersketch import linalg, tucker
from tuckersketch.sketch import SketchPlan, SketchWidthWarning, default_plan

from test_core import tensor_in_layout

warnings.simplefilter("ignore", SketchWidthWarning)

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
        else linalg.qr_basis_with_rank(ts.gaussian_matrix(ts.GaussianStream(2, n), d, mu))[0]
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


@pytest.mark.parametrize("max_iters", [0, -1])
def test_hooi_needs_at_least_one_sweep(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        ts.hooi(ts.gen_reciprocal_sum((5, 6, 7)), (2, 2, 2), max_iters=max_iters)


def test_sparse_hosvd_takes_the_dense_rank_rule():
    # rank 1: the Gram eigenvalues' roundoff gives sigma_2 / sigma_1 near
    # 1e-8 after the square root, which must not pass for rank
    rng = np.random.default_rng(5)
    dense = np.einsum("i,j,k->ijk", *(rng.standard_normal(d) for d in (8, 9, 10)))
    for a in (dense, sparse_copy(dense)):
        assert ts.truncated_hosvd(a, (3, 3, 3)).rank_warnings == (1, 2, 3)


def test_processing_order_insensitivity():
    # the sequential algorithm may process modes in any order; on a smooth
    # tensor the resulting errors stay within a small factor of each other
    from itertools import permutations

    a = ts.gen_reciprocal_sum((20, 20, 20))
    errs = []
    for order in permutations((1, 2, 3)):
        plan = default_plan((20, 20, 20), (4, 4, 4), oversampling=10, seed=3)
        plan = SketchPlan(plan.target_rank, plan.oversampling, dict(plan.sketch_dims), order, 3)
        errs.append(ts.rlne(a, ts.tucker_svd_seq(a, plan)))
    assert max(errs) <= 2.0 * min(errs)


def test_degenerate_full_rank_modes_use_identity():
    a = ts.gen_reciprocal_sum((10, 12, 14))
    apx = ts.decompose(a, "tucker_svd_seq", (10, 3, 3), seed=0)
    np.testing.assert_array_equal(apx.factors[0], np.eye(10))
    # all modes at full rank: lossless
    apx = ts.decompose(a, "tucker_svd_batch", (10, 12, 14), seed=0)
    assert ts.rlne(a, apx) <= 1e-10


def test_rank_warnings_surface_deficiency():
    a = exact_rank_tensor((12, 12, 12), (2, 2, 2), seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alg in ("tucker_svd_seq", "tucker_svd_batch", "ran_tucker", "kr_tucker",
                    "truncated_hosvd"):
            apx = ts.decompose(a, alg, (4, 4, 4), seed=1)
            assert apx.rank_warnings, alg
            assert all(1 <= n <= 3 for n in apx.rank_warnings)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("alg", tucker.ALGORITHMS)
def test_rank_above_the_product_of_the_other_dims(alg, sparse):
    # mode 1's unfolding is 10 x 4, so its 8-column basis needs a completion
    dense = np.random.default_rng(2).standard_normal((10, 2, 2))
    a = sparse_copy(dense) if sparse else dense
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linalg.RankDeficiencyWarning)
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
    a = ts.gen_reciprocal_sum((12, 11, 10))  # order (1, 2, 3)
    plan = default_plan((12, 11, 10), (3, 3, 3), oversampling=5, seed=4)
    assert plan.order[0] == 1
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
    # mode_product contracts an F-ordered tensor through its transpose;
    # read_tensor returns F order, the generators C order
    a, _ = ts.gen_tucker_noise(ts.NoisySpec(rank, 30.0, seed=4), dims)
    a = np.ascontiguousarray(a)
    apx_c = ts.decompose(a, alg, rank, seed=2)
    apx_f = ts.decompose(np.asfortranarray(a), alg, rank, seed=2)
    for q_c, q_f in zip(apx_c.factors, apx_f.factors):
        np.testing.assert_allclose(q_f, q_c, rtol=0, atol=1e-9)
    np.testing.assert_allclose(apx_f.core, apx_c.core, rtol=0, atol=1e-9 * ts.frob_norm(a))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("alg", ["tucker_svd_seq", "tucker_svd_batch"])
def test_sketched_decomposition_and_rlne_do_not_copy_the_input(alg, order):
    a = np.asarray(ts.gen_reciprocal_sum((60, 60, 60)), order=order)
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


def test_sparse_rlne_never_densifies():
    # one slab of 6 x 200 x 200 (0.03 of the dense size) plus the core
    # chain 200 x 200 x 3 (0.015)
    s = ts.gen_random_sparse((200, 200, 200), 3000, seed=0)
    apx = ts.decompose(s, "tucker_svd_seq", (3, 3, 3), seed=0)
    assert peak_bytes_of_rlne(s, apx) < 0.05 * 200**3 * 8


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
    layout = draw(st.sampled_from(["C", "F", "moveaxis", "slice", "sparse"]))
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
