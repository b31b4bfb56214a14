"""Random stream and sketch operator tests.

The frozen stream values come from a from-scratch Box-Muller applied to raw
Philox uniforms (one pair per two variates, cos before sin), written before
the stream class existed. Everything downstream of the streams is checked
against explicit Kronecker/Khatri-Rao matrix algebra.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersketch import core, sketch

from test_core import tensor_in_layout

# GaussianStream(7, 3).normals(5), from the independent oracle
STREAM_7_3 = (
    -0.18561229419411898,
    -1.1320798309641475,
    -0.12961771443830444,
    0.293803894410609,
    0.5090403330420534,
)


def test_stream_frozen_values():
    vals = sketch.GaussianStream(7, 3).normals(5)
    np.testing.assert_allclose(vals, STREAM_7_3, atol=1e-13)


def test_stream_chunking_invariance():
    a = sketch.GaussianStream(3, 9)
    b = sketch.GaussianStream(3, 9)
    split = np.concatenate([a.normals(3), a.normals(2), a.normals(4)])
    np.testing.assert_array_equal(split, b.normals(9))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**16),
    st.lists(st.integers(0, 9), max_size=12),
)
def test_stream_split_into_any_chunks_matches_one_draw(seed, stream_id, chunks):
    split = sketch.GaussianStream(seed, stream_id)
    parts = [split.normals(k) for k in chunks]
    for part, k in zip(parts, chunks):
        assert part.shape == (k,)
    whole = sketch.GaussianStream(seed, stream_id).normals(sum(chunks) + 1)
    np.testing.assert_array_equal(np.concatenate([np.empty(0)] + parts), whole[:-1])
    # and the stream continues where one draw would
    assert split.normals(1)[0] == whole[-1]


def test_stream_odd_carry_exactness():
    # an odd request buffers the sin half of the last pair; the next request
    # must start with exactly that value
    a = sketch.GaussianStream(5, 0)
    first = a.normals(1)
    rest = a.normals(1)
    both = sketch.GaussianStream(5, 0).normals(2)
    assert first[0] == both[0]
    assert rest[0] == both[1]


def test_streams_differ_across_ids_and_seeds():
    base = sketch.GaussianStream(1, 2).normals(8)
    assert not np.array_equal(base, sketch.GaussianStream(1, 3).normals(8))
    assert not np.array_equal(base, sketch.GaussianStream(2, 2).normals(8))
    np.testing.assert_array_equal(base, sketch.GaussianStream(1, 2).normals(8))


def test_fork_derivation():
    s = sketch.GaussianStream(4, 5)
    child = s.fork(3)
    assert child.stream_id == 256 * 5 + 3
    assert child.seed == 4
    with pytest.raises(ValueError):
        s.fork(256)
    with pytest.raises(ValueError):
        s.fork(-1)


def test_gaussian_matrix_row_major():
    m = sketch.gaussian_matrix(sketch.GaussianStream(2, 1), 3, 4)
    flat = sketch.GaussianStream(2, 1).normals(12)
    np.testing.assert_array_equal(m.ravel(order="C"), flat)


def test_default_plan_width_examples():
    # mu=25, K=10: M = max(35, (1+1/ln 25)*25) = 35 -> (6, 6)
    plan = sketch.default_plan((100, 100, 100), (25, 25, 25), oversampling=10)
    assert plan.sketch_dims[1] == (6, 6)
    # mu=5, K=10: M = 15 -> (4, 4)
    with pytest.warns(sketch.SketchWidthWarning):
        plan = sketch.default_plan((60, 60, 60), (5, 5, 5), oversampling=10)
    assert plan.sketch_dims[2] == (4, 4)
    # mu=20, K=10: M = 30 -> (6, 5)
    plan = sketch.default_plan((120, 120, 120), (20, 20, 20), oversampling=10)
    assert plan.sketch_dims[3] == (6, 5)
    # order 4, mu=20, K=10: M = 30 -> ceil(30^(1/3)) each = (4, 4, 4)
    plan = sketch.default_plan((30,) * 4, (20, 5, 5, 5), oversampling=10)
    assert plan.sketch_dims[1] == (4, 4, 4)


def test_default_plan_width_floor_property():
    # product of factors never drops below mu + K, whatever the split does
    for mu in range(1, 41, 3):
        for k in (0, 5, 10, 15):
            plan = sketch.default_plan((64, 64, 64), (mu,) * 3, oversampling=k)
            for n in range(1, 4):
                assert plan.width(n) >= mu + k
                lo, hi = sorted(plan.sketch_dims[n])
                assert hi - lo <= 1  # near-square split


def test_default_plan_processing_order():
    plan = sketch.default_plan((50, 80, 60), (5, 5, 5), oversampling=5)
    assert plan.order == (2, 3, 1)
    plan = sketch.default_plan((60, 60, 30), (5, 5, 5), oversampling=5)
    assert plan.order == (1, 2, 3)  # ties broken by mode index


def test_plan_validation():
    with pytest.raises(ValueError):
        sketch.SketchPlan((5, 5, 5), 10, {1: (2, 2), 2: (4, 4), 3: (4, 4)})  # width 4 < 15
    with pytest.raises(ValueError):
        sketch.SketchPlan((5, 5, 5), 0, {1: (3, 3), 2: (3, 3)})  # mode 3 missing
    with pytest.raises(ValueError):
        sketch.SketchPlan((5, 5, 5), 0, {n: (3, 3) for n in (1, 2, 3)}, order=(1, 1, 2))
    with pytest.raises(ValueError):
        sketch.SketchPlan((5, 0, 5), 0, {n: (3, 3) for n in (1, 2, 3)})


def test_guarantee_gaps_empty_for_generous_plan():
    # wide factors, tiny rank, big tensor: all hypotheses hold
    plan = sketch.SketchPlan((4, 4, 4), 10, {n: (6, 6) for n in (1, 2, 3)})
    assert sketch.guarantee_gaps(plan, (100, 100, 100)) == {}


def test_default_plan_warns_in_heuristic_regime():
    with pytest.warns(sketch.SketchWidthWarning):
        sketch.default_plan((40, 40, 40), (5, 5, 5), oversampling=10)


def test_sketch_mode_equals_kron_chain():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((5, 6, 7))
    plan = sketch.SketchPlan((2, 2, 2), 0, {1: (3, 4), 2: (3, 4), 3: (3, 4)}, seed=11)
    for n in (1, 2, 3):
        stream = sketch.GaussianStream(plan.seed, n)
        b = sketch.sketch_mode(c, n, plan, stream)
        others = [m for m in (1, 2, 3) if m != n]
        mats = {
            m: sketch.gaussian_matrix(
                sketch.GaussianStream(plan.seed, n).fork(m), ell, c.shape[m - 1]
            )
            for m, ell in zip(others, plan.sketch_dims[n])
        }
        # unfold(c x G's, n) = unfold(c, n) @ kron(G_last, ..., G_first)^T
        chain = np.kron(mats[others[1]], mats[others[0]])
        np.testing.assert_allclose(b, core.unfold(c, n) @ chain.T, atol=1e-10)


def test_sketch_mode_sparse_matches_dense():
    rng = np.random.default_rng(12)
    lin = rng.choice(5 * 6 * 7, size=30, replace=False)
    coords = np.column_stack(np.unravel_index(lin, (5, 6, 7), order="F"))
    s = core.SparseTensor((5, 6, 7), coords, rng.standard_normal(30))
    plan = sketch.SketchPlan((2, 2, 2), 0, {n: (3, 4) for n in (1, 2, 3)}, seed=4)
    for n in (1, 2, 3):
        dense_b = sketch.sketch_mode(s.densify(), n, plan, sketch.GaussianStream(4, n))
        sparse_b = sketch.sketch_mode(s, n, plan, sketch.GaussianStream(4, n))
        np.testing.assert_allclose(sparse_b, dense_b, atol=1e-10)


def test_sketch_captures_exact_rank_range():
    # rank-3 tensor: the sketch of each unfolding keeps rank 3 exactly, over
    # many seeds (range capture is what the decomposition relies on)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3, 3))
    a = g
    for n in (1, 2, 3):
        a = core.mode_product(a, n, rng.standard_normal((15, 3)))
    for seed in range(20):
        plan = sketch.SketchPlan((3, 3, 3), 10, {n: (4, 4) for n in (1, 2, 3)}, seed=seed)
        for n in (1, 2, 3):
            b = sketch.sketch_mode(a, n, plan, sketch.GaussianStream(seed, n))
            sig = np.linalg.svd(b, compute_uv=False)
            assert sig[3] <= 1e-10 * sig[0]


def test_sketch_full_gaussian_matches_redraw():
    rng = np.random.default_rng(19)
    c = rng.standard_normal((4, 5, 6))
    stream = sketch.GaussianStream(9, 2)
    b = sketch.sketch_full_gaussian(c, 2, 7, stream)
    omega = sketch.gaussian_matrix(sketch.GaussianStream(9, 2), 4 * 6, 7)
    np.testing.assert_allclose(b, core.unfold(c, 2) @ omega, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.data(),
    st.integers(1, 6),
    st.sampled_from(["C", "F", "moveaxis", "slice"]),
    st.integers(0, 2**32 - 1),
)
def test_sketch_full_gaussian_matches_unfolding_in_every_layout(dims, data, lprime, layout, seed):
    dims = tuple(dims)
    n = data.draw(st.integers(1, len(dims)))
    c = tensor_in_layout(dims, layout, np.random.default_rng(seed))
    before = np.array(c)
    rows = int(np.prod([d for i, d in enumerate(dims) if i != n - 1]))
    omega = sketch.gaussian_matrix(sketch.GaussianStream(seed, n), rows, lprime)
    ref = core.unfold(c, n) @ omega
    b = sketch.sketch_full_gaussian(c, n, lprime, sketch.GaussianStream(seed, n))
    assert b.shape == (dims[n - 1], lprime)
    # relative to the size of the summed terms, so cancellation cannot fail it
    scale = np.linalg.norm(np.abs(core.unfold(c, n)) @ np.abs(omega))
    assert np.linalg.norm(b - ref) <= 1e-12 * scale
    np.testing.assert_array_equal(c, before)


def test_sketch_full_gaussian_sparse_matches_dense():
    rng = np.random.default_rng(23)
    lin = rng.choice(4 * 5 * 6, size=20, replace=False)
    coords = np.column_stack(np.unravel_index(lin, (4, 5, 6), order="F"))
    s = core.SparseTensor((4, 5, 6), coords, rng.standard_normal(20))
    for n in (1, 2, 3):
        dense_b = sketch.sketch_full_gaussian(s.densify(), n, 6, sketch.GaussianStream(1, n))
        sparse_b = sketch.sketch_full_gaussian(s, n, 6, sketch.GaussianStream(1, n))
        np.testing.assert_allclose(sparse_b, dense_b, atol=1e-10)


def test_sketch_khatri_rao_matches_explicit_product():
    rng = np.random.default_rng(29)
    c = rng.standard_normal((4, 5, 6))
    lprime = 7
    for n in (1, 2, 3):
        b = sketch.sketch_khatri_rao(c, n, lprime, sketch.GaussianStream(3, n))
        others = [m for m in (1, 2, 3) if m != n]
        omegas = {
            m: sketch.gaussian_matrix(
                sketch.GaussianStream(3, n).fork(m), c.shape[m - 1], lprime
            )
            for m in others
        }
        # columns of the test matrix: kron over others, earliest mode fastest
        w = np.column_stack(
            [np.kron(omegas[others[1]][:, j], omegas[others[0]][:, j]) for j in range(lprime)]
        )
        np.testing.assert_allclose(b, core.unfold(c, n) @ w, atol=1e-10)


def test_sketch_khatri_rao_sparse_matches_dense():
    rng = np.random.default_rng(31)
    lin = rng.choice(5 * 5 * 5, size=25, replace=False)
    coords = np.column_stack(np.unravel_index(lin, (5, 5, 5), order="F"))
    s = core.SparseTensor((5, 5, 5), coords, rng.standard_normal(25))
    for n in (1, 2, 3):
        dense_b = sketch.sketch_khatri_rao(s.densify(), n, 6, sketch.GaussianStream(7, n))
        sparse_b = sketch.sketch_khatri_rao(s, n, 6, sketch.GaussianStream(7, n))
        np.testing.assert_allclose(sparse_b, dense_b, atol=1e-10)


def test_sketch_khatri_rao_order4():
    rng = np.random.default_rng(37)
    c = rng.standard_normal((3, 4, 3, 4))
    b = sketch.sketch_khatri_rao(c, 2, 5, sketch.GaussianStream(2, 2))
    omegas = {
        m: sketch.gaussian_matrix(sketch.GaussianStream(2, 2).fork(m), c.shape[m - 1], 5)
        for m in (1, 3, 4)
    }
    w = np.column_stack(
        [np.kron(np.kron(omegas[4][:, j], omegas[3][:, j]), omegas[1][:, j]) for j in range(5)]
    )
    np.testing.assert_allclose(b, core.unfold(c, 2) @ w, atol=1e-10)


def test_philox_rejects_negative_keys():
    with pytest.raises(ValueError):
        sketch.philox_rng(-1, 0)
    with pytest.raises(ValueError):
        sketch.GaussianStream(0, -2)
