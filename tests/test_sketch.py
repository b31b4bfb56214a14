"""Random stream and sketch operator tests.

The frozen stream values come from a from-scratch Box-Muller applied to raw
Philox uniforms (one pair per two variates, cos before sin), written before
the stream class existed. Everything downstream of the streams is checked
against explicit Kronecker/Khatri-Rao matrix algebra.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersketch import core, sketch

from test_core import LAYOUTS, tensor_in_layout

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


# sha256 of GaussianStream(7, 1).normals(311041), taken when the transform
# still built each of r, theta, cos, sin and the interleaved pairs as its own
# array; an odd count, so the last pair's second variate is carried
DRAW_7_1_SHA256 = "eabca23767ff1cedf78e3c5928ce1fe46840898229519f6353e0cd811f28e597"


def test_in_place_draws_keep_the_stream_bits():
    whole = sketch.GaussianStream(7, 1).normals(311041)
    assert hashlib.sha256(whole.tobytes()).hexdigest() == DRAW_7_1_SHA256
    # the split's second and third parts start on a carried variate
    split = sketch.GaussianStream(7, 1)
    h = hashlib.sha256()
    for k in (100000, 111111, 99930):
        h.update(split.normals(k).tobytes())
    assert h.hexdigest() == DRAW_7_1_SHA256


def test_negative_draw_count_is_rejected():
    stream = sketch.GaussianStream(7, 1)
    stream.normals(1)  # a carried variate must not turn -1 into a valid count
    for n in (-1, -2):
        with pytest.raises(ValueError, match="variate count"):
            stream.normals(n)
    np.testing.assert_array_equal(stream.normals(3), sketch.GaussianStream(7, 1).normals(4)[1:])


def test_draws_are_transformed_in_place():
    # the uniforms' buffer becomes the output, plus one half-size temporary
    # for cos: 1.5x the output's bytes
    stream = sketch.GaussianStream(7, 1)
    tracemalloc.start()
    try:
        out = stream.normals(311041)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * out.nbytes


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
    plan = sketch.default_plan((60, 60, 60), (5, 5, 5), oversampling=10)
    assert plan.sketch_dims[2] == (4, 4)
    assert sketch.guarantee_gaps(plan, (60, 60, 60))
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


@pytest.mark.parametrize(
    "rank, dims, order, oversampling, seed, names",
    [
        ((2.7, 2, 2), (3, 3), (), 0, 0, "target rank entry .*2.7"),
        ((2, 2, True), (3, 3), (), 0, 0, "target rank entry .*True"),
        ((2, 2, 2), (3, 2.5), (), 0, 0, "sketch dim for mode .*2.5"),
        ((2, 2, 2), (3, 3), (1.0, 2, 3), 0, 0, "order entry .*1.0"),
        ((2, 2, 2), (3, 3), (), 2.5, 0, "oversampling .*2.5"),
        ((2, 2, 2), (3, 3), (), True, 0, "oversampling .*True"),
        ((2, 2, 2), (3, 3), (), "2", 0, "oversampling .*'2'"),
        ((2, 2, 2), (3, 3), (), -1, 0, "oversampling .*-1"),
        ((2, 2, 2), (3, 3), (), 0, 2.7, "seed .*2.7"),
        ((2, 2, 2), (3, 3), (), 0, True, "seed .*True"),
        ((2, 2, 2), (3, 3), (), 0, "2", "seed .*'2'"),
        ((2, 2, 2), (3, 3), (), 0, -1, "seed .*-1"),
    ],
)
def test_plan_refuses_non_integers_instead_of_truncating(rank, dims, order, oversampling, seed,
                                                         names):
    with pytest.raises(ValueError, match=names):
        sketch.SketchPlan(rank, oversampling, {n: dims for n in (1, 2, 3)}, order, seed)


def test_plan_keeps_its_own_dims_and_compares_them():
    given = {1: [4, 4], 2: [4, 4], 3: [4, 4]}
    plan = sketch.SketchPlan((5, 5, 5), 0, given)
    assert given == {1: [4, 4], 2: [4, 4], 3: [4, 4]}  # caller's dict untouched
    assert plan.sketch_dims == {1: (4, 4), 2: (4, 4), 3: (4, 4)}
    with pytest.raises(ValueError, match="outside"):
        sketch.SketchPlan((5, 5, 5), 0, {n: (4, 4) for n in (1, 2, 3, 4)})
    wide = sketch.SketchPlan((5, 5, 5), 0, {n: (9, 9) for n in (1, 2, 3)})
    assert plan != wide
    assert plan == sketch.SketchPlan((5, 5, 5), 0, {n: (4, 4) for n in (1, 2, 3)})
    assert hash(plan) == hash(wide)  # widths are compared, not hashed


def test_guarantee_gaps_empty_for_generous_plan():
    # wide factors, tiny rank, big tensor: all hypotheses hold
    plan = sketch.SketchPlan((4, 4, 4), 10, {n: (6, 6) for n in (1, 2, 3)})
    assert sketch.guarantee_gaps(plan, (100, 100, 100)) == {}


def test_default_plan_gaps_in_heuristic_regime():
    plan = sketch.default_plan((40, 40, 40), (5, 5, 5), oversampling=10)
    assert sketch.guarantee_gaps(plan, (40, 40, 40))


def test_guarantee_gaps_take_exact_products_of_huge_dims():
    # prod of three 2^21 dims is 2^63, which wraps to a negative int64
    dims = (2**21,) * 4
    plan = sketch.default_plan(dims, (10,) * 4)
    gaps = sketch.guarantee_gaps(plan, dims)
    assert not any("prod others" in why for why in gaps.values())


def test_sketch_mode_equals_kron_chain():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((5, 6, 7))
    plan = sketch.SketchPlan((2, 2, 2), 0, {1: (3, 4), 2: (3, 4), 3: (3, 4)}, seed=11)
    for n in (1, 2, 3):
        b = sketch.sketch_mode(c, n, plan)
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
        dense_b = sketch.sketch_mode(s.densify(), n, plan)
        sparse_b = sketch.sketch_mode(s, n, plan)
        np.testing.assert_allclose(sparse_b, dense_b, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=5),
    st.data(),
    st.sampled_from(["C", "F", "moveaxis"]),
    st.integers(0, 2**32 - 1),
)
def test_stacked_products_equal_each_chain_and_read_the_input_once(dims, data, layout, seed):
    dims = tuple(dims)
    rng = np.random.default_rng(seed)
    t = tensor_in_layout(dims, layout, rng)
    before, strides = np.array(t), t.strides
    m = data.draw(st.integers(1, len(dims)))
    modes = range(1, len(dims) + 1)
    chains = []
    # up to I_m + 2 rows per chain, so the stack is at times as tall as I_m or taller
    for _ in range(data.draw(st.integers(1, 3))):
        rest = data.draw(st.lists(st.sampled_from([k for k in modes if k != m]), unique=True))
        chains.append({k: rng.standard_normal((data.draw(st.integers(1, dims[k - 1] + 2)),
                                               dims[k - 1]))
                       for k in [m, *rest]})
    reads, mode_product = [], core.mode_product

    def spy(x, mode, b):
        if np.shares_memory(x, t):
            reads.append(mode)
        return mode_product(x, mode, b)

    with pytest.MonkeyPatch.context() as mp:
        for module in (core, sketch):
            mp.setattr(module, "mode_product", spy)
        got = sketch.stacked_products(t, m, chains)
    assert reads == [m]
    assert len(got) == len(chains)
    for out, chain in zip(got, chains):
        ref = core.mode_products(t, chain)
        # every entry is a sum of products: bound its roundoff by their magnitudes
        scale = core.mode_products(np.abs(t), {k: np.abs(b) for k, b in chain.items()})
        assert out.shape == ref.shape
        assert np.all(np.abs(out - ref) <= 1e-12 * scale)
    np.testing.assert_array_equal(t, before)
    assert t.strides == strides


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
            b = sketch.sketch_mode(a, n, plan)
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
    st.sampled_from([layout for layout in LAYOUTS if layout != "sparse"]),
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
