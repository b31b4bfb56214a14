"""Gaussian draw and sketch operator tests.

The frozen draw values come from numpy's own ``Generator(Philox(key=[seed,
stream_id])).standard_normal``, built here without the package. Everything
downstream of the draws is checked against explicit Kronecker/Khatri-Rao
matrix algebra.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckersketch as ts
from tuckersketch import core, generators, sketch

from test_core import LAYOUTS, tensor_in_layout

# normals(7, 3, 5), from the independent oracle
STREAM_7_3 = (
    -2.3662085691511003,
    -1.391050781996294,
    -0.7264621797154692,
    -1.1888950555596285,
    -1.244717995430039,
)


def test_stream_frozen_values():
    vals = sketch.normals(7, 3, 5)
    np.testing.assert_allclose(vals, STREAM_7_3, atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**16),
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
)
def test_a_shorter_draw_is_a_prefix_of_a_longer_one(seed, stream_id, counts):
    longest = sketch.normals(seed, stream_id, max(counts))
    for k in counts:
        draw = sketch.normals(seed, stream_id, k)
        assert draw.shape == (k,)
        np.testing.assert_array_equal(draw, longest[:k])


@pytest.mark.parametrize("seed, stream_id", [(0, 0), (7, 3), (2**64 - 1, 257)])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 1001, 1002])
def test_a_draw_is_the_keyed_generators_standard_normal(seed, stream_id, n):
    key = np.array([seed, stream_id], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
    draw = sketch.normals(seed, stream_id, n)
    assert draw.dtype == np.float64 and draw.tobytes() == want.tobytes()


# sha256 of normals(7, 1, 311041), an odd count
DRAW_7_1_SHA256 = "9397eadadc99930999f73829d10c942399fe639c11bbd3cf9deed33d8fbc371e"


def test_a_long_draw_keeps_its_bits():
    whole = sketch.normals(7, 1, 311041)
    assert hashlib.sha256(whole.tobytes()).hexdigest() == DRAW_7_1_SHA256
    # an even count extends the same draw by one variate
    longer = sketch.normals(7, 1, 311042)
    assert hashlib.sha256(longer[:-1].tobytes()).hexdigest() == DRAW_7_1_SHA256


def test_negative_draw_count_is_rejected():
    for n in (-1, -2):
        with pytest.raises(ValueError, match="variate count"):
            sketch.normals(7, 1, n)


def test_a_draw_allocates_only_its_output():
    # the sampler writes straight into the output: no temporary of its size
    tracemalloc.start()
    try:
        out = sketch.normals(7, 1, 311041)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes


def test_streams_differ_across_ids_and_seeds():
    base = sketch.normals(1, 2, 8)
    assert not np.array_equal(base, sketch.normals(1, 3, 8))
    assert not np.array_equal(base, sketch.normals(2, 2, 8))
    np.testing.assert_array_equal(base, sketch.normals(1, 2, 8))


def test_a_mode_past_255_has_no_stream_id_of_its_own():
    # mode 1's Gaussian for mode 257 would take the id of mode 2's for mode 1
    c = core.SparseTensor((2,) + (1,) * 256, [[0] * 257], [1.0])
    with pytest.raises(ValueError, match="sketched mode"):
        sketch.sketch_khatri_rao(c, 1, 3, 0)


A678 = ts.gen_reciprocal_sum((6, 7, 8))
# every randomized algorithm, and the generator that draws, on one small case
DRAWING_RUNS = {
    **{alg: (lambda alg=alg: ts.decompose(A678, alg, (2, 2, 2), seed=5, max_iters=1))
       for alg in ("tucker_svd_seq", "tucker_svd_batch", "ran_tucker", "kr_tucker", "hooi")},
    "gen_tucker_noise": lambda: generators.gen_tucker_noise(
        generators.NoisySpec((2, 2, 2), 20.0, 5), (6, 7, 8)
    ),
}
# sha256 over the bytes of every draw of each run, in draw order: the keys,
# the counts and the order of the draws are pinned, with the sampler's bits
DRAW_SHA256 = {
    "tucker_svd_seq": "6861eb5ed1c9d1f6acdee519ff947072175159020e098252ca9d95b4f92bf502",
    "tucker_svd_batch": "fa520d45c65f7cb487873664523baeda99578036eb74ff892db61d5557961339",
    "ran_tucker": "c6d69fb686c7ee2c4984ea09096364ea525b038bcb972fdecb6315eacb101be9",
    "kr_tucker": "a695e73c02e8b932b88da5dfe8dd0de1a84ba07166c53cbfc974b1f434224b3c",
    "hooi": "34ea8c3cd937a64b999e6aa3373042c87cdeada36b355fcd735bcdf11cf35c13",
    "gen_tucker_noise": "239a28d08382caa6231446c86f25de7bc936a84efce0e151762e46ca09bdbd4b",
}


@pytest.mark.parametrize("run", DRAWING_RUNS)
def test_every_draw_keeps_its_bits(monkeypatch, run):
    h = hashlib.sha256()
    real = sketch.normals

    def spy(*args):
        out = real(*args)
        h.update(out.tobytes())
        return out

    for module in (sketch, generators):
        monkeypatch.setattr(module, "normals", spy)
    DRAWING_RUNS[run]()
    assert h.hexdigest() == DRAW_SHA256[run]


@pytest.mark.parametrize("run", DRAWING_RUNS)
def test_each_draw_keys_one_philox_generator(monkeypatch, run):
    keys, draws = [], []
    philox, real = sketch.philox_rng, sketch.normals

    def key(*args):
        keys.append(args[1])
        return philox(*args)

    def draw(*args):
        draws.append(args[1])
        return real(*args)

    monkeypatch.setattr(sketch, "philox_rng", key)
    for module in (sketch, generators):
        monkeypatch.setattr(module, "normals", draw)
    DRAWING_RUNS[run]()
    assert keys == draws
    # a sketch of mode n draws one Gaussian per other mode: N(N - 1) at order 3
    if run in ("tucker_svd_seq", "tucker_svd_batch", "kr_tucker"):
        assert len(keys) == 6


@pytest.mark.parametrize("order", [*range(25, 34), 52, 64])
def test_sketch_khatri_rao_past_26_modes(order):
    # einsum's letters ran out at 26 and its 52 labels at 52; numpy allows
    # 64 axes: (2, 2) followed by modes of size 1
    c = np.random.default_rng(order).standard_normal((2, 2) + (1,) * (order - 2))
    for n in (1, order):
        b = sketch.sketch_khatri_rao(c, n, 3, 4)
        # the explicit Khatri-Rao product, earliest mode fastest
        w = np.ones((1, 3))
        for m in range(1, order + 1):
            if m != n:
                omega = sketch.gaussian_matrix(4, 256 * n + m, c.shape[m - 1], 3)
                w = (omega[:, None, :] * w[None, :, :]).reshape(-1, 3)
        np.testing.assert_allclose(b, core.unfold(c, n) @ w, atol=1e-12)
    apx = ts.kr_tucker(c, (1,) * order)
    assert apx.core.shape == (1,) * order
    assert ts.rlne(c, apx) < 1.0


def test_gaussian_matrix_row_major():
    m = sketch.gaussian_matrix(2, 1, 3, 4)
    flat = sketch.normals(2, 1, 12)
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
    for order in range(2, 9):
        for mu in range(1, 41, 3):
            for k in (0, 5, 10, 15):
                plan = sketch.default_plan((64,) * order, (mu,) * order, oversampling=k)
                for n in range(1, order + 1):
                    assert plan.width(n) >= mu + k
                    lo, hi = min(plan.sketch_dims[n]), max(plan.sketch_dims[n])
                    assert hi - lo <= 1  # near-square split


def test_plan_validation():
    with pytest.raises(ValueError, match="width 4 for mode 1 is below its target rank 5"):
        sketch.SketchPlan((5, 5, 5), {1: (2, 2), 2: (4, 4), 3: (4, 4)})
    with pytest.raises(ValueError, match="missing for mode 3"):
        sketch.SketchPlan((5, 5, 5), {1: (3, 3), 2: (3, 3)})
    with pytest.raises(ValueError):
        sketch.SketchPlan((5, 0, 5), {n: (3, 3) for n in (1, 2, 3)})
    # a width equal to the rank is enough for the basis
    assert sketch.SketchPlan((4, 4, 4), {n: (2, 2) for n in (1, 2, 3)}).width(1) == 4


def test_plan_holds_rank_widths_and_seed_only():
    plan = sketch.default_plan((50, 80, 60), (5, 5, 5), oversampling=5, seed=2)
    assert [f.name for f in dataclasses.fields(plan)] == ["target_rank", "sketch_dims", "seed"]
    assert plan == sketch.SketchPlan((5, 5, 5), plan.sketch_dims, 2)


@pytest.mark.parametrize(
    "rank, dims, seed, names",
    [
        ((2.7, 2, 2), (3, 3), 0, "target rank entry .*2.7"),
        ((2, 2, True), (3, 3), 0, "target rank entry .*True"),
        ((2, 2, 2), (3, 2.5), 0, "sketch dim for mode .*2.5"),
        ((2, 2, 2), (3, 3), 2.7, "seed .*2.7"),
        ((2, 2, 2), (3, 3), True, "seed .*True"),
        ((2, 2, 2), (3, 3), "2", "seed .*'2'"),
        ((2, 2, 2), (3, 3), -1, "seed .*-1"),
    ],
)
def test_plan_refuses_non_integers_instead_of_truncating(rank, dims, seed, names):
    with pytest.raises(ValueError, match=names):
        sketch.SketchPlan(rank, {n: dims for n in (1, 2, 3)}, seed)


def test_plan_keeps_its_own_dims_and_compares_them():
    given = {1: [4, 4], 2: [4, 4], 3: [4, 4]}
    plan = sketch.SketchPlan((5, 5, 5), given)
    assert given == {1: [4, 4], 2: [4, 4], 3: [4, 4]}  # caller's dict untouched
    assert plan.sketch_dims == {1: (4, 4), 2: (4, 4), 3: (4, 4)}
    with pytest.raises(ValueError, match="outside"):
        sketch.SketchPlan((5, 5, 5), {n: (4, 4) for n in (1, 2, 3, 4)})
    wide = sketch.SketchPlan((5, 5, 5), {n: (9, 9) for n in (1, 2, 3)})
    assert plan != wide
    assert plan == sketch.SketchPlan((5, 5, 5), {n: (4, 4) for n in (1, 2, 3)})
    assert hash(plan) == hash(wide)  # widths are compared, not hashed


def test_guarantee_gaps_empty_for_generous_plan():
    # wide factors, tiny rank, big tensor: all hypotheses hold
    plan = sketch.SketchPlan((4, 4, 4), {n: (6, 6) for n in (1, 2, 3)})
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
    plan = sketch.SketchPlan((2, 2, 2), {1: (3, 4), 2: (3, 4), 3: (3, 4)}, seed=11)
    for n in (1, 2, 3):
        b = sketch.sketch_mode(c, n, plan)
        others = [m for m in (1, 2, 3) if m != n]
        mats = {
            m: sketch.gaussian_matrix(plan.seed, 256 * n + m, ell, c.shape[m - 1])
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
    plan = sketch.SketchPlan((2, 2, 2), {n: (3, 4) for n in (1, 2, 3)}, seed=4)
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
        plan = sketch.SketchPlan((3, 3, 3), {n: (4, 4) for n in (1, 2, 3)}, seed=seed)
        for n in (1, 2, 3):
            b = sketch.sketch_mode(a, n, plan)
            sig = np.linalg.svd(b, compute_uv=False)
            assert sig[3] <= 1e-10 * sig[0]


def test_sketch_full_gaussian_matches_redraw():
    rng = np.random.default_rng(19)
    c = rng.standard_normal((4, 5, 6))
    b = sketch.sketch_full_gaussian(c, 2, 7, 9)
    omega = sketch.gaussian_matrix(9, 2, 4 * 6, 7)
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
    omega = sketch.gaussian_matrix(seed, n, rows, lprime)
    ref = core.unfold(c, n) @ omega
    b = sketch.sketch_full_gaussian(c, n, lprime, seed)
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
        dense_b = sketch.sketch_full_gaussian(s.densify(), n, 6, 1)
        sparse_b = sketch.sketch_full_gaussian(s, n, 6, 1)
        np.testing.assert_allclose(sparse_b, dense_b, atol=1e-10)


def test_sketch_khatri_rao_matches_explicit_product():
    rng = np.random.default_rng(29)
    c = rng.standard_normal((4, 5, 6))
    lprime = 7
    for n in (1, 2, 3):
        b = sketch.sketch_khatri_rao(c, n, lprime, 3)
        others = [m for m in (1, 2, 3) if m != n]
        omegas = {m: sketch.gaussian_matrix(3, 256 * n + m, c.shape[m - 1], lprime)
                  for m in others}
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
        dense_b = sketch.sketch_khatri_rao(s.densify(), n, 6, 7)
        sparse_b = sketch.sketch_khatri_rao(s, n, 6, 7)
        np.testing.assert_allclose(sparse_b, dense_b, atol=1e-10)


def test_sketch_khatri_rao_order4():
    rng = np.random.default_rng(37)
    c = rng.standard_normal((3, 4, 3, 4))
    b = sketch.sketch_khatri_rao(c, 2, 5, 2)
    omegas = {m: sketch.gaussian_matrix(2, 256 * 2 + m, c.shape[m - 1], 5) for m in (1, 3, 4)}
    w = np.column_stack(
        [np.kron(np.kron(omegas[4][:, j], omegas[3][:, j]), omegas[1][:, j]) for j in range(5)]
    )
    np.testing.assert_allclose(b, core.unfold(c, 2) @ w, atol=1e-10)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 7), min_size=1, max_size=5),
    st.data(),
    st.integers(1, 20),
    st.sampled_from([layout for layout in LAYOUTS if layout != "sparse"]),
    st.integers(0, 2**32 - 1),
)
def test_sketch_khatri_rao_matches_unfolding_in_every_layout(dims, data, lprime, layout, seed):
    # widths above and below the modes cover both ends of memory, runs of
    # merged end modes, and rests on one or both sides of mode n
    dims = tuple(dims)
    n = data.draw(st.integers(1, len(dims)))
    c = tensor_in_layout(dims, layout, np.random.default_rng(seed))
    before = np.array(c)
    # the explicit Khatri-Rao product, earliest mode fastest
    w = np.ones((1, lprime))
    for m in range(1, len(dims) + 1):
        if m != n:
            omega = sketch.gaussian_matrix(seed, 256 * n + m, dims[m - 1], lprime)
            w = (omega[:, None, :] * w[None, :, :]).reshape(-1, lprime)
    ref = core.unfold(c, n) @ w
    b = sketch.sketch_khatri_rao(c, n, lprime, seed)
    assert b.shape == (dims[n - 1], lprime)
    scale = np.linalg.norm(np.abs(core.unfold(c, n)) @ np.abs(w))
    assert np.linalg.norm(b - ref) <= 1e-12 * scale
    np.testing.assert_array_equal(c, before)


def test_philox_rejects_negative_keys():
    with pytest.raises(ValueError):
        sketch.philox_rng(-1, 0)
    with pytest.raises(ValueError):
        sketch.normals(0, -2, 1)
