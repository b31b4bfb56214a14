"""Tensor primitive tests: unfold/fold maps, mode products, sparse kernels.

The 2x2x2 unfolding matrices below are frozen oracles worked out by hand from
the index map (column j enumerates the other modes ascending, earliest
fastest); everything else must stay consistent with them.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckersketch as ts
from tuckersketch import bench, core, generators, linalg, sketch


def cube222():
    # entries 1..8 laid out first-mode-fastest
    return np.arange(1.0, 9.0).reshape(2, 2, 2, order="F")


def test_unfold_222_oracles():
    t = cube222()
    np.testing.assert_array_equal(core.unfold(t, 1), [[1, 3, 5, 7], [2, 4, 6, 8]])
    np.testing.assert_array_equal(core.unfold(t, 2), [[1, 2, 5, 6], [3, 4, 7, 8]])
    np.testing.assert_array_equal(core.unfold(t, 3), [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_unfold_mode1_is_pure_reshape():
    rng = np.random.default_rng(11)
    t = rng.standard_normal((4, 5, 6))
    np.testing.assert_array_equal(core.unfold(t, 1), t.reshape(4, -1, order="F"))


def test_unfold_order4_matches_index_map():
    # brute-force the column map 1 + sum (i_m - 1) * prod_{k<m, k!=n} I_k
    dims = (2, 3, 2, 2)
    rng = np.random.default_rng(7)
    t = rng.standard_normal(dims)
    for n in range(1, 5):
        mat = core.unfold(t, n)
        others = [m for m in range(1, 5) if m != n]
        for idx in np.ndindex(*dims):
            col = 0
            stride = 1
            for m in others:
                col += idx[m - 1] * stride
                stride *= dims[m - 1]
            assert mat[idx[n - 1], col] == t[idx]


def test_fold_inverts_unfold():
    rng = np.random.default_rng(3)
    for dims in [(3, 4, 5), (2, 3, 4, 5), (6, 2, 3, 2, 2)]:
        t = rng.standard_normal(dims)
        for n in range(1, len(dims) + 1):
            np.testing.assert_array_equal(core.fold(core.unfold(t, n), n, dims), t)


def test_mode_product_row_sums():
    t = cube222()
    ones = np.ones((1, 2))
    out = core.mode_product(t, 2, ones)
    assert out.shape == (2, 1, 2)
    # summing over mode 2: (1,1,1)+(1,2,1) = 1+3
    assert out[0, 0, 0] == 4.0
    assert out[1, 0, 1] == 6.0 + 8.0


def test_mode_product_matches_unfolding_identity():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 5, 6))
    for n, sz in ((1, 4), (2, 5), (3, 6)):
        b = rng.standard_normal((3, sz))
        out = core.mode_product(t, n, b)
        np.testing.assert_allclose(core.unfold(out, n), b @ core.unfold(t, n), atol=1e-12)


def test_mode_product_chain_commutes_across_modes():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((4, 5, 6))
    b1 = rng.standard_normal((2, 4))
    b3 = rng.standard_normal((3, 6))
    ab = core.mode_product(core.mode_product(t, 1, b1), 3, b3)
    ba = core.mode_product(core.mode_product(t, 3, b3), 1, b1)
    np.testing.assert_allclose(ab, ba, atol=1e-12)


def test_frob_norm_value():
    assert core.frob_norm(cube222()) == pytest.approx(np.sqrt(204.0), abs=1e-12)


def test_kron_oracle():
    # the (i_a, i_b) block layout, b-index fastest, that the Khatri-Rao
    # references and the sketch chains are written against
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    q = np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])
    expected = [
        [5.0, 6.0, 10.0, 12.0],
        [7.0, 8.0, 14.0, 16.0],
        [9.0, 10.0, 18.0, 20.0],
        [15.0, 18.0, 20.0, 24.0],
        [21.0, 24.0, 28.0, 32.0],
        [27.0, 30.0, 36.0, 40.0],
    ]
    np.testing.assert_array_equal(np.kron(p, q), expected)


# ---- sparse kernels ----


def random_sparse(dims, nnz, seed):
    rng = np.random.default_rng(seed)
    lin = rng.choice(int(np.prod(dims)), size=nnz, replace=False)
    coords = np.column_stack(np.unravel_index(lin, dims, order="F"))
    return core.SparseTensor(dims, coords, rng.standard_normal(nnz))


def test_sparse_densify_roundtrip():
    s = random_sparse((4, 5, 6), 25, seed=2)
    d = s.densify()
    assert d.shape == (4, 5, 6)
    assert np.count_nonzero(d) == 25
    for coord, val in zip(s.coords, s.values):
        assert d[tuple(coord)] == val


def test_sparse_unfold_matches_dense():
    s = random_sparse((4, 5, 6), 30, seed=4)
    d = s.densify()
    for n in range(1, 4):
        np.testing.assert_array_equal(s.unfold_csr(n).toarray(), core.unfold(d, n))


def test_sparse_mode_product_matches_dense():
    s = random_sparse((5, 6, 7), 40, seed=8)
    d = s.densify()
    rng = np.random.default_rng(1)
    for n, sz in ((1, 5), (2, 6), (3, 7)):
        b = rng.standard_normal((3, sz))
        np.testing.assert_allclose(
            core.mode_product(s, n, b), core.mode_product(d, n, b), atol=1e-12
        )


def test_sparse_unfold_times_matches_dense():
    # the sparse branch of sketch_full_gaussian is the CSR unfolding times Omega
    s = random_sparse((5, 4, 3), 20, seed=13)
    d = s.densify()
    for n in range(1, 4):
        sparse_b = sketch.sketch_full_gaussian(s, n, 6, 2)
        dense_b = sketch.sketch_full_gaussian(d, n, 6, 2)
        np.testing.assert_allclose(sparse_b, dense_b, atol=1e-12)


def test_sparse_frob_norm_matches_dense():
    s = random_sparse((6, 6, 6), 50, seed=17)
    assert core.frob_norm(s) == pytest.approx(core.frob_norm(s.densify()), rel=1e-14)


def test_sparse_rejects_duplicates_and_bounds():
    with pytest.raises(ValueError):
        core.SparseTensor((3, 3, 3), [[0, 0, 0], [0, 0, 0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        core.SparseTensor((3, 3, 3), [[0, 0, 3]], [1.0])
    with pytest.raises(ValueError):
        core.SparseTensor((3, 3, 3), [[-1, 0, 0]], [1.0])


def test_accumulate_sparse_sums_duplicates():
    coords = np.array([[0, 0, 0], [1, 2, 0], [0, 0, 0]])
    s = core.accumulate_sparse((3, 3, 3), coords, [1.5, 2.0, 2.5])
    assert s.nnz == 2
    d = s.densify()
    assert d[0, 0, 0] == 4.0
    assert d[1, 2, 0] == 2.0


@pytest.mark.parametrize("build", [core.SparseTensor, core.accumulate_sparse])
def test_sparse_values_must_be_real(build):
    # a cast would drop the imaginary part
    with pytest.raises(ValueError, match="complex"):
        build((2, 2), [[0, 1], [1, 0]], np.array([1.0 + 2.0j, 3.0]))


@pytest.mark.parametrize("k", [-1000, -520, 510, 1000])
def test_frob_norm_is_exact_at_any_finite_scale(k):
    a = np.random.default_rng(1).standard_normal((6, 7, 8))
    dense = core.frob_norm(a)
    assert core.frob_norm(a * 2.0**k) == pytest.approx(dense * 2.0**k, rel=1e-15, abs=0.0)
    sparse = core.SparseTensor(a.shape, np.argwhere(a), a.ravel() * 2.0**k)
    assert core.frob_norm(sparse) == pytest.approx(dense * 2.0**k, rel=1e-15, abs=0.0)


def test_accumulate_sparse_keeps_cancelled_entries():
    # accumulation is a sum, not a prune: exact cancellation stays as a
    # stored zero so nnz reflects the support that was written
    coords = np.array([[1, 1, 1], [1, 1, 1]])
    s = core.accumulate_sparse((2, 2, 2), coords, [3.0, -3.0])
    assert s.nnz == 1
    assert s.values[0] == 0.0


def accumulate_by_linear_index(dims, coords, values):
    # the earlier implementation, exact while prod(dims) fits in int64
    lin = np.ravel_multi_index(coords.T, dims, order="F")
    uniq, inverse = np.unique(lin, return_inverse=True)
    summed = np.zeros(uniq.size)
    np.add.at(summed, inverse, values)
    return np.column_stack(np.unravel_index(uniq, dims, order="F")), summed


def test_accumulate_sparse_matches_linear_index_order():
    rng = np.random.default_rng(8)
    for dims in [(3, 3, 3), (5, 1, 4), (2, 3, 4, 5), (7,)]:
        for nnz in (1, 10, 60):
            coords = np.column_stack([rng.integers(0, d, size=nnz) for d in dims])
            values = rng.standard_normal(nnz)
            s = core.accumulate_sparse(dims, coords, values)
            ref_coords, ref_values = accumulate_by_linear_index(dims, coords, values)
            np.testing.assert_array_equal(s.coords, ref_coords)
            assert s.values.tobytes() == ref_values.tobytes()


def test_sparse_tensor_at_ten_million_per_mode():
    # 10^21 entries: a first-mode-fastest linear index would overflow int64
    dims = (10**7,) * 3
    coords = [[9_999_999, 5, 3], [0, 0, 0], [9_999_999, 5, 2]]
    assert core.SparseTensor(dims, coords, [1.0, 2.0, 3.0]).nnz == 3
    with pytest.raises(ValueError, match="duplicate"):
        core.SparseTensor(dims, coords + [[0, 0, 0]], [1.0, 2.0, 3.0, 4.0])
    s = core.accumulate_sparse(dims, coords + [[0, 0, 0]], [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(s.coords, [[0, 0, 0], [9_999_999, 5, 2], [9_999_999, 5, 3]])
    np.testing.assert_array_equal(s.values, [6.0, 3.0, 1.0])


def test_empty_sparse_tensor():
    s = core.SparseTensor((3, 4, 5), np.empty((0, 3), dtype=np.int64), [])
    assert s.nnz == 0
    assert core.frob_norm(s) == 0.0
    assert np.count_nonzero(s.densify()) == 0


# ---- mode_product layouts ----


@st.composite
def contraction_cases(draw):
    order = draw(st.integers(1, 5))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    mode = draw(st.integers(1, order))
    rows = draw(st.integers(1, 4))
    layout = draw(st.sampled_from(LAYOUTS))
    seed = draw(st.integers(0, 2**32 - 1))
    return dims, mode, rows, layout, seed


LAYOUTS = ["C", "F", "moveaxis", "transpose", "slice", "reversed", "sparse"]


def tensor_in_layout(dims, layout, rng):
    if layout == "C":
        return rng.standard_normal(dims)
    if layout == "F":
        return np.asfortranarray(rng.standard_normal(dims))
    if layout == "moveaxis":
        return np.moveaxis(rng.standard_normal(dims[-1:] + dims[:-1]), 0, -1)
    if layout == "transpose":
        perm = rng.permutation(len(dims))
        return rng.standard_normal(tuple(dims[p] for p in perm)).transpose(np.argsort(perm))
    if layout == "slice":
        return rng.standard_normal(tuple(2 * d for d in dims))[(slice(None, None, 2),) * len(dims)]
    if layout == "reversed":
        return rng.standard_normal(dims)[..., ::-1]
    dense = rng.standard_normal(dims) * (rng.random(dims) < 0.5)
    coords = np.argwhere(dense != 0.0)
    return core.SparseTensor(dims, coords, dense[tuple(coords.T)])


@settings(max_examples=300, deadline=None)
@given(contraction_cases())
def test_mode_product_matches_unfold_reference_in_every_layout(case):
    dims, mode, rows, layout, seed = case
    rng = np.random.default_rng(seed)
    t = tensor_in_layout(dims, layout, rng)
    b = rng.standard_normal((rows, dims[mode - 1]))
    dense = t.densify() if isinstance(t, core.SparseTensor) else np.array(t)
    new_dims = dims[: mode - 1] + (rows,) + dims[mode:]
    ref = core.fold(b @ core.unfold(dense, mode), mode, new_dims)
    out = core.mode_product(t, mode, b)
    assert out.shape == new_dims
    # a transposed view of a C-contiguous array, so the next product is in place
    assert core.memory_axes(out) is not None
    # relative to the size of the summed terms, so cancellation cannot fail it
    scale = np.linalg.norm(np.abs(b) @ np.abs(core.unfold(dense, mode)))
    assert np.linalg.norm(out - ref) <= 1e-13 * scale
    if not isinstance(t, core.SparseTensor):
        np.testing.assert_array_equal(t, dense)


def test_memory_axes_names_the_axes_slowest_first():
    t = np.zeros((2, 3, 4, 5))
    assert core.memory_axes(t) == (0, 1, 2, 3)
    assert core.memory_axes(np.asfortranarray(t)) == (3, 2, 1, 0)
    assert core.memory_axes(np.moveaxis(t, 0, -1)) == (3, 0, 1, 2)
    assert core.memory_axes(t.transpose(2, 0, 3, 1)) == (1, 3, 0, 2)
    assert core.memory_axes(t[:, ::2]) is None
    assert core.memory_axes(t[:, ::-1]) is None
    assert core.memory_axes(np.broadcast_to(np.zeros(5), (4, 5))) is None


def test_size_one_axes_may_sit_anywhere_in_memory():
    # a size-1 axis adds no offset, whatever its stride
    t = np.random.default_rng(2).standard_normal((3, 1, 4, 1, 5))
    views = [t, np.moveaxis(t, 1, -1), t.transpose(4, 1, 0, 3, 2), t[:, ::-1]]
    views.append(np.lib.stride_tricks.as_strided(t, strides=(160, 7, 40, -3, 8)))
    for v in views:
        axes = core.memory_axes(v)
        assert axes is not None and v.transpose(axes).flags.c_contiguous
        for mode, rows in [(1, 2), (2, 3), (3, 1), (4, 2), (5, 4)]:
            b = np.random.default_rng(mode).standard_normal((rows, v.shape[mode - 1]))
            out = core.mode_product(v, mode, b)
            ref = core.fold(b @ core.unfold(v, mode), mode, out.shape)
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
            assert core.memory_axes(out) is not None


@pytest.mark.parametrize("axes", [(1, 2, 0), (2, 0, 1), (1, 0, 2)])
def test_transposed_views_are_contracted_without_a_copy(axes):
    t = np.random.default_rng(3).standard_normal((40, 50, 60)).transpose(axes)
    assert not (t.flags.c_contiguous or t.flags.f_contiguous)
    for mode in (1, 2, 3):
        b = np.random.default_rng(mode).standard_normal((3, t.shape[mode - 1]))
        tracemalloc.start()
        try:
            out = core.mode_product(t, mode, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output is 3/size of the tensor; a copy would be all of it
        assert peak < 0.2 * t.nbytes
        ref = core.fold(b @ core.unfold(t, mode), mode, out.shape)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


# ---- the integer rule ----

A678 = np.random.default_rng(0).standard_normal((6, 7, 8))
WIDE = {n: (4, 4) for n in (1, 2, 3)}

# entry -> (call taking the count v, what the error names, out-of-range values);
# SketchPlan's counts have their own parametrized test
COUNT_ENTRIES = {
    **{
        f"decompose {alg} seed": (
            lambda v, alg=alg: ts.decompose(A678, alg, (2, 2, 2), seed=v), "seed", (-1, 2**64)
        )
        for alg in ts.ALGORITHMS
    },
    **{
        f"decompose {alg} oversampling": (
            lambda v, alg=alg: ts.decompose(A678, alg, (2, 2, 2), oversampling=v),
            "oversampling",
            (-1,),
        )
        for alg in ts.ALGORITHMS
    },
    # checked whether or not the algorithm uses them
    **{
        f"decompose {alg} max_iters": (
            lambda v, alg=alg: ts.decompose(A678, alg, (2, 2, 2), max_iters=v),
            "max_iters",
            (0,),
        )
        for alg in ts.ALGORITHMS
    },
    **{
        f"decompose {alg} lprime": (
            lambda v, alg=alg: ts.decompose(A678, alg, (2, 2, 2), lprime=v),
            "sketch width",
            (0,),
        )
        for alg in ts.ALGORITHMS
    },
    # checked at entry, also where no Gaussian is drawn
    "ran_tucker seed": (lambda v: ts.ran_tucker(A678, A678.shape, seed=v), "seed", (-1, 2**64)),
    "kr_tucker seed": (lambda v: ts.kr_tucker(A678, A678.shape, seed=v), "seed", (-1, 2**64)),
    **{
        f"{fn.__name__} {name}": (
            lambda v, fn=fn, name=name: fn(A678, (2, 2, 2), **{name: v}), what, (bad,)
        )
        for fn in (ts.ran_tucker, ts.kr_tucker)
        for name, what, bad in (("lprime", "sketch width", 1), ("oversampling", "oversampling", -1))
    },
    "hooi seed": (
        lambda v: ts.hooi(A678, (2, 2, 2), seed=v, init="hosvd"), "seed", (-1, 2**64)
    ),
    "default_plan dims": (
        lambda v: sketch.default_plan((v, 7, 8), (2, 2, 2)), "dim for mode 1", (0,)
    ),
    "default_plan oversampling": (
        lambda v: sketch.default_plan((6, 7, 8), (2, 2, 2), v), "oversampling", (-1,)
    ),
    "default_plan seed": (
        lambda v: sketch.default_plan((6, 7, 8), (2, 2, 2), seed=v), "seed", (-1, 2**64)
    ),
    "guarantee_gaps dims": (
        lambda v: sketch.guarantee_gaps(sketch.SketchPlan((2, 2, 2), WIDE), (6, v, 8)),
        "dim for mode 2",
        (0,),
    ),
    "normals seed": (lambda v: sketch.normals(v, 0, 1), "seed", (-1, 2**64)),
    "normals stream id": (lambda v: sketch.normals(1, v, 1), "stream id", (-1, 2**64)),
    "normals": (lambda v: sketch.normals(1, 0, v), "variate count", (-1,)),
    "philox_rng seed": (lambda v: sketch.philox_rng(v, 0), "seed", (-1, 2**64)),
    "philox_rng stream id": (lambda v: sketch.philox_rng(0, v), "stream id", (-1, 2**64)),
    "SparseTensor dims": (
        lambda v: core.SparseTensor((v, 7), [[0, 0]], [1.0]), "dim for mode 1", (0,)
    ),
    "accumulate_sparse dims": (
        lambda v: core.accumulate_sparse((6, v), [[0, 0]], [1.0]), "dim for mode 2", (0,)
    ),
    "fold dims": (lambda v: core.fold(np.zeros((6, 56)), 1, (6, 7, v)), "dim for mode 3", (0,)),
    "gen_reciprocal_sum dims": (
        lambda v: generators.gen_reciprocal_sum((v, 6, 6)), "dim for mode 1", (0,)
    ),
    "gen_log_reciprocal dims": (
        lambda v: generators.gen_log_reciprocal((6, 6, v)), "dim for mode 3", (0,)
    ),
    "gen_sparse_outer i_dim": (lambda v: generators.gen_sparse_outer(v), "i_dim", (0,)),
    "gen_sparse_outer seed": (
        lambda v: generators.gen_sparse_outer(6, seed=v), "seed", (-1, 2**64)
    ),
    "gen_sparse_outer order": (lambda v: generators.gen_sparse_outer(6, order=v), "order", (0,)),
    "gen_random_sparse dims": (
        lambda v: generators.gen_random_sparse((6, v, 6), 10), "dim for mode 2", (0,)
    ),
    "gen_random_sparse nnz": (
        lambda v: generators.gen_random_sparse((6, 6, 6), v), "nnz", (-1, 217)
    ),
    "gen_random_sparse seed": (
        lambda v: generators.gen_random_sparse((6, 6, 6), 10, seed=v), "seed", (-1, 2**64)
    ),
    "gen_tucker_noise dims": (
        lambda v: generators.gen_tucker_noise(generators.NoisySpec((2, 2, 2), 20.0), (6, v, 6)),
        "dim for mode 2",
        (0,),
    ),
    "gen_tucker_noise core dims": (
        lambda v: generators.gen_tucker_noise(generators.NoisySpec((v, 2, 2), 20.0), (6, 6, 6)),
        "core dim for mode 1",
        (0, 7),
    ),
    "gen_tucker_noise seed": (
        lambda v: generators.gen_tucker_noise(generators.NoisySpec((2, 2, 2), 20.0, v), (6,) * 3),
        "seed",
        (-1, 2**64),
    ),
    "generate dims": (
        lambda v: generators.generate("reciprocal_sum", (6, 6, v)), "dim for mode 3", (0,)
    ),
    "generate nnz": (
        lambda v: generators.generate("random_sparse", (6, 6, 6), nnz=v), "nnz", (-1,)
    ),
    "generate seed": (
        lambda v: generators.generate("random_sparse", (6, 6, 6), v, 10), "seed", (-1, 2**64)
    ),
    "probe_bound trials": (
        lambda v: bench.probe_bound(A678, sketch.default_plan((6, 7, 8), (2, 2, 2)), v),
        "trials",
        (0,),
    ),
    "delta_tail k": (lambda v: linalg.delta_tail([3.0, 2.0, 1.0], v), "tail index", (0,)),
    "fixed_rank_basis mu": (lambda v: linalg.fixed_rank_basis(A678[0], v), "basis width", (0, 8)),
    "oracle_floor rank": (
        lambda v: bench.oracle_floor(bench.mode_singular_values(A678), (2, 2, v)),
        "target rank",
        (0,),
    ),
    "gaussian_matrix rows": (lambda v: sketch.gaussian_matrix(1, 0, v, 2), "rows", (-1,)),
    "gaussian_matrix cols": (lambda v: sketch.gaussian_matrix(1, 0, 2, v), "cols", (-1,)),
    **{
        f"{fn.__name__} lprime": (lambda v, fn=fn: fn(A678, 1, v, 1), "sketch width", (0,))
        for fn in (sketch.sketch_full_gaussian, sketch.sketch_khatri_rao)
    },
    # a mode is one of 1..N
    "mode_product mode": (lambda v: core.mode_product(A678, v, np.ones((2, 6))), "mode", (0, 4)),
    "unfold mode": (lambda v: core.unfold(A678, v), "mode", (0, 4)),
    "fold mode": (lambda v: core.fold(np.zeros((6, 56)), v, (6, 7, 8)), "mode", (0, 4)),
    "unfold_csr mode": (
        lambda v: core.SparseTensor((6, 7, 8), [[0, 0, 0]], [1.0]).unfold_csr(v), "mode", (0, 4)
    ),
    "sketch_mode n": (
        lambda v: sketch.sketch_mode(A678, v, sketch.default_plan((6, 7, 8), (2, 2, 2))),
        "mode",
        (0, 4),
    ),
    **{
        f"{fn.__name__} n": (
            lambda v, fn=fn: fn(A678, v, 3, 1), "mode", (0, 4)
        )
        for fn in (sketch.sketch_full_gaussian, sketch.sketch_khatri_rao)
    },
}


@pytest.mark.parametrize(
    "entry, value",
    [(e, v) for e, (_, _, bad) in COUNT_ENTRIES.items() for v in (2.7, True, "2") + bad],
)
def test_counts_are_refused_by_name_not_truncated(entry, value):
    call, names, _ = COUNT_ENTRIES[entry]
    with pytest.raises(ValueError, match=names):
        call(value)


# ---- one entry per mode ----

NOT_PER_MODE = (5, 2.5, None, "22", {1: 2}, np.array(5))
# entry -> (call taking a per-mode argument v, what the error names, reprs of
# the values it takes: None for its default, one int for every mode)
PER_MODE_ENTRIES = {
    **{
        f"decompose {alg} target_rank": (
            lambda v, alg=alg: ts.decompose(A678, alg, v), "target rank", ""
        )
        for alg in ts.ALGORITHMS
    },
    **{
        f"decompose {alg} lprime": (
            lambda v, alg=alg: ts.decompose(A678, alg, (2, 2, 2), lprime=v), "sketch width",
            "None 5",
        )
        for alg in ts.ALGORITHMS
    },
    **{
        f"{fn.__name__} lprime": (
            lambda v, fn=fn: fn(A678, (2, 2, 2), lprime=v), "sketch width", "None 5"
        )
        for fn in (ts.ran_tucker, ts.kr_tucker)
    },
    "default_plan dims": (lambda v: sketch.default_plan(v, (2, 2, 2)), "dims", ""),
    "default_plan target_rank": (
        lambda v: sketch.default_plan((6, 7, 8), v), "target rank", ""
    ),
    "guarantee_gaps dims": (
        lambda v: sketch.guarantee_gaps(sketch.SketchPlan((2, 2, 2), WIDE), v), "dims", ""
    ),
    "SketchPlan target_rank": (lambda v: sketch.SketchPlan(v, WIDE), "target rank", ""),
    "SketchPlan sketch dims": (
        lambda v: sketch.SketchPlan((2, 2, 2), {**WIDE, 2: v}), "sketch dims for mode 2", ""
    ),
    "SparseTensor dims": (lambda v: core.SparseTensor(v, [[0, 0]], [1.0]), "dims", ""),
    "accumulate_sparse dims": (
        lambda v: core.accumulate_sparse(v, [[0, 0]], [1.0]), "dims", ""
    ),
    "fold dims": (lambda v: core.fold(np.zeros((6, 56)), 1, v), "dims", ""),
    "gen_reciprocal_sum dims": (lambda v: generators.gen_reciprocal_sum(v), "dims", ""),
    "gen_log_reciprocal dims": (lambda v: generators.gen_log_reciprocal(v), "dims", ""),
    "gen_random_sparse dims": (lambda v: generators.gen_random_sparse(v, 10), "dims", ""),
    "gen_sparse_outer densities": (
        lambda v: generators.gen_sparse_outer(6, densities=v), "densities", "None"
    ),
    "gen_tucker_noise dims": (
        lambda v: generators.gen_tucker_noise(generators.NoisySpec((2, 2, 2), 20.0), v),
        "dims",
        "",
    ),
    "gen_tucker_noise core dims": (
        lambda v: generators.gen_tucker_noise(generators.NoisySpec(v, 20.0), (6, 6, 6)),
        "core dims",
        "",
    ),
    "generate dims": (lambda v: generators.generate("reciprocal_sum", v), "dims", ""),
    "generate core dims": (
        lambda v: generators.generate("tucker_noise", (6, 6, 6), core_dims=v), "core dims", ""
    ),
    "oracle_floor target_rank": (
        lambda v: bench.oracle_floor(bench.mode_singular_values(A678), v), "target rank", ""
    ),
}


@pytest.mark.parametrize("value", NOT_PER_MODE, ids=repr)
@pytest.mark.parametrize("entry", PER_MODE_ENTRIES)
def test_a_per_mode_argument_that_is_not_a_sequence_is_refused_by_name(entry, value):
    call, names, takes = PER_MODE_ENTRIES[entry]
    if repr(value) in takes.split():
        call(value)
    else:
        with pytest.raises(ValueError, match=names):
            call(value)


def test_lists_tuples_ranges_and_1d_arrays_are_per_mode():
    want = ts.decompose(A678, "tucker_svd_seq", (2, 3, 4)).core.tobytes()
    for rank in ([2, 3, 4], range(2, 5), np.array([2, 3, 4])):
        assert ts.decompose(A678, "tucker_svd_seq", rank).core.tobytes() == want
    for dims in ([6, 7, 8], range(6, 9), np.array([6, 7, 8]), A678.shape):
        assert generators.gen_reciprocal_sum(dims).shape == (6, 7, 8)
        assert sketch.default_plan(dims, np.array([2, 2, 2])).target_rank == (2, 2, 2)


# values past the ends of a count. 2**64 goes to the counts that size
# nothing: a key (a seed, a stream id) refuses it, as a dim or a mode does,
# and max_iters takes it. A count that sizes an array is not fed 2**64:
# numpy's MemoryError is the answer there, not pinned here. Where 7000 sizes
# the work of a probe or a generator, it is left out for time.
EDGE_COUNTS = (math.nan, math.inf, -math.inf, 1e308, 1e-310, -7000, 7000, 2**64)
SIZES_NOTHING = "seed|stream id|dim for|mode|max_iters"
COSTLY = ("probe_bound trials", "gen_sparse_outer i_dim", "gen_sparse_outer order")
# (entry, value) -> what the error names instead: a valid dim the matrix lacks
EDGE_NAMES = {("fold dims", 7000): "does not match dims"}


def _edge_cases():
    for entry, (_, names, _) in COUNT_ENTRIES.items():
        for v in EDGE_COUNTS:
            if v == 2**64 and not re.match(SIZES_NOTHING, names):
                continue
            if v == 7000 and entry in COSTLY:
                continue
            yield entry, v


@pytest.mark.parametrize("entry, value", list(_edge_cases()), ids=str)
def test_counts_run_or_are_refused_by_name_at_the_edges(entry, value):
    call, names, _ = COUNT_ENTRIES[entry]
    names = EDGE_NAMES.get((entry, value), names)
    try:
        call(value)
    except ValueError as exc:
        assert re.search(names, str(exc)), exc
    else:
        assert isinstance(value, int) and value >= 0


# a plan fits tensors of its own order: entry -> (call, what the error says)
PLAN3 = sketch.default_plan((10,) * 3, (2, 2, 2))
PLAN_ORDER_ENTRIES = {
    "sketch_mode order 4": (
        lambda: sketch.sketch_mode(np.ones((10,) * 4), 1, PLAN3), "plan of order 3 .* order 4"
    ),
    "sketch_mode order 2": (
        lambda: sketch.sketch_mode(np.ones((10,) * 2), 1, PLAN3), "plan of order 3 .* order 2"
    ),
    "sketch_mode sparse order 4": (
        lambda: sketch.sketch_mode(core.SparseTensor((10,) * 4, [[0] * 4], [1.0]), 4, PLAN3),
        "plan of order 3 .* order 4",
    ),
    "guarantee_gaps order 4": (
        lambda: sketch.guarantee_gaps(PLAN3, (10,) * 4), "plan of order 3 .* order 4"
    ),
    "guarantee_gaps order 2": (
        lambda: sketch.guarantee_gaps(PLAN3, (10, 10)), "plan of order 3 .* order 2"
    ),
    **{
        f"{fn.__name__} order 4": (
            lambda fn=fn: fn(np.ones((10,) * 4), PLAN3), "3 entries for an order-4 tensor"
        )
        for fn in (ts.tucker_svd_seq, ts.tucker_svd_batch)
    },
}


@pytest.mark.parametrize("entry", PLAN_ORDER_ENTRIES)
def test_a_plan_of_another_order_is_refused_by_name(entry):
    call, says = PLAN_ORDER_ENTRIES[entry]
    with pytest.raises(ValueError, match=says):
        call()


def _tol_holds(tol):
    fits = ts.hooi(A678, (2, 2, 2), max_iters=3, tol=tol).fit_history
    gains = np.diff((-math.inf,) + fits)
    # every sweep but the last gained at least tol; the last is the third or gained less
    assert not any(g < tol for g in gains[:-1])
    assert len(fits) == 3 or gains[-1] < tol


def _snr_holds(snr):
    noisy, beta = generators.gen_tucker_noise(generators.NoisySpec((2, 2, 2), snr, 1), (6, 6, 6))
    clean = generators.gen_tucker_noise(generators.NoisySpec((2, 2, 2), math.inf, 1), (6, 6, 6))[0]
    assert np.isfinite(noisy).all() and math.isfinite(beta)
    want = core.frob_norm(clean) * 10.0 ** (-snr / 20.0)
    assert core.frob_norm(noisy - clean) == pytest.approx(want, rel=1e-9, abs=0.0)


def _densities_hold(density):
    t = generators.gen_sparse_outer(8, densities=(density, 0.5, 0.5), seed=1)
    # a density of 1e-310 takes no index in mode 1, so no term survives
    assert t.dims == (8, 8, 8) and t.nnz == 0


def _cap_holds(cap):
    probe = bench.probe_bound(A678, sketch.default_plan((6, 7, 8), (2, 2, 2)), 2, cap=cap)
    assert not probe.degenerate
    assert probe.success_fraction == float(np.mean(probe.ratios < cap))


REAL_VALUES = (math.nan, math.inf, -math.inf, True, "3", 1e308, 7000, -7000, 1e-310)
# parameter: (call that checks its result, reprs of the values it must refuse)
REAL_ENTRIES = {
    "tol": (_tol_holds, "nan True '3'"),
    "snr_db": (_snr_holds, "nan -inf True '3' 1e+308 7000 -7000"),
    "densities": (_densities_hold, "nan inf -inf True '3' 1e+308 7000 -7000"),
    "cap": (_cap_holds, "nan -inf True '3' -7000"),
}


@pytest.mark.parametrize("value", REAL_VALUES, ids=repr)
@pytest.mark.parametrize("name", REAL_ENTRIES)
def test_real_parameters_run_correctly_or_are_refused_by_name(name, value):
    check, refused = REAL_ENTRIES[name]
    if repr(value) in refused.split():
        with pytest.raises(ValueError, match=name):
            check(value)
    else:
        check(value)


def test_numpy_integers_are_counts():
    i64 = np.int64
    dims = tuple(i64(d) for d in (6, 7, 8))
    assert generators.gen_reciprocal_sum(dims).tobytes() == generators.gen_reciprocal_sum(
        (6, 7, 8)).tobytes()
    for alg in ts.ALGORITHMS:
        got = ts.decompose(A678, alg, (2, 2, 2), seed=i64(3), oversampling=i64(4),
                           max_iters=i64(2))
        want = ts.decompose(A678, alg, (2, 2, 2), seed=3, oversampling=4, max_iters=2)
        assert got.core.tobytes() == want.core.tobytes()
    want = sketch.normals(1, 515, 5).tobytes()
    assert sketch.normals(i64(1), i64(515), i64(5)).tobytes() == want
    sparse = generators.gen_random_sparse(dims, i64(10), seed=i64(1))
    assert sparse.dims == (6, 7, 8) and sparse.nnz == 10
    assert core.SparseTensor(dims, sparse.coords, sparse.values).dims == (6, 7, 8)
    plan = sketch.default_plan(A678.shape, (2, 2, 2), i64(3), i64(4))
    assert plan.sketch_dims == sketch.default_plan(A678.shape, (2, 2, 2), 3).sketch_dims
    assert plan.seed == 4
    assert bench.probe_bound(A678, plan, i64(2)).trials == 2
