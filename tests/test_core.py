"""Tensor primitive tests: unfold/fold maps, mode products, sparse kernels.

The 2x2x2 unfolding matrices below are frozen oracles worked out by hand from
the index map (column j enumerates the other modes ascending, earliest
fastest); everything else must stay consistent with them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersketch import core, sketch


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
        sparse_b = sketch.sketch_full_gaussian(s, n, 6, sketch.GaussianStream(2, n))
        dense_b = sketch.sketch_full_gaussian(d, n, 6, sketch.GaussianStream(2, n))
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
    layout = draw(st.sampled_from(["C", "F", "moveaxis", "slice", "sparse"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return dims, mode, rows, layout, seed


def tensor_in_layout(dims, layout, rng):
    if layout == "C":
        return rng.standard_normal(dims)
    if layout == "F":
        return np.asfortranarray(rng.standard_normal(dims))
    if layout == "moveaxis":
        return np.moveaxis(rng.standard_normal(dims[-1:] + dims[:-1]), 0, -1)
    if layout == "slice":
        return rng.standard_normal(tuple(2 * d for d in dims))[(slice(None, None, 2),) * len(dims)]
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
    assert out.flags.c_contiguous or out.flags.f_contiguous
    # relative to the size of the summed terms, so cancellation cannot fail it
    scale = np.linalg.norm(np.abs(b) @ np.abs(core.unfold(dense, mode)))
    assert np.linalg.norm(out - ref) <= 1e-13 * scale
    if not isinstance(t, core.SparseTensor):
        np.testing.assert_array_equal(t, dense)
