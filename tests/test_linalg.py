"""Matrix routine tests against an independent Gram-eigendecomposition oracle.

The frozen singular values and left vectors below were computed from
eigendecompositions of A^T A and A A^T (not from any SVD routine), with the
same sign convention the package promises: the largest-magnitude entry of
each left singular vector is positive.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersketch import linalg

A_FIXED = np.array(
    [
        [2.0, -1.0, 3.0],
        [0.0, 4.0, 1.0],
        [-2.0, 1.0, 0.0],
        [1.0, 1.0, -2.0],
    ]
)

# from the Gram-route oracle
SIGMA_FIXED = (4.536084501488366, 3.8756755179660285, 2.5304301363198705)
U_FIXED = np.array(
    [
        [-0.5713279325773877, 0.6929980661137696, 0.10451178175612993],
        [0.6950528226592922, 0.6823159162873631, 0.10206273359052766],
        [0.3447051514428515, -0.050745998116835514, -0.6269006420299718],
        [0.2677019345073161, -0.22720808616472774, 0.765281693828225],
    ]
)


def test_svd_matches_gram_oracle():
    u, s, vt = linalg.svd(A_FIXED)
    np.testing.assert_allclose(s, SIGMA_FIXED, atol=1e-10)
    np.testing.assert_allclose(u[:, :3], U_FIXED, atol=1e-9)
    np.testing.assert_allclose((u * s) @ vt, A_FIXED, atol=1e-10)


def test_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(0)
    for shape in [(6, 4), (4, 6), (5, 5)]:
        a = rng.standard_normal(shape)
        u, s, vt = linalg.svd(a)
        k = min(shape)
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-10)
        np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-12)
        assert np.all(np.diff(s) <= 1e-14)


def test_svd_sign_convention():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.standard_normal((7, 5))
        u, _, _ = linalg.svd(a)
        for j in range(u.shape[1]):
            assert u[np.argmax(np.abs(u[:, j])), j] > 0


def test_delta_tail_values():
    s = np.array([3.0, 2.0, 1.0])
    assert linalg.delta_tail(s, 1) == pytest.approx(np.sqrt(14.0), abs=1e-14)
    assert linalg.delta_tail(s, 2) == pytest.approx(np.sqrt(5.0), abs=1e-14)
    assert linalg.delta_tail(s, 3) == pytest.approx(1.0, abs=1e-14)
    assert linalg.delta_tail(s, 4) == 0.0
    assert linalg.delta_tail(s, 10) == 0.0


def test_delta_tail_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.delta_tail(np.array([1.0, 2.0]), 1)  # increasing
    with pytest.raises(ValueError):
        linalg.delta_tail(np.array([2.0, 1.0]), 0)  # k is 1-based


def test_numerical_rank_threshold():
    # relative threshold 1e-12 * sigma_1
    assert linalg.numerical_rank(np.array([1.0, 1e-13, 1e-14])) == 1
    assert linalg.numerical_rank(np.array([1.0, 1e-11])) == 2
    assert linalg.numerical_rank(np.array([0.0, 0.0])) == 0
    assert linalg.numerical_rank(np.array([5.0, 4.0, 3.0])) == 3


def test_fixed_rank_basis_properties():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 12))
    q, rank = linalg.fixed_rank_basis(a, 3)
    assert q.shape == (8, 3)
    assert rank == 3
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
    # q is the leading left singular vectors, signs as svd pins them
    assert q.tobytes() == linalg.svd(a)[0][:, :3].tobytes()
    u = np.linalg.svd(a)[0][:, :3]
    np.testing.assert_allclose(q @ q.T, u @ u.T, atol=1e-10)


def test_fixed_rank_basis_reports_deficiency():
    rank1 = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 7.0))
    q, rank = linalg.fixed_rank_basis(rank1, 3)
    assert rank == 1
    assert q.shape == (4, 3)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)
    # the first column spans the range; the other two complete it
    np.testing.assert_allclose(q[:, :1] @ (q[:, :1].T @ rank1), rank1, atol=1e-10)


def test_orthonormal_basis_qr_spans_range():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((9, 5))
    q, rank = linalg.qr_basis_with_rank(a)
    assert rank == 5
    np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)
    # projection onto span(q) reproduces a
    np.testing.assert_allclose(q @ (q.T @ a), a, atol=1e-10)


def test_qr_basis_with_rank_detects_deficiency():
    rng = np.random.default_rng(15)
    base = rng.standard_normal((10, 2))
    a = base @ rng.standard_normal((2, 6))  # rank 2, 6 columns
    q, rank = linalg.qr_basis_with_rank(a)  # reports, never warns
    assert rank == 2
    assert q.shape == (10, 6)
    np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-12)


def test_sketch_preserves_singular_value_bounds():
    # sigma_k(A G) <= ||G||_2 * sigma_k(A) for any G
    rng = np.random.default_rng(33)
    for _ in range(20):
        a = rng.standard_normal((6, 40))
        g = rng.standard_normal((40, 9))
        sa = np.linalg.svd(a, compute_uv=False)
        sag = np.linalg.svd(a @ g, compute_uv=False)
        gnorm = np.linalg.svd(g, compute_uv=False)[0]
        for k in range(len(sag)):
            assert sag[k] <= gnorm * sa[k] + 1e-9


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_factorizations_reject_non_finite_input(value):
    a = np.arange(12.0).reshape(4, 3)
    a[1, 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        linalg.svd(a)
    with pytest.raises(ValueError, match="non-finite"):
        linalg.qr_basis_with_rank(a)
    with pytest.raises(ValueError, match="non-finite"):
        linalg.left_singular(a, 2)


@st.composite
def left_singular_cases(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 40))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rank-deficient products, with a spread of singular values
    a = (rng.standard_normal((rows, rank)) * np.logspace(0, -draw(st.integers(0, 8)), rank)
         ) @ rng.standard_normal((rank, cols))
    width = draw(st.integers(1, rows))
    return a * draw(st.sampled_from([1.0, 1e-150, 1e150])), width


@settings(max_examples=300, deadline=None)
@given(left_singular_cases())
def test_left_singular_matches_the_full_svd(case):
    a, width = case
    u, s = linalg.left_singular(a, width)
    u_ref, s_ref, _ = np.linalg.svd(a)
    k = min(a.shape)
    assert u.shape == (a.shape[0], width)
    assert s.shape == (k,)
    s1 = s_ref[0] if k else 0.0
    assert np.all(np.abs(s - s_ref) <= 1e-12 * s1)
    np.testing.assert_allclose(u.T @ u, np.eye(width), atol=1e-12)
    idx = np.argmax(np.abs(u), axis=0)
    assert np.all(u[idx, np.arange(width)] > 0)
    # the leading j vectors span the SVD's where sigma_j stands clear of
    # sigma_{j+1} (a zero beyond the last singular value)
    nxt = np.append(s_ref[1:], 0.0)
    for j in range(1, min(width, k) + 1):
        gap = s_ref[j - 1] - nxt[j - 1]
        if gap > 1e-4 * s1:
            proj = u[:, :j] @ u[:, :j].T - u_ref[:, :j] @ u_ref[:, :j].T
            assert np.abs(proj).max() <= 1e-9
    # columns past the rank are orthogonal to the range
    rank = linalg.numerical_rank(s)
    assert np.abs(u[:, rank:].T @ a).max(initial=0.0) <= 1e-11 * s1


def test_left_singular_completes_a_basis_wider_than_the_rank():
    a = np.arange(1.0, 21.0).reshape(10, 2)
    u, s = linalg.left_singular(a, 8)
    assert u.shape == (10, 8) and s.shape == (2,)
    np.testing.assert_allclose(u.T @ u, np.eye(8), atol=1e-12)
    np.testing.assert_allclose(u[:, :2] @ (u[:, :2].T @ a), a, atol=1e-12)
    with pytest.raises(ValueError, match="basis width"):
        linalg.left_singular(a, 11)


@pytest.mark.parametrize("cols, width", [(2, 3), (1, 2)])
def test_left_singular_completes_in_rows_times_width_memory(cols, width):
    # a rows x rows array here would be 128 MB
    rows = 4000
    a = np.random.default_rng(cols).standard_normal((rows, cols))
    tracemalloc.start()
    try:
        u, s = linalg.left_singular(a, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * u.nbytes
    assert u.shape == (rows, width) and s.shape == (cols,)
    np.testing.assert_allclose(u.T @ u, np.eye(width), atol=1e-12)
    np.testing.assert_allclose(u[:, :cols] @ (u[:, :cols].T @ a), a, atol=1e-12)
    assert np.abs(u[:, cols:].T @ a).max() <= 1e-12 * s[0]


# ---- the TSQR of left_singular ----


def qr_shapes(monkeypatch):
    """Shapes of every ``np.linalg.qr`` input from here on."""
    shapes, qr = [], np.linalg.qr

    def spy(m, mode="reduced"):
        shapes.append(m.shape)
        return qr(m, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return shapes


def graded(rows, cols, rank, seed):
    """``rows x cols`` of the given rank, singular values 1 down to 1e-3."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    return (u * np.logspace(0, -3, rank)) @ v.T


def single_qr_left_singular(a, width):
    """``left_singular`` as one Householder QR of ``a.T``, no blocks."""
    r = np.linalg.qr(a.T, mode="r")
    u, s, _ = np.linalg.svd(r.T, full_matrices=False)
    u = u[:, :width]
    return u * linalg.column_sign_flips(u), s


def assert_matches_the_svd(a, u, s, rank):
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    assert np.abs(s - s_ref).max() <= 1e-14 * s_ref[0]
    assert linalg.numerical_rank(s) == rank
    j = min(u.shape[1], rank)
    proj = u[:, :j] @ u[:, :j].T - u_ref[:, :j] @ u_ref[:, :j].T
    assert np.abs(proj).max() <= 1e-10
    np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("width", [1, 2, 5, 12, 31, 40, 64])
def test_left_singular_factors_narrow_matrices_in_blocks(monkeypatch, width, order):
    rows = linalg._BLOCK // width
    # three blocks and a ragged tail of 7 rows
    a = np.asarray(graded(width, 3 * rows + 7, width, seed=width), order=order)
    shapes = qr_shapes(monkeypatch)
    u, s = linalg.left_singular(a, min(width, 5))
    assert shapes[0] == (3, rows, width)
    assert shapes[-1] == (3 * width + 7, width)
    assert_matches_the_svd(a, u, s, width)


@pytest.mark.parametrize("width, cols, levels", [(16, 40000, 2), (64, 5000, 5)])
def test_left_singular_reduces_the_stacked_r_factors_again(monkeypatch, width, cols, levels):
    a = graded(width, cols, width, seed=cols)
    shapes = qr_shapes(monkeypatch)
    u, s = linalg.left_singular(a, 8)
    rows = linalg._BLOCK // width
    batched = [sh for sh in shapes if len(sh) == 3]
    assert len(batched) == levels and len(shapes) == levels + 1
    assert all(sh[1:] == (rows, width) and sh[0] >= 2 for sh in batched)
    assert shapes[-1][0] < 2 * rows
    assert_matches_the_svd(a, u, s, width)


def test_left_singular_blocks_a_rank_deficient_matrix(monkeypatch):
    a = graded(20, 3 * (linalg._BLOCK // 20) + 5, 7, seed=4)
    shapes = qr_shapes(monkeypatch)
    u, s = linalg.left_singular(a, 10)
    assert len(shapes[0]) == 3
    assert_matches_the_svd(a, u, s, 7)
    # the completion past the rank is orthogonal to the range
    assert np.abs(u[:, 7:].T @ a).max() <= 1e-12


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("width, cols", [(65, 3000), (100, 2000), (12, 1300)])
def test_left_singular_takes_one_qr_where_blocks_do_not_fit(monkeypatch, width, cols, order):
    # above 64 rows no block holds twice the width; 12 x 1300 has one block
    a = np.asarray(graded(width, cols, width, seed=cols), order=order)
    u_ref, s_ref = single_qr_left_singular(a, 6)
    shapes = qr_shapes(monkeypatch)
    u, s = linalg.left_singular(a, 6)
    assert shapes == [(cols, width)]
    assert u.tobytes() == u_ref.tobytes() and s.tobytes() == s_ref.tobytes()
