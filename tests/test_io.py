"""Serialization tests: exact round-trips and format validation."""

import os
import re

import numpy as np
import pytest

import tuckersketch as ts
from tuckersketch import tensor_io


def test_dense_roundtrip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5)) * 1e3
    t[0, 0, 0] = -0.1  # not exactly representable; repr must round-trip it
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    ts.write_tensor(t, p1)
    back = ts.read_tensor(p1)
    np.testing.assert_array_equal(back, t)
    ts.write_tensor(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sparse_roundtrip_is_byte_exact(tmp_path):
    s = ts.gen_random_sparse((6, 7, 8), 30, seed=1)
    p1 = tmp_path / "s.txt"
    p2 = tmp_path / "s2.txt"
    ts.write_tensor(s, p1)
    back = ts.read_tensor(p1)
    assert isinstance(back, ts.SparseTensor)
    assert back.dims == s.dims
    np.testing.assert_array_equal(back.coords, s.coords)
    np.testing.assert_array_equal(back.values, s.values)
    ts.write_tensor(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sparse_file_uses_one_based_indices(tmp_path):
    s = ts.SparseTensor((3, 3, 3), [[0, 1, 2]], [2.5])
    p = tmp_path / "s.txt"
    ts.write_tensor(s, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "sparse 3 1"
    assert lines[1] == "3 3 3"
    assert lines[2] == "1 2 3 2.5"


def test_dense_file_layout(tmp_path):
    t = np.arange(1.0, 9.0).reshape(2, 2, 2, order="F")
    p = tmp_path / "d.txt"
    ts.write_tensor(t, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "dense 3"
    assert lines[1] == "2 2 2"
    # values in first-mode-fastest order
    assert [float(x) for x in lines[2:]] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_read_tensor_order4(tmp_path):
    t = np.random.default_rng(2).standard_normal((2, 3, 2, 2))
    p = tmp_path / "t4.txt"
    ts.write_tensor(t, p)
    np.testing.assert_array_equal(ts.read_tensor(p), t)


def test_read_tensor_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("tensor 3\n2 2 2\n")
    with pytest.raises(ValueError, match="dense"):
        ts.read_tensor(p)


def test_read_tensor_rejects_short_value_list(tmp_path):
    p = tmp_path / "short.txt"
    p.write_text("dense 2\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        ts.read_tensor(p)


def test_read_tensor_rejects_trailing_content(tmp_path):
    p = tmp_path / "long.txt"
    p.write_text("dense 2\n2 2\n1.0\n2.0\n3.0\n4.0\n5.0\n")
    with pytest.raises(ValueError, match="trailing"):
        ts.read_tensor(p)


@pytest.mark.parametrize(
    "reader, text",
    [
        (ts.read_tensor, "dense 2\n1 2\n1.0\n2.0\n"),
        (ts.read_tensor, "sparse 1 1\n2\n1 5.0\n"),
        (ts.read_matrix, "1 2\n1.0\n2.0\n"),
    ],
    ids=["dense", "sparse", "matrix"],
)
def test_readers_reject_content_after_a_blank_line(tmp_path, reader, text):
    p = tmp_path / "t.txt"
    p.write_text(text + "\n \n")
    reader(p)  # trailing blank lines are fine
    p.write_text(text + "\n2 7.0\n")
    with pytest.raises(ValueError, match="trailing"):
        reader(p)


def test_read_tensor_rejects_non_integer_fields(tmp_path):
    p = tmp_path / "odd.txt"
    p.write_text("dense x\n2 2\n")
    with pytest.raises(ValueError, match="order"):
        ts.read_tensor(p)
    p.write_text("sparse 3 2.5\n2 2 2\n")
    with pytest.raises(ValueError, match="nnz"):
        ts.read_tensor(p)


def test_read_tensor_rejects_malformed_sparse_entry(tmp_path):
    p = tmp_path / "entry.txt"
    p.write_text("sparse 3 1\n3 3 3\n1 2 0.5\n")
    with pytest.raises(ValueError, match="entry 1"):
        ts.read_tensor(p)


@pytest.mark.parametrize(
    "text, where",
    [
        ("dense 2\n2 2\n1.0\nabc\n3.0\n4.0\n", ":4: expected a number, got 'abc'"),
        ("sparse 3 2\n3 3 3\n1 1 1 2.0\n1 x 1 1.0\n", ":4: entry 2 .* got '1 x 1 1.0'"),
        ("dense 2\n2 2\n1.0\n\n3.0\n4.0\n", ":4: expected a number, got ''"),
        ("sparse 3 1\n3 3 3\n1 1 1 x\n", ":3: entry 1 "),
        ("2 2\n1.0\n2.0\n3.0\nfour\n", ":5: expected a number, got 'four'"),
    ],
    ids=["dense", "sparse-index", "blank", "sparse-value", "matrix"],
)
def test_parse_errors_name_the_file_and_the_line(tmp_path, text, where):
    p = tmp_path / "t.txt"
    p.write_text(text)
    reader = ts.read_matrix if text[0].isdigit() else ts.read_tensor
    with pytest.raises(ValueError, match="^" + re.escape(str(p)) + where):
        reader(p)


def test_matrix_roundtrip(tmp_path):
    m = np.random.default_rng(5).standard_normal((4, 3))
    p = tmp_path / "m.txt"
    ts.write_matrix(m, p)
    np.testing.assert_array_equal(ts.read_matrix(p), m)
    assert p.read_text().splitlines()[0] == "4 3"


def test_save_and_load_approx(tmp_path):
    a = ts.gen_reciprocal_sum((8, 8, 8))
    apx = ts.decompose(a, "truncated_hosvd", (3, 3, 3))
    m = ts.metrics_for(a, apx, wall_time_s=0.5)
    out = tmp_path / "arch"
    ts.save_approx(apx, out, m)
    assert sorted(os.listdir(out)) == ["core", "factor_1", "factor_2", "factor_3", "metrics"]
    loaded, lm = ts.load_approx(out)
    np.testing.assert_array_equal(loaded.core, apx.core)
    for qa, qb in zip(loaded.factors, apx.factors):
        np.testing.assert_array_equal(qa, qb)
    assert lm.rlne == m.rlne
    assert lm.fit == m.fit
    assert lm.wall_time_s == 0.5


def test_load_approx_without_metrics(tmp_path):
    a = ts.gen_reciprocal_sum((6, 6, 6))
    apx = ts.decompose(a, "truncated_hosvd", (2, 2, 2))
    out = tmp_path / "arch"
    ts.save_approx(apx, out)
    loaded, lm = ts.load_approx(out)
    assert lm is None
    assert loaded.target_rank == (2, 2, 2)


def test_format_helper_roundtrips_extremes():
    for x in (1e-300, -1e300, 0.1, 1 / 3, 2**-52):
        assert float(tensor_io._fmt(x)) == x


def test_block_writer_matches_the_per_value_format(tmp_path, monkeypatch):
    # the old writer: one fh.write(_fmt(value) + "\n") per value
    values = [-0.0, 5e-324, 1e300, -1e300, 3.0, -7.0, 0.1, 1 / 3, np.nan, np.inf, -np.inf]
    a = np.array(values * 6).reshape(2, 3, 11)
    monkeypatch.setattr(tensor_io, "_BLOCK", 4)  # several blocks and a short last one
    tensor_io.write_tensor(a, tmp_path / "t")
    tensor_io.write_matrix(a.reshape(6, 11), tmp_path / "m")
    lines = [tensor_io._fmt(x) for x in a.ravel(order="F")]
    assert (tmp_path / "t").read_text() == "dense 3\n2 3 11\n" + "".join(x + "\n" for x in lines)
    lines = [tensor_io._fmt(x) for x in a.reshape(6, 11).ravel(order="C")]
    assert (tmp_path / "m").read_text() == "6 11\n" + "".join(x + "\n" for x in lines)
    assert "-0.0\n5e-324\n1e+300\n" in (tmp_path / "m").read_text()
    assert "nan\ninf\n-inf\n" in (tmp_path / "m").read_text()
