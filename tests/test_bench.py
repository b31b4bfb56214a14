"""Benchmark harness tests: config parsing, suite runs, probe, plots."""

import csv
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import tuckersketch as ts
from tuckersketch import bench
from tuckersketch.sketch import default_plan

SMALL_CONFIG = """
# comment lines and blanks are fine

families = reciprocal_sum, random_sparse
algorithms = tucker_svd_seq, truncated_hosvd
ranks = 3, 4
seeds = 0, 1, 2
dims = 12 12 12
nnz = 80
timing_repeats = 1
"""


def test_parse_config_fields():
    cfg = ts.parse_config(SMALL_CONFIG)
    assert cfg.families == ("reciprocal_sum", "random_sparse")
    assert cfg.algorithms == ("tucker_svd_seq", "truncated_hosvd")
    assert cfg.ranks == (3, 4)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.dims == (12, 12, 12)
    assert cfg.nnz == 80
    assert cfg.timing_repeats == 1
    # defaults
    assert cfg.oversampling == 10
    assert cfg.checks is True
    assert cfg.family_seed == 0


def test_parse_config_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown config field 'colour'"):
        ts.parse_config(SMALL_CONFIG + "\ncolour = red\n")


def test_parse_config_rejects_missing_required():
    with pytest.raises(ValueError, match="families"):
        ts.parse_config("algorithms = hooi\nranks = 2\nseeds = 0\ndims = 8 8 8\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ValueError, match="timing_repeats"):
        ts.parse_config(SMALL_CONFIG + "\ntiming_repeats = soon\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        ts.parse_config("families reciprocal_sum\n")


@pytest.mark.parametrize("line", [
    "ranks = 2, x",
    "dims = 8 8 eight",
    "snr_db = 10, loud",
    "densities = 0.1 ; 0.2",
    "checks = yes",
])
def test_parse_config_names_the_field_of_a_bad_value(line):
    key, _, val = (part.strip() for part in line.partition("="))
    message = f"config field {key!r}: bad value {val!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ts.parse_config(SMALL_CONFIG + line + "\n")


def test_config_rejects_unknown_names():
    with pytest.raises(ValueError, match="valid names"):
        ts.parse_config(SMALL_CONFIG.replace("reciprocal_sum", "cauchy"))
    with pytest.raises(ValueError, match="valid names"):
        ts.parse_config(SMALL_CONFIG.replace("truncated_hosvd", "st_hosvd"))


def test_config_requires_core_dims_for_noise_family():
    text = SMALL_CONFIG.replace("reciprocal_sum", "tucker_noise")
    with pytest.raises(ValueError, match="core_dims"):
        ts.parse_config(text)
    cfg = ts.parse_config(text + "\ncore_dims = 3 3 3\nsnr_db = 10\n")
    assert cfg.core_dims == (3, 3, 3)


def test_run_suite_record_grid():
    cfg = ts.parse_config(SMALL_CONFIG)
    result = ts.run_suite(cfg)
    # 2 families x 2 ranks x 2 algorithms x 3 seeds
    assert len(result.records) == 24
    assert result.violations == []
    for r in result.records:
        assert r.algorithm in cfg.algorithms
        assert r.p in cfg.ranks
        assert 0.0 <= r.rlne
        assert r.fit == pytest.approx(1.0 - r.rlne, abs=1e-12)
        assert r.wall_time_s > 0


def test_run_suite_noise_family_expands_snr():
    cfg = ts.parse_config(
        "families = tucker_noise\nalgorithms = tucker_svd_seq\nranks = 3\n"
        "seeds = 0\ndims = 10 10 10\ncore_dims = 3 3 3\nsnr_db = 0, 20\n"
        "timing_repeats = 1\n"
    )
    result = ts.run_suite(cfg)
    assert len(result.records) == 2
    assert sorted(r.extra for r in result.records) == ["snr_db=0", "snr_db=20"]


def test_run_suite_rlne_deterministic_across_runs():
    cfg = ts.parse_config(SMALL_CONFIG)
    a = ts.run_suite(cfg)
    b = ts.run_suite(cfg)
    for ra, rb in zip(a.records, b.records):
        assert (ra.family, ra.algorithm, ra.p, ra.seed) == (rb.family, rb.algorithm, rb.p, rb.seed)
        assert ra.rlne == rb.rlne  # bitwise


def test_deterministic_algorithms_ignore_seed():
    cfg = ts.parse_config(SMALL_CONFIG)
    result = ts.run_suite(cfg)
    for fam in ("reciprocal_sum", "random_sparse"):
        for p in (3, 4):
            vals = {
                r.rlne
                for r in result.records
                if r.family == fam and r.p == p and r.algorithm == "truncated_hosvd"
            }
            assert len(vals) == 1


def test_records_csv_roundtrip(tmp_path):
    cfg = ts.parse_config(SMALL_CONFIG)
    records = ts.run_suite(cfg).records
    path = tmp_path / "rec.csv"
    ts.write_records_csv(records, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "family,dims,algorithm,P,seed,rlne,fit,wall_time_s,extra"
    back = ts.read_records_csv(path)
    assert len(back) == len(records)
    for ra, rb in zip(records, back):
        assert ra.rlne == rb.rlne
        assert ra.dims == rb.dims
        assert ra.extra == rb.extra


ROW = "reciprocal_sum,12x12x12,hooi,3,0,0.25,0.75,0.01,"
HEADER = ",".join(bench.CSV_HEADER)


@pytest.mark.parametrize("text, message", [
    ("a,b,c\n", "line 1: unexpected CSV header ('a', 'b', 'c')"),
    ("", "line 1: unexpected CSV header ()"),
    (f"\n{HEADER}\n{ROW}\n", "line 1: unexpected CSV header ()"),
    (f"{HEADER}\nreciprocal_sum,12x12x12,hooi\n", "line 2: expected 9 fields, got 3"),
    (f"{HEADER}\n{ROW},more\n", "line 2: expected 9 fields, got 10"),
    (f"{HEADER}\n{ROW}\n\n{ROW.replace(',3,', ',three,')}\n",
     "line 4: invalid literal for int() with base 10: 'three'"),
    (f"{HEADER}\n{ROW.replace('12x12x12', '12x12')}\n{ROW.replace('0.25', 'low')}\n",
     "line 3: could not convert string to float: 'low'"),
    (f"{HEADER}\n{ROW.replace('12x12x12', '12xx12')}\n",
     "line 2: invalid literal for int() with base 10: ''"),
], ids=["wrong-header", "empty", "blank-first-line", "short-row", "long-row",
        "bad-P-after-blank", "bad-rlne", "bad-dims"])
def test_read_records_csv_names_the_file_and_line_of_a_bad_record(tmp_path, text, message):
    path = tmp_path / "rec.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path} {message}')}$"):
        ts.read_records_csv(path)


def test_read_records_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(f"{HEADER}\n\n{ROW}\n\n{ROW.replace(',0,0.25', ',1,0.5')}\n\n")
    records = ts.read_records_csv(path)
    assert [(r.seed, r.rlne) for r in records] == [(0, 0.25), (1, 0.5)]
    assert records[0] == bench.BenchRecord("reciprocal_sum", (12, 12, 12), "hooi", 3, 0,
                                           0.25, 0.75, 0.01, "")


def test_oracle_floor_matches_delta_tail():
    a = ts.gen_reciprocal_sum((10, 10, 10))
    svals = bench.mode_singular_values(a)
    floor = ts.oracle_floor(svals, (2, 3, 4))
    expected = max(
        ts.delta_tail(svals[0], 3), ts.delta_tail(svals[1], 4), ts.delta_tail(svals[2], 5)
    )
    assert floor == expected


def test_sparse_mode_singular_values_skip_the_zero_columns():
    # a 100 x 10^4 unfolding with at most 500 nonzero columns: 8 MB dense
    s = ts.gen_random_sparse((100, 100, 100), 500, seed=2)
    dense_bytes = 100 * 100**2 * 8
    s.unfold_csr(1)  # imports scipy.sparse outside the trace
    tracemalloc.start()
    try:
        svals = bench.mode_singular_values(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 8
    for got, ref in zip(svals, bench.mode_singular_values(s.densify())):
        assert got.shape == ref.shape == (100,)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * ref[0])


def test_check_inequality13_reports():
    a = ts.gen_log_reciprocal((10, 10, 10))
    apx = ts.decompose(a, "tucker_svd_seq", (3, 3, 3), seed=0)
    report = ts.check_inequality13(a, apx)
    assert report["ok"]
    assert len(report["rhs_terms"]) == 3
    assert report["lhs"] <= sum(report["rhs_terms"]) + 1e-8
    # lhs is the squared reconstruction error of the projected approximation
    err2 = (ts.rlne(a, apx) * ts.frob_norm(a)) ** 2
    assert report["lhs"] == pytest.approx(err2, rel=1e-6, abs=1e-12)


def test_check_inequality13_sparse_input():
    s = ts.gen_random_sparse((10, 10, 10), 60, seed=5)
    apx = ts.decompose(s, "tucker_svd_batch", (3, 3, 3), seed=1)
    assert ts.check_inequality13(s, apx)["ok"]


def test_probe_bound_reports_distribution():
    a = ts.gen_reciprocal_sum((15, 15, 15))
    plan = default_plan((15, 15, 15), (3, 3, 3), oversampling=5, seed=0)
    probe = ts.probe_bound(a, plan, trials=8, cap=10.0)
    assert probe.trials == 8
    assert not probe.degenerate
    assert probe.errors.shape == (8,)
    assert np.all(probe.ratios > 0)
    assert 0.0 <= probe.success_fraction <= 1.0
    # seeds are plan.seed .. plan.seed+trials-1: reproduce one trial by hand
    from dataclasses import replace

    apx = ts.tucker_svd_seq(a, replace(plan, seed=plan.seed + 3))
    assert probe.errors[3] == pytest.approx(ts.rlne(a, apx) * ts.frob_norm(a), rel=1e-12)


def test_probe_bound_degenerate_on_exact_rank():
    clean, _ = ts.gen_tucker_noise(ts.NoisySpec((2, 2, 2), float("inf"), seed=1), (10, 10, 10))
    plan = default_plan((10, 10, 10), (2, 2, 2), oversampling=5, seed=0)
    probe = ts.probe_bound(clean, plan, trials=5)
    assert probe.degenerate
    assert np.all(np.isnan(probe.ratios))
    assert probe.success_fraction == 1.0


def test_probe_bound_refuses_an_error_where_no_tail_energy_is_left(monkeypatch):
    # at full rank every tail energy is exactly 0, so any error is a fault
    a = ts.gen_reciprocal_sum((4, 4, 4))
    plan = default_plan((4, 4, 4), (4, 4, 4), oversampling=0)
    monkeypatch.setattr(bench, "tucker_svd_seq", lambda a, plan: ts.truncated_hosvd(a, (1, 1, 1)))
    with pytest.raises(ArithmeticError, match="zero tail energy with nonzero decomposition error"):
        bench.probe_bound(a, plan, trials=2)


def test_probe_bound_validates_trials():
    a = ts.gen_reciprocal_sum((8, 8, 8))
    plan = default_plan((8, 8, 8), (2, 2, 2), oversampling=2, seed=0)
    with pytest.raises(ValueError):
        ts.probe_bound(a, plan, trials=0)


def test_emit_plots_writes_series(tmp_path):
    cfg = ts.parse_config(SMALL_CONFIG)
    records = ts.run_suite(cfg).records
    out = tmp_path / "plots"
    written = ts.emit_plots(records, out)
    names = sorted(p.split("/")[-1] for p in map(str, written))
    assert "reciprocal_sum_rlne.csv" in names
    assert "reciprocal_sum_rlne.svg" in names
    assert "random_sparse_time.csv" in names
    # csv series parse and cover both algorithms at both ranks
    with open(out / "reciprocal_sum_rlne.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["algorithm", "P", "median_rlne"]
    assert len(rows) == 1 + 2 * 2
    svg = (out / "reciprocal_sum_rlne.svg").read_text()
    assert svg.startswith("<svg ")
    assert "polyline" in svg


SVG = "{http://www.w3.org/2000/svg}"


def _record(algorithm, p, rlne, wall_time_s):
    return bench.BenchRecord("reciprocal_sum", (8, 8, 8), algorithm, p, 0, rlne, 1.0 - rlne,
                             wall_time_s)


@pytest.mark.parametrize("records", [
    # one rank: the P axis has a single value
    [_record("hooi", 3, 0.1, 0.02), _record("tucker_svd_seq", 3, 0.2, 0.01)],
    # two ranks, every value equal: flat series
    [_record("hooi", 2, 0.1, 0.02), _record("hooi", 3, 0.1, 0.02)],
], ids=["single-P", "flat"])
def test_emit_plots_draws_a_single_rank_and_a_flat_series(tmp_path, records):
    svgs = [p for p in ts.emit_plots(records, tmp_path) if p.endswith(".svg")]
    assert len(svgs) == 2
    algorithms = sorted({r.algorithm for r in records})
    for path in svgs:
        root = ET.parse(path).getroot()
        assert root.tag == f"{SVG}svg"
        width, height = float(root.get("width")), float(root.get("height"))
        lines = root.findall(f"{SVG}polyline")
        assert len(lines) == len(algorithms)
        for line in lines:
            points = [tuple(map(float, xy.split(","))) for xy in line.get("points").split()]
            assert len(points) == len({r.p for r in records})
            assert all(0 <= x <= width and 0 <= y <= height for x, y in points)
        labels = [t.text for t in root.findall(f"{SVG}text")]
        assert all(alg in labels for alg in algorithms)
        assert all(np.isfinite(float(t)) for t in labels[1:] if t not in algorithms)


def test_family_instances_rejects_non_cubic_sparse_outer():
    cfg = ts.parse_config(
        "families = sparse_outer\nalgorithms = tucker_svd_seq\nranks = 2\n"
        "seeds = 0\ndims = 8 9 10\ntiming_repeats = 1\n"
    )
    with pytest.raises(ValueError, match="cubic"):
        ts.run_suite(cfg)
