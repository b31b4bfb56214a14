"""Benchmark harness tests: config parsing, suite runs, probe, plots."""

import csv
import tracemalloc

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


def test_read_records_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="header"):
        ts.read_records_csv(path)


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


def test_family_instances_rejects_non_cubic_sparse_outer():
    cfg = ts.parse_config(
        "families = sparse_outer\nalgorithms = tucker_svd_seq\nranks = 2\n"
        "seeds = 0\ndims = 8 9 10\ntiming_repeats = 1\n"
    )
    with pytest.raises(ValueError, match="cubic"):
        ts.run_suite(cfg)
