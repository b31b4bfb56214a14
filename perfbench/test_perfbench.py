"""Tests of the benchmark itself: tracing, checks and the launcher contract.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tuckersketch as ts  # noqa: E402
from tuckersketch import cli, core, sketch, tucker  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Identity of every name in every tuckersketch module and traced class."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "tuckersketch"]
    owners += [ts.SparseTensor, ts.TuckerApprox]
    return {(id(o), key): id(val) for o in owners for key, val in list(vars(o).items())}


def test_install_rebinds_every_importing_module_and_restore_undoes_it():
    before = _bindings()
    original = core.mode_product
    tracer = tracing.Tracer()
    with tracer.installed():
        for mod in (core, tucker, sketch, ts):
            assert mod.mode_product is not original
            assert mod.mode_product.__wrapped__ is original
        assert cli.decompose is tucker.decompose is ts.decompose
        assert ts.SparseTensor.densify.__wrapped__ is not None
        after_install = _bindings()
    assert after_install != before
    assert _bindings() == before
    assert core.mode_product is original


def test_restore_runs_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with tracing.Tracer().installed():
            ts.decompose(np.ones((3, 3, 3)), "tucker_svd_seq", (4, 1, 1))
    assert _bindings() == before


def test_traced_pass_leaves_outputs_unchanged_and_reports_every_layer_metric():
    wl = workloads.ApiWorkload("dense_small", seed=3)
    wl.cells = [c for c in wl.cells if c.tensor.endswith("@16x16x16x16")]
    plain = workloads.run_pass(wl)
    tracer = tracing.Tracer()
    tracer.pass_id = 0
    with tracer.installed():
        traced = workloads.run_pass(wl, tracer)
    assert [op.rlne for op in traced.ops] == [op.rlne for op in plain.ops]
    reference = {}
    assert workloads.check(plain, reference) == []
    assert workloads.check(traced, reference) == []  # fingerprints equal byte for byte

    names = {s[0] for s in tracer.spans}
    assert {"tucker.decompose", "tucker.rlne", "core.mode_product", "linalg.svd",
            "sketch.gaussian_matrix", "tucker.TuckerApprox.init"} <= names
    assert all(s[3] < i for i, s in enumerate(tracer.spans))  # parents come first
    metrics = tracing.layer_metrics(
        tracer.spans, {0: {"wall_s": traced.wall_s, "warnings": traced.warnings}})
    assert set(metrics) == set(tracing.PER_PASS)
    assert metrics["tucker.hooi.sweeps"] >= 1
    assert 0 < metrics["linalg.useful_ratio"] < 1
    assert metrics["linalg.svd.self_s"] > 0
    assert metrics["untraced.self_s"] >= 0


def test_traced_cli_writes_the_same_archive(tmp_path):
    tensor = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_reciprocal_sum((8, 7, 6)), tensor)

    def archive(out):
        assert cli.main(["decompose", str(tensor), "--algorithm", "tucker_svd_seq",
                         "--rank", "3", "--out", str(out)]) == 0
        return {f: (out / f).read_text() for f in ("core", "factor_1", "factor_2", "factor_3")}

    plain = archive(tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = archive(tmp_path / "traced")
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "tensor_io.read_tensor", "tensor_io.save_approx",
            "tucker.decompose", "tucker.rlne"} <= names


def test_check_fails_ops_on_cap_pythagoras_and_determinism():
    wl = workloads.ApiWorkload("dense_small", seed=0)
    wl.cells = wl.cells[:1]
    reference = {}
    assert workloads.check(workloads.run_pass(wl), reference) == []

    p = workloads.run_pass(wl)
    p.ops[0].cap = p.ops[0].rlne / 2
    assert "above the cap" in workloads.check(p, {})[0]

    p = workloads.run_pass(wl)
    p.ops[0].rlne = 0.01  # under the cap, but not what the core implies
    assert "Pythagoras" in workloads.check(p, {})[0]

    p = workloads.run_pass(wl)
    p.ops[0].output.core[0, 0, 0] += 1e-12
    assert "differ from the first pass" in workloads.check(p, reference)[0]


def test_dense_small_pass_ends_with_a_checked_cli_job(tmp_path):
    wl = workloads.build("dense_small", 0, str(tmp_path / "work"))
    api, cli_part = wl.parts
    api.cells = api.cells[:1]
    p = workloads.run_pass(wl)
    assert [op.id for op in p.ops] == [
        api.cells[0].id, "reciprocal_sum@30x30x30/gen",
        "reciprocal_sum@30x30x30/decompose/tucker_svd_seq/r5"]
    assert p.wall_s == pytest.approx(sum(p.op_s.values()))
    assert workloads.check(p, {}) == []
    assert "reciprocal_sum@30x30x30" in wl.input_bytes()
    wl.close()
    assert not os.path.exists(cli_part.work_dir)


def test_benchmark_json_names_match_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_launcher_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "dense_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
