"""Command line contract tests: exit codes, printed lines, determinism."""

import warnings

import numpy as np
import pytest

import tuckersketch as ts
from tuckersketch import bench, cli
from tuckersketch.sketch import SketchWidthWarning

warnings.simplefilter("ignore", SketchWidthWarning)


def run(args):
    return cli.main(args)


def test_gen_and_decompose_roundtrip(tmp_path, capsys):
    t = tmp_path / "t.txt"
    assert run(["gen", "random_sparse", "--dims", "15,15,15", "--nnz", "120",
                "--seed", "2", "--out", str(t)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {t}" in out
    assert run(["decompose", str(t), "--algorithm", "tucker_svd_seq",
                "--rank", "4", "--seed", "1"]) == 0
    line = capsys.readouterr().out.strip()
    fields = dict(kv.split("=", 1) for kv in line.split())
    assert set(fields) == {"rlne", "fit", "time_s"}
    rlne = float(fields["rlne"])
    assert 0.0 <= rlne <= 1.0
    assert float(fields["fit"]) == pytest.approx(1.0 - rlne, abs=1e-12)
    assert float(fields["time_s"]) > 0.0


def test_decompose_writes_archive(tmp_path, capsys):
    t = tmp_path / "t.txt"
    run(["gen", "reciprocal_sum", "--dims", "10,10,10", "--out", str(t)])
    arch = tmp_path / "arch"
    assert run(["decompose", str(t), "--algorithm", "truncated_hosvd",
                "--rank", "3", "--out", str(arch)]) == 0
    capsys.readouterr()
    apx, metrics = ts.load_approx(arch)
    assert apx.target_rank == (3, 3, 3)
    assert metrics is not None
    a = ts.read_tensor(t)
    assert ts.rlne(a, apx) == pytest.approx(metrics.rlne, rel=1e-12)


def test_gen_all_families(tmp_path, capsys):
    cases = [
        (["gen", "reciprocal_sum", "--dims", "6,6,6,6"], "dense 4"),
        (["gen", "log_reciprocal", "--dims", "6,6,6"], "dense 3"),
        (["gen", "sparse_outer", "--dims", "40,40,40", "--seed", "1"], "sparse 3"),
        (["gen", "random_sparse", "--dims", "6,6,6", "--nnz", "10"], "sparse 3"),
        (["gen", "tucker_noise", "--dims", "8,8,8", "--core-dims", "2,2,2",
          "--snr-db", "10"], "dense 3"),
    ]
    for n, (args, head) in enumerate(cases):
        path = tmp_path / f"f{n}.txt"
        assert run(args + ["--out", str(path)]) == 0
        assert path.read_text().startswith(head)
    capsys.readouterr()


def test_exit_code_3_when_rank_exceeds_dim(tmp_path, capsys):
    t = tmp_path / "t.txt"
    run(["gen", "reciprocal_sum", "--dims", "8,8,8", "--out", str(t)])
    code = run(["decompose", str(t), "--algorithm", "tucker_svd_seq", "--rank", "9"])
    captured = capsys.readouterr()
    assert code == 3
    assert "exceeds dimension" in captured.err


def test_exit_code_2_on_unknown_algorithm(tmp_path, capsys):
    t = tmp_path / "t.txt"
    run(["gen", "reciprocal_sum", "--dims", "6,6,6", "--out", str(t)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["decompose", str(t), "--algorithm", "nonsense", "--rank", "2"])
    assert exc.value.code == 2
    # argparse lists the valid choices on stderr
    assert "tucker_svd_seq" in capsys.readouterr().err


def test_exit_code_2_on_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "pareto", "--dims", "4,4,4", "--out", "x.txt"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_exit_code_2_on_bad_tensor_file(tmp_path, capsys):
    p = tmp_path / "garbage.txt"
    p.write_text("not a tensor\n")
    assert run(["decompose", str(p), "--algorithm", "hooi", "--rank", "2"]) == 2
    assert "dense" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["tucker_svd_seq", "kr_tucker"])
def test_exit_code_2_on_non_finite_tensor(tmp_path, capsys, alg):
    a = ts.gen_reciprocal_sum((6, 5, 4))
    a[1, 2, 3] = np.nan
    p = tmp_path / "nan.txt"
    ts.write_tensor(a, p)
    assert run(["decompose", str(p), "--algorithm", alg, "--rank", "2"]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ts.ALGORITHMS)
def test_order_1_tensor_decomposes_or_exits_2(tmp_path, capsys, alg):
    p = tmp_path / "vec.txt"
    ts.write_tensor(np.arange(1.0, 8.0), p)
    code = run(["decompose", str(p), "--algorithm", alg, "--rank", "1"])
    if alg in ("tucker_svd_seq", "tucker_svd_batch"):
        assert code == 2
        assert "order 1" in capsys.readouterr().err
    else:
        assert code == 0
        assert float(capsys.readouterr().out.split()[0].split("=")[1]) <= 1e-12


def test_exit_code_2_on_hooi_without_sweeps(tmp_path, capsys):
    p = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_reciprocal_sum((5, 6, 7)), p)
    code = run(["decompose", str(p), "--algorithm", "hooi", "--rank", "2", "--max-iters", "0"])
    assert code == 2
    assert "max_iters" in capsys.readouterr().err


def test_exit_code_2_on_missing_file(tmp_path, capsys):
    assert run(["decompose", str(tmp_path / "nope.txt"), "--algorithm", "hooi",
                "--rank", "2"]) == 2
    capsys.readouterr()


def test_exit_code_2_on_missing_core_dims(tmp_path, capsys):
    code = run(["gen", "tucker_noise", "--dims", "6,6,6", "--out", str(tmp_path / "t.txt")])
    assert code == 2
    assert "core-dims" in capsys.readouterr().err


def test_probe_line_format(tmp_path, capsys):
    t = tmp_path / "t.txt"
    run(["gen", "reciprocal_sum", "--dims", "12,12,12", "--out", str(t)])
    capsys.readouterr()
    assert run(["probe", str(t), "--rank", "3", "--trials", "4", "--seed", "1"]) == 0
    line = capsys.readouterr().out.strip()
    fields = dict(kv.split("=", 1) for kv in line.split())
    assert set(fields) == {"ratio_min", "ratio_median", "ratio_max",
                           "success_fraction", "degenerate"}
    assert fields["degenerate"] == "0"
    assert float(fields["ratio_min"]) <= float(fields["ratio_median"]) <= float(fields["ratio_max"])


def test_probe_degenerate_output(tmp_path, capsys):
    clean, _ = ts.gen_tucker_noise(ts.NoisySpec((2, 2, 2), float("inf"), seed=0), (8, 8, 8))
    t = tmp_path / "clean.txt"
    ts.write_tensor(clean, t)
    assert run(["probe", str(t), "--rank", "2", "--trials", "3"]) == 0
    line = capsys.readouterr().out.strip()
    assert "degenerate=1" in line
    assert "success_fraction=1.0" in line


def test_bench_cli_writes_csv_and_plots(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "families = reciprocal_sum\nalgorithms = tucker_svd_seq, truncated_hosvd\n"
        "ranks = 2, 3\nseeds = 0, 1\ndims = 10 10 10\ntiming_repeats = 1\n"
    )
    out_csv = tmp_path / "rec.csv"
    plots = tmp_path / "plots"
    assert run(["bench", str(cfg), "--out", str(out_csv), "--plots", str(plots)]) == 0
    capsys.readouterr()
    records = ts.read_records_csv(out_csv)
    assert len(records) == 8
    assert (plots / "reciprocal_sum_rlne.svg").exists()


def test_bench_cli_exit_code_2_on_bad_config(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("families = reciprocal_sum\nwhat = ever\n")
    assert run(["bench", str(cfg)]) == 2
    assert "what" in capsys.readouterr().err


def test_bench_cli_nonzero_on_violations(tmp_path, capsys, monkeypatch):
    # force the invariant check to fail to confirm the exit path
    def broken(a, approx):
        return {"lhs": 1.0, "rhs_terms": [0.0], "ok": False}

    monkeypatch.setattr(bench, "check_inequality13", broken)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "families = reciprocal_sum\nalgorithms = truncated_hosvd\nranks = 2\n"
        "seeds = 0\ndims = 8 8 8\ntiming_repeats = 1\n"
    )
    assert run(["bench", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    assert "violation" in capsys.readouterr().err


def test_cli_csv_deterministic_excluding_wall_time(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "families = random_sparse\nalgorithms = tucker_svd_seq\nranks = 3\n"
        "seeds = 0, 1\ndims = 10 10 10\nnnz = 50\ntiming_repeats = 1\n"
    )
    lines = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["bench", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [line.strip().split(",") for line in fh]
        lines.append([row[:7] + row[8:] for row in rows])  # drop wall_time_s
    capsys.readouterr()
    assert lines[0] == lines[1]
