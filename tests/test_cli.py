"""Command line contract tests: exit codes, printed lines, determinism."""

import os
import pathlib
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import tuckersketch as ts
from tuckersketch import bench, cli


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


@pytest.mark.parametrize("alg", ["ran_tucker", "kr_tucker"])
def test_one_lprime_is_given_to_every_mode(tmp_path, capsys, alg):
    t = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_reciprocal_sum((5, 6, 7)), t)
    archives = []
    for lprime in ("5", "5,5,5"):
        arch = tmp_path / lprime
        assert run(["decompose", str(t), "--algorithm", alg, "--rank", "2",
                    "--lprime", lprime, "--out", str(arch)]) == 0
        # every line of the metrics file but the wall time
        metrics = [x for x in (arch / "metrics").read_text().splitlines()
                   if not x.startswith("wall_time_s=")]
        archives.append((metrics, {p.name: p.read_bytes() for p in arch.iterdir()
                                   if p.name != "metrics"}))
    capsys.readouterr()
    assert sorted(archives[0][1]) == ["core", "factor_1", "factor_2", "factor_3"]
    assert archives[0] == archives[1]


@pytest.mark.parametrize("lprime, names", [
    ("5,5", "one sketch width per mode"),
    ("1,5,5", "sketch width 1 is below target rank 2"),
])
@pytest.mark.parametrize("alg", ts.ALGORITHMS)
def test_lprime_that_does_not_fit_the_rank_exits_2_for_every_algorithm(
    tmp_path, capsys, alg, lprime, names
):
    t = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_reciprocal_sum((6, 7, 8)), t)
    assert run(["decompose", str(t), "--algorithm", alg, "--rank", "2",
                "--lprime", lprime]) == 2
    err = capsys.readouterr().err
    assert names in err and "Traceback" not in err


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


def test_probe_exits_3_when_rank_exceeds_dim(tmp_path, capsys):
    t = tmp_path / "t6.txt"
    run(["gen", "reciprocal_sum", "--dims", "6,6,6", "--out", str(t)])
    code = run(["probe", str(t), "--rank", "7"])
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


def test_exit_code_2_on_a_nan_tol(tmp_path, capsys):
    p = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_reciprocal_sum((5, 6, 7)), p)
    code = run(["decompose", str(p), "--algorithm", "hooi", "--rank", "2", "--tol", "nan"])
    assert code == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["--snr-db=nan", "--snr-db=-inf"])
def test_exit_code_2_on_a_nan_or_minus_inf_snr(tmp_path, capsys, snr):
    p = tmp_path / "t.txt"
    code = run(["gen", "tucker_noise", "--dims", "6,6,6", "--core-dims", "2,2,2", snr,
                "--out", str(p)])
    assert code == 2
    assert "snr_db" in capsys.readouterr().err
    assert not p.exists()


REAL_FLAGS = {
    "--tol": ("tol", ["nan", "True"]),
    "--snr-db": ("snr_db", ["nan", "-inf", "7000", "-7000", "1e308", "True"]),
    "--cap": ("cap", ["nan", "-inf", "-7000", "0", "True"]),
}


@pytest.mark.parametrize("flag, value", [(f, v) for f, (_, vs) in REAL_FLAGS.items() for v in vs])
def test_real_flags_exit_2_on_bad_values_without_a_traceback(tmp_path, capsys, flag, value):
    p = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_reciprocal_sum((5, 6, 7)), p)
    argv = {
        "--tol": ["decompose", str(p), "--algorithm", "hooi", "--rank", "2"],
        "--snr-db": ["gen", "tucker_noise", "--dims", "6,6,6", "--core-dims", "2,2,2",
                     "--out", str(tmp_path / "g.txt")],
        "--cap": ["probe", str(p), "--rank", "2", "--trials", "2"],
    }[flag]
    try:
        code = run(argv + [f"{flag}={value}"])
    except SystemExit as exc:  # argparse refuses what float() cannot read
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert REAL_FLAGS[flag][0] in err or flag in err


@pytest.mark.parametrize("alg", ts.ALGORITHMS)
@pytest.mark.parametrize("flags, name", [(["--tol=nan"], "tol"), (["--max-iters", "0"],
                                                                  "max_iters")])
def test_hooi_flags_exit_2_for_every_algorithm(tmp_path, capsys, alg, flags, name):
    p = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_reciprocal_sum((5, 6, 7)), p)
    assert run(["decompose", str(p), "--algorithm", alg, "--rank", "2"] + flags) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


EDGE_TEXT = ["nan", "inf", "-inf", "True", "2.5", "1e308", "1e-310", "-7000", "7000",
             str(2**64)]


def _flag_table(tmp_path):
    """flag -> (argv taking the value, names the error may give)."""
    t = str(tmp_path / "t.txt")
    ts.write_tensor(ts.gen_reciprocal_sum((5, 6, 7)), t)
    out = ["--out", str(tmp_path / "g.txt")]
    dec = ["decompose", t, "--rank", "2", "--algorithm"]
    prb = ["probe", t, "--rank", "2", "--trials", "2"]
    return {
        "gen --dims": (lambda v: ["gen", "reciprocal_sum", "--dims", f"6,6,{v}"] + out,
                       "--dims|dim for mode 3"),
        "gen --seed": (
            lambda v: ["gen", "random_sparse", "--dims", "6,6,6", "--nnz", "10", "--seed", v]
            + out, "--seed|seed"),
        "gen --nnz": (lambda v: ["gen", "random_sparse", "--dims", "6,6,6", "--nnz", v] + out,
                      "--nnz|nnz"),
        "gen --densities": (
            lambda v: ["gen", "sparse_outer", "--dims", "8,8,8", "--densities", f"{v},.5,.5"]
            + out, "--densities|densities"),
        "gen --core-dims": (
            lambda v: ["gen", "tucker_noise", "--dims", "6,6,6", "--core-dims", f"2,2,{v}"]
            + out, "--core-dims|core dim for mode 3"),
        "gen --snr-db": (
            lambda v: ["gen", "tucker_noise", "--dims", "6,6,6", "--core-dims", "2,2,2",
                       f"--snr-db={v}"] + out, "--snr-db|snr_db"),
        "decompose --rank": (lambda v: ["decompose", t, "--algorithm", "tucker_svd_seq",
                                        "--rank", v], "--rank|target rank"),
        "decompose --oversampling": (lambda v: dec + ["tucker_svd_seq", "--oversampling", v],
                                     "--oversampling|oversampling"),
        "decompose --lprime": (lambda v: dec + ["ran_tucker", "--lprime", v],
                               "--lprime|sketch width"),
        "decompose --seed": (lambda v: dec + ["tucker_svd_batch", "--seed", v], "--seed|seed"),
        "decompose --max-iters": (lambda v: dec + ["hooi", "--max-iters", v],
                                  "--max-iters|max_iters"),
        "decompose --tol": (lambda v: dec + ["hooi", f"--tol={v}"], "--tol|tol"),
        "probe --rank": (lambda v: ["probe", t, "--trials", "2", "--rank", v],
                         "--rank|target rank"),
        "probe --trials": (lambda v: ["probe", t, "--rank", "2", "--trials", v],
                           "--trials|trials"),
        "probe --cap": (lambda v: prb + [f"--cap={v}"], "--cap|cap"),
        "probe --oversampling": (lambda v: prb + ["--oversampling", v],
                                 "--oversampling|oversampling"),
        "probe --seed": (lambda v: prb + ["--seed", v], "--seed|seed"),
    }


# 2**64 sizes an array wherever it is not a key or a dim, and numpy's
# MemoryError does not name the flag: those run under a memory cap in
# test_sizes_too_large_for_memory_exit_2_without_a_traceback. 7000 trials
# cost seconds
LEFT_OUT = {
    "decompose --oversampling": (str(2**64),),
    "decompose --lprime": (str(2**64),),
    "probe --trials": (str(2**64), "7000"),
    "probe --oversampling": (str(2**64),),
}
FLAGS = [
    "gen --dims", "gen --seed", "gen --nnz", "gen --densities", "gen --core-dims",
    "gen --snr-db", "decompose --rank", "decompose --oversampling", "decompose --lprime",
    "decompose --seed", "decompose --max-iters", "decompose --tol", "probe --rank",
    "probe --trials", "probe --cap", "probe --oversampling", "probe --seed",
]


@pytest.mark.parametrize(
    "flag, value", [(f, v) for f in FLAGS for v in EDGE_TEXT if v not in LEFT_OUT.get(f, ())]
)
def test_every_numeric_flag_runs_or_exits_2_naming_it(tmp_path, capsys, flag, value):
    argv, names = _flag_table(tmp_path)[flag]
    try:
        code = run(argv(value))
    except SystemExit as exc:  # argparse refuses what int() or float() cannot read
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # a rank above a dim is exit 3
    assert code in (0, 2, 3), err
    if code:
        assert re.search(names, err), err


def _cap_address_space():
    # 3 GiB: an allocation sized by 2**64 fails at once instead of paging
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--algorithm", "tucker_svd_seq", "--oversampling", str(2**64)],
        ["probe", "--trials", "2", "--oversampling", str(2**64)],
        ["decompose", "--algorithm", "ran_tucker", "--lprime", str(2**64)],
    ],
    ids=["decompose-oversampling", "probe-oversampling", "decompose-lprime"],
)
def test_sizes_too_large_for_memory_exit_2_without_a_traceback(tmp_path, argv):
    # never run uncapped: without the limit the allocation may succeed lazily
    t = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_reciprocal_sum((5, 6, 7)), t)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tuckersketch", argv[0], str(t), "--rank", "2", *argv[1:]],
        env=env, capture_output=True, text=True, preexec_fn=_cap_address_space, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    if "--oversampling" in argv:
        assert "too large for memory" in proc.stderr


def test_tol_minus_inf_runs_every_sweep(tmp_path, capsys):
    # argparse reads "--tol -inf" as two options; "--tol=-inf" is the form
    p = tmp_path / "t.txt"
    ts.write_tensor(ts.gen_tucker_noise(ts.NoisySpec((2, 2, 2), 10.0, 1), (8, 7, 6))[0], p)
    assert run(["decompose", str(p), "--algorithm", "hooi", "--rank", "2",
                "--tol=-inf", "--max-iters", "3"]) == 0
    a = ts.read_tensor(p)
    apx = ts.hooi(a, (2, 2, 2), max_iters=3, tol=-np.inf)
    assert len(apx.fit_history) == 3
    assert capsys.readouterr().out.startswith(f"rlne={ts.rlne(a, apx)!r} ")
    with pytest.raises(SystemExit):
        run(["decompose", "--help"])
    assert "--tol=-inf" in capsys.readouterr().out


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
