"""Benchmark of tuckersketch: four closed-loop workloads, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense_small --seed 1 --seconds 50 --trace 0

Closed loop: one client makes one library call at a time, in one process
per workload. This launcher sets the BLAS thread count of that process
(``--blas-threads``, default and maximum ``nproc``), runs it, and sets up
two more processes to take the median set-up time. It prints every metric
by name with its unit, one fingerprint per cell, the run metadata, and as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. Full records go to
``.bench_out/`` in the checkout.

Exits 2 without a result when the checkout has no ``src/tuckersketch``,
and 1 when a workload process fails or runs past the time limit.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dense_large", "sparse_coo", "dense_small", "cli_text")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
P90_MIN_PASSES = 100  # ten samples beyond the 90th percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "decompose_s_p50": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _run_worker(root, env, deadline, args, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(root, ".bench_out")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{args.workload} worker ran past the {TIME_LIMIT_S:.0f} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _gmean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(main, setups):
    walls = [p["wall_s"] for p in main["passes"]]
    return {
        "setup_s": statistics.median(setups),
        "solve_s_p50": statistics.median(walls),
        "decompose_s_p50": statistics.median(p["decompose_s"] for p in main["passes"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="BLAS threads in the workload process (1..nproc; default nproc)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tuckersketch", "__init__.py")):
        print(f"error: no src/tuckersketch under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(max(1, args.blas_threads or nproc), nproc)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.update({var: str(threads) for var in BLAS_VARS})
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        main_run = _run_worker(root, env, deadline, args)
        setups = [main_run["setup_s"]]
        failures = list(main_run["failures"])
        attempted = main_run["attempted"]
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                extra = _run_worker(root, env, deadline, args, setup_only=True)
                setups.append(extra["setup_s"])
                failures += extra["failures"]
                attempted += extra["attempted"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = main_run["layers"]
        units = main_run["layer_units"]
    else:
        metrics = end_to_end(main_run, setups)
        units = END_TO_END_UNITS
    passes = main_run["passes"]
    meta = dict(main_run["meta"], workload=args.workload, trace=args.trace,
                passes=len(passes), warmup_passes=1, setup_repeats=len(setups),
                input_bytes=main_run["input_bytes"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} after 1 warm-up  blas_threads {threads} of nproc {nproc}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    if not args.trace:
        # accuracy, printed but not gated: it repeats exactly for a seed but
        # its spread across seeds is intrinsic to the random sketches
        print(f"  {'rlne_gmean':40s} {_gmean(main_run['rlne'].values()):.6g} ratio")
        print(f"  {'setup_s samples':40s} {' '.join(f'{s:.4f}' for s in setups)} s")
        if len(passes) >= P90_MIN_PASSES:
            p90 = statistics.quantiles([p["wall_s"] for p in passes], n=10)[-1]
            print(f"  {'solve_s_p90':40s} {p90:.6g} s")
        else:
            print(f"  {'solve_s_p90':40s} n/a: {len(passes)} passes, "
                  f"needs {P90_MIN_PASSES}")
    else:
        print("  self-time share of a traced pass: "
              + "  ".join(f"{k} {v:.1%}" for k, v in main_run["layer_shares"].items()))
    print(f"  {'failed_ops_ratio':40s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted})")
    for failure in failures:
        print(f"  FAILED {failure}")
    for cell, digest in main_run["fingerprints"].items():
        print(f"  fingerprint {cell} sha256={digest}")
    print(f"  meta {json.dumps(meta, sort_keys=True)}")

    record = {"metrics": metrics, "units": units, "meta": meta, "setups": setups,
              "passes": passes, "rlne": main_run["rlne"], "failures": failures,
              "fingerprints": main_run["fingerprints"]}
    path = os.path.join(root, ".bench_out",
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
