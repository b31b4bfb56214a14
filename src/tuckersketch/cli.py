"""Command line front end: gen | decompose | bench | probe.

Exit codes: 0 on success, 2 for bad input (unparsable files, unknown names,
malformed flags), 3 when a requested rank exceeds a tensor dimension.
"""

import argparse
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import generators, tensor_io
from .core import dims_of
from .sketch import default_plan
from .tucker import ALGORITHMS, Metrics, RankTooLargeError, decompose, rlne


def _ints(text):
    return tuple(int(tok) for tok in text.replace("x", ",").split(",") if tok)


def _floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok)


def _rank_for(a, text):
    rank = _ints(text)
    if len(rank) == 1:
        rank = rank * len(dims_of(a))
    return rank


def cmd_gen(args):
    if args.family == "tucker_noise" and args.core_dims is None:
        raise ValueError("--core-dims is required for the tucker_noise family")
    t = generators.generate(
        args.family,
        _ints(args.dims),
        seed=args.seed,
        nnz=args.nnz,
        densities=_floats(args.densities) if args.densities else None,
        core_dims=_ints(args.core_dims) if args.core_dims else None,
        snr_db=args.snr_db,
    )
    tensor_io.write_tensor(t, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_decompose(args):
    a = tensor_io.read_tensor(args.tensor)
    rank = _rank_for(a, args.rank)
    lprime = _ints(args.lprime) if args.lprime else None
    t0 = time.perf_counter()
    approx = decompose(
        a,
        args.algorithm,
        rank,
        oversampling=args.oversampling,
        seed=args.seed,
        lprime=lprime,
        max_iters=args.max_iters,
        tol=args.tol,
        init=args.init,
    )
    wall = time.perf_counter() - t0
    err = rlne(a, approx)
    if args.out:
        tensor_io.save_approx(approx, args.out, Metrics(err, 1.0 - err, wall))
    print(f"rlne={err!r} fit={1.0 - err!r} time_s={wall!r}")
    return 0


def cmd_bench(args):
    config = bench_mod.load_config(args.config)
    result = bench_mod.run_suite(config)
    bench_mod.write_records_csv(result.records, args.out)
    print(f"wrote {args.out} ({len(result.records)} records)")
    if args.plots:
        paths = bench_mod.emit_plots(result.records, args.plots)
        print(f"wrote {len(paths)} plot files under {args.plots}")
    if result.violations:
        for v in result.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1
    return 0


def cmd_probe(args):
    a = tensor_io.read_tensor(args.tensor)
    rank = _rank_for(a, args.rank)
    plan = default_plan(dims_of(a), rank, args.oversampling, args.seed)
    probe = bench_mod.probe_bound(a, plan, args.trials, cap=args.cap)
    if probe.degenerate:
        print(
            "ratio_min=nan ratio_median=nan ratio_max=nan "
            f"success_fraction={probe.success_fraction!r} degenerate=1"
        )
    else:
        r = probe.ratios
        print(
            f"ratio_min={float(r.min())!r} ratio_median={float(np.median(r))!r} "
            f"ratio_max={float(r.max())!r} "
            f"success_fraction={probe.success_fraction!r} degenerate=0"
        )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tuckersketch",
        description="Low multilinear rank tensor approximation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic test tensor to a file")
    gen.add_argument("family", choices=generators.FAMILIES)
    gen.add_argument("--dims", required=True, help="comma separated, e.g. 120,120,120")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--nnz", type=int, default=3000, help="random_sparse only")
    gen.add_argument("--densities", default=None, help="sparse_outer factor densities")
    gen.add_argument("--core-dims", default=None, help="tucker_noise core shape")
    gen.add_argument("--snr-db", type=float, default=float("inf"))
    gen.set_defaults(func=cmd_gen)

    dec = sub.add_parser("decompose", help="approximate a tensor read from file")
    dec.add_argument("tensor")
    dec.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    dec.add_argument("--rank", required=True, help="single value or one per mode")
    dec.add_argument("--oversampling", type=int, default=10)
    dec.add_argument("--lprime", default=None, help="sketch widths for ran/kr variants")
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--max-iters", type=int, default=50)
    dec.add_argument("--tol", type=float, default=1e-4)
    dec.add_argument("--init", choices=("random", "hosvd"), default="random")
    dec.add_argument("--out", default=None, help="directory for core/factor/metrics files")
    dec.set_defaults(func=cmd_decompose)

    bch = sub.add_parser("bench", help="run a benchmark suite from a config file")
    bch.add_argument("config")
    bch.add_argument("--out", default="bench_records.csv")
    bch.add_argument("--plots", default=None, help="directory for CSV/SVG series")
    bch.set_defaults(func=cmd_bench)

    prb = sub.add_parser("probe", help="empirical error against the tail-energy bound")
    prb.add_argument("tensor")
    prb.add_argument("--rank", required=True)
    prb.add_argument("--trials", type=int, default=20)
    prb.add_argument("--cap", type=float, default=10.0)
    prb.add_argument("--oversampling", type=int, default=10)
    prb.add_argument("--seed", type=int, default=0)
    prb.set_defaults(func=cmd_probe)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RankTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
