"""One workload process: set up, warm up, time passes, check every output.

Started by ``run.py``, which sets the BLAS thread count in this process's
environment before numpy loads. Prints one JSON object on its last line.
With ``--setup-only`` it stops after the warm-up pass. With ``--trace 1``
it alternates untraced and traced passes, so the tracing overhead is the
ratio of their medians within one process, and writes the spans once at
the end.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

COPY_BYTES = 256 * 2**20
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; answered from cpuid


def _blas_threads_in_effect(np):
    """Threads OpenBLAS will use, asked of the library numpy loaded, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def _llc_bytes():
    try:
        size = ctypes.CDLL(None).sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def metadata(np, scipy, seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_effect": _blas_threads_in_effect(np),
        "llc_bytes": _llc_bytes(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    import numpy as np
    import scipy

    import tuckersketch

    src = os.path.join(os.getcwd(), "src") + os.sep
    if not os.path.abspath(tuckersketch.__file__).startswith(src):
        print(f"error: tuckersketch loaded from {tuckersketch.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    per_run = {}
    if tracer is not None:
        per_run["machine.copy_gbs"] = tracing.copy_bandwidth(COPY_BYTES)
    work_dir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    if tracer is not None:
        tracer.pass_id = "setup"
        with tracer.installed():
            wl = workloads.build(args.workload, args.seed, work_dir)
        per_run["generators.setup_gen_s"] = sum(
            s[2] - s[1] for s in tracer.spans if s[3] < 0 and s[0].startswith("generators."))
    else:
        wl = workloads.build(args.workload, args.seed, work_dir)

    reference, failures, attempted, passes = {}, [], 0, []
    try:
        warm = workloads.run_pass(wl)
        failures += workloads.check(warm, reference)
        attempted += len(warm.ops)
        input_bytes = wl.input_bytes()
        setup_s = time.perf_counter() - T_START
        begin = time.perf_counter()
        min_passes = 0 if args.setup_only else (2 if tracer else 1)
        while len(passes) < min_passes or (
            not args.setup_only and time.perf_counter() - begin < args.seconds
        ):
            gc.collect()
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.pass_id = len(passes)
                with tracer.installed():
                    p = workloads.run_pass(wl, tracer)
            else:
                p = workloads.run_pass(wl)
            failures += workloads.check(p, reference)
            attempted += len(p.ops)
            passes.append({"wall_s": p.wall_s, "decompose_s": p.decompose_s,
                           "traced": traced, "warnings": p.warnings, "op_s": p.op_s})
    finally:
        wl.close()

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
        "rlne": {op.id: op.rlne for op in warm.ops if op.fingerprint},
        "fingerprints": reference,
        "input_bytes": input_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": metadata(np, scipy, args.seed),
    }
    if tracer is not None:
        traced = {i: rec for i, rec in enumerate(passes) if rec["traced"]}
        plain = [rec["wall_s"] for rec in passes if not rec["traced"]]
        per_run["trace.solve_s_p50"] = statistics.median(r["wall_s"] for r in traced.values())
        per_run["trace.overhead_ratio"] = per_run["trace.solve_s_p50"] / statistics.median(plain)
        per_run["trace.passes"] = len(traced)
        layers = {**tracing.layer_metrics(tracer.spans, traced), **per_run}
        result["layers"] = layers
        result["layer_units"] = tracing.UNITS
        result["layer_shares"] = {
            layer: layers[f"{layer}.self_s"] / layers["trace.solve_s_p50"]
            for layer in (*tracing.LAYERS, "untraced")}
        tracer.write(os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
