"""
Accuracy and timing across target ranks
=======================================

Runs the benchmark harness over the two smooth families with the sequential
sketch, plain HOSVD, and HOOI at several target ranks, then writes median
curves (CSV plus a small SVG chart per family) under demos/out/.

Takes a few seconds; every number is reproducible from the seeds below.
"""

import os

from tuckersketch import bench

config = bench.SuiteConfig(
    families=("reciprocal_sum", "log_reciprocal"),
    algorithms=("tucker_svd_seq", "truncated_hosvd", "hooi"),
    ranks=(5, 10, 15, 20),
    seeds=(0, 1, 2, 3, 4),
    dims=(50, 50, 50),
    timing_repeats=1,
)

result = bench.run_suite(config)
print(f"{len(result.records)} runs, {len(result.violations)} invariant violations")
for v in result.violations:
    print("violation:", v)

out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(out, exist_ok=True)
bench.write_records_csv(result.records, os.path.join(out, "smooth_records.csv"))
bench.emit_plots(result.records, out)
print("wrote", sorted(os.listdir(out)))

# quick look: median error of each algorithm at the largest rank
print()
print(f"{'family':<16} {'algorithm':<18} {'median rlne @ P=20':>20}")
for family in config.families:
    for algorithm in config.algorithms:
        errs = sorted(
            r.rlne for r in result.records
            if r.family == family and r.algorithm == algorithm and r.p == 20
        )
        print(f"{family:<16} {algorithm:<18} {errs[len(errs) // 2]:>20.3e}")
