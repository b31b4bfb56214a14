"""Decompositions do not depend on the number of BLAS threads.

OpenBLAS reads its thread count once, when it is loaded, so each count runs
in a fresh interpreter with ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
set, and the two runs' factor and core fingerprints are compared.
"""

import json
import os
import pathlib
import subprocess
import sys

import tuckersketch as ts

ROOT = pathlib.Path(__file__).resolve().parents[1]

FINGERPRINTS = """
import hashlib, json
import numpy as np
import tuckersketch as ts
out = {}
# the F-ordered copy runs dense batch's shared contraction on mode N; the
# order-4 transposed view contracts its innermost axis with the small
# matrix on the left, as C and F inputs do after their first products
for dims, order in [((40, 40, 40), "C"), ((40, 40, 40), "F"), ((12, 12, 12, 12, 12), "C"),
                    ((120, 120, 120), "C"), ((30, 24, 20, 16), "C"),
                    ((30, 24, 20, 16), "moveaxis")]:
    if order == "moveaxis":
        a = np.moveaxis(ts.gen_reciprocal_sum(dims[1:] + dims[:1]), -1, 0)
    else:
        a = np.asarray(ts.gen_reciprocal_sum(dims), order=order)
    for alg in ts.ALGORITHMS:
        apx = ts.decompose(a, alg, (5,) * len(dims), seed=3)
        h = hashlib.sha256(apx.core.tobytes())
        for q in apx.factors:
            h.update(q.tobytes())
        out[f"{alg} {dims} {order}"] = h.hexdigest()
print(json.dumps(out))
"""


def fingerprints(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", FINGERPRINTS], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_results_do_not_depend_on_the_blas_thread_count():
    one, two = fingerprints(1), fingerprints(2)
    assert one.keys() == two.keys()
    # the HOSVD's single QR of the 14400 x 120 unfolding (too wide for
    # left_singular's blocks) rounds differently in its threaded updates
    left_out = "truncated_hosvd (120, 120, 120) C"
    differ = sorted(k for k in one if one[k] != two[k] and k != left_out)
    assert differ == []
    assert len(one) == 6 * len(ts.ALGORITHMS)
