"""A dense run never imports scipy.sparse; the first sparse call does.

Which modules are loaded depends on everything imported before, so each
check runs in a fresh interpreter, as in ``test_determinism.py``.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import tuckersketch as ts

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import hashlib, json, os, sys, tempfile
import tuckersketch as ts
from tuckersketch import cli
loaded = lambda: {m: m in sys.modules for m in ("numpy.random", "scipy.sparse")}
out = {"import": loaded()}
a = ts.gen_reciprocal_sum((10, 9, 8))
for alg in ts.ALGORITHMS:
    ts.rlne(a, ts.decompose(a, alg, (3, 3, 3), seed=1))
out["api"] = loaded()
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "t.txt")
    codes = [
        cli.main(["gen", "reciprocal_sum", "--dims", "12,12,12", "--out", path]),
        cli.main(["decompose", path, "--algorithm", "tucker_svd_seq", "--rank", "3",
                  "--out", os.path.join(d, "arch")]),
    ]
out["cli"] = dict(loaded(), codes=codes)
s = ts.gen_random_sparse((20, 20, 20), 300, seed=2)
apx = ts.decompose(s, "tucker_svd_batch", (3, 3, 3), seed=1)
out["sparse"] = loaded()
out["fingerprint"] = hashlib.sha256(
    apx.core.tobytes() + b"".join(q.tobytes() for q in apx.factors)).hexdigest()
print(json.dumps(out))
"""


def test_dense_runs_never_import_scipy_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    # numpy.random loads with the package, not inside the first timed draw
    assert out["import"] == {"numpy.random": True, "scipy.sparse": False}
    assert out["api"] == {"numpy.random": True, "scipy.sparse": False}
    assert out["cli"] == {"numpy.random": True, "scipy.sparse": False, "codes": [0, 0]}
    assert out["sparse"] == {"numpy.random": True, "scipy.sparse": True}
    # the late import changes nothing about the sparse result
    s = ts.gen_random_sparse((20, 20, 20), 300, seed=2)
    apx = ts.decompose(s, "tucker_svd_batch", (3, 3, 3), seed=1)
    here = apx.core.tobytes() + b"".join(q.tobytes() for q in apx.factors)
    assert out["fingerprint"] == hashlib.sha256(here).hexdigest()
