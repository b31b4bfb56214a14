"""Imports: a dense run never imports scipy.sparse, and no import or private name is dead.

Which modules are loaded depends on everything imported before, so each
check runs in a fresh interpreter, as in ``test_determinism.py``. The repo
has no linter, so the unused-import rule (pyflakes' F401) and the
dead-private-name rule are AST checks.
"""

import ast
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


def _unused_imports(path):
    """``(line, name)`` of each name imported into ``path`` that it never uses.

    A name counts as used when the module reads it, lists it in ``__all__``,
    or imports it on a line marked ``# noqa: F401`` with a reason, after the
    marker or in a comment line just above the import.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            line = lines[alias.lineno - 1]
            marked, _, reason = line.partition("# noqa: F401")
            justified = marked != line and (
                reason.strip() or lines[node.lineno - 2].lstrip().startswith("#")
            )
            if name not in read and name not in exported and not justified:
                unused.append((alias.lineno, name))
    return unused


def test_every_imported_name_is_used():
    modules = sorted((ROOT / "src" / "tuckersketch").glob("*.py"))
    assert len(modules) > 5
    unused = {m.name: _unused_imports(m) for m in modules}
    assert {m: u for m, u in unused.items() if u} == {}


def test_the_unused_import_check_sees_a_dead_name(tmp_path):
    p = tmp_path / "m.py"
    p.write_text(
        "import os\n"
        "import numpy.random  # noqa: F401\n"
        "from math import (\n    pi,\n    tau,  # noqa: F401  (kept as m.tau)\n    e,\n)\n"
        "# loads the submodule up front\n"
        "import numpy.linalg  # noqa: F401\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "print(os.sep, e)\n"
    )
    assert _unused_imports(p) == [(2, "numpy"), (4, "pi")]


def _dead_private_names(path):
    """``(line, name)`` of each module-level ``_name`` function, class or constant.

    Only those that ``path`` never reads are listed; dunder names are not private.
    """
    tree = ast.parse(path.read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        defined[leaf.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_every_private_name_is_read_in_its_module():
    modules = sorted((ROOT / "src" / "tuckersketch").glob("*.py"))
    assert len(modules) > 5
    dead = {m.name: _dead_private_names(m) for m in modules}
    assert {m: d for m, d in dead.items() if d} == {}


def test_the_dead_private_name_check_sees_a_dead_helper(tmp_path):
    p = tmp_path / "m.py"
    p.write_text(
        "_USED = 1\n"
        "_DEAD, __version__ = 2, '1'\n"
        "def _helper():\n    return _USED\n"
        "def _dead_helper(_arg):\n    _local = _arg\n"
        "class _Dead:\n    _attr = 0\n"
        "def api():\n    return _helper()\n"
    )
    assert _dead_private_names(p) == [(2, "_DEAD"), (5, "_dead_helper"), (7, "_Dead")]
