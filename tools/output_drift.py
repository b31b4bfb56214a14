"""Compare the outputs of two source trees of tuckersketch on a fixed grid.

Run from anywhere::

    python3 tools/output_drift.py SRC_A SRC_B

``SRC_A`` and ``SRC_B`` are directories that hold the ``tuckersketch``
package, such as the ``src`` of two checkouts. Each tree runs the whole grid
once, in a fresh interpreter of its own: ``decompose`` and then ``rlne`` on
every cell, at seed 1. The grid is every cell of the dense_small and
dense_large workloads of ``perfbench/workloads.py``, on the inputs its
``make_tensor`` builds, and every algorithm at rank 5 on F-ordered,
moved-axis and sparse copies of reciprocal_sum 40^3 (its C copy is a
dense_small cell). ``perfbench/workloads.py`` is read, never changed.

One line per cell says ``identical`` when the core and factors have the
same bits and the rlne and ``rank_warnings`` are equal. Otherwise it gives
the change from A to B: ``core`` as ||core_B - core_A|| / ||core_A||,
``factor`` as the largest absolute change of a factor entry, ``rlne``
relative to A's, and both ``rank_warnings`` when they differ. The last line
gives the worst of each over the grid. Exits 1 when a tree fails to run
and 2 on a bad command line.
"""

import json
import math
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
TOOLS = os.path.join(ROOT, "tools")
SEED = 1
COPIES = ("F", "moveaxis", "sparse")
# a fresh interpreter that puts the tree, perfbench and this file first on
# its path and runs the grid read from stdin
CHILD = ("import sys; sys.path[:0] = sys.argv[1:4]; "
         "import output_drift; output_drift.run_grid(sys.argv[4])")


def grid():
    """Every cell as ``(id, input key, layout, algorithm, rank)``."""
    for path in (os.path.join(ROOT, "src"), PERFBENCH):
        if path not in sys.path:
            sys.path.append(path)
    import workloads

    cells = [(c.id, c.tensor, "C", c.algorithm, c.rank)
             for name in ("dense_small", "dense_large") for c in workloads.cells_for(name)]
    key, rank = "reciprocal_sum@40x40x40", (5, 5, 5)
    cells += [(f"{key}[{layout}]/{alg}/r5-5-5", key, layout, alg, rank)
              for layout in COPIES for alg in workloads.ALL_ALGORITHMS]
    return cells


def copy_in_layout(ts, a, layout):
    """``a`` as it is (C), as an F-ordered copy, as a view of a copy whose
    memory holds mode 1 fastest (moveaxis), or as a ``SparseTensor``."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "moveaxis":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    if layout == "sparse":
        coords = np.argwhere(a != 0.0)
        return ts.SparseTensor(a.shape, coords, a[tuple(coords.T)])
    return a


def run_grid(out_path):
    """Run the cells read as JSON from stdin; pickle the outputs to ``out_path``."""
    import tuckersketch as ts
    import workloads

    results = {}
    held = None
    for cell_id, key, layout, alg, rank in json.load(sys.stdin):
        if held is None or held[0] != (key, layout):
            held = None  # drop the last input before building the next
            held = (key, layout), copy_in_layout(ts, workloads.make_tensor(key, SEED), layout)
        a = held[1]
        try:
            apx = ts.decompose(a, alg, tuple(rank), seed=SEED)
            results[cell_id] = {"core": apx.core, "factors": apx.factors,
                                "rlne": ts.rlne(a, apx), "rank_warnings": apx.rank_warnings}
        except Exception as exc:
            results[cell_id] = {"error": f"{type(exc).__name__}: {exc}"}
    with open(out_path, "wb") as f:
        pickle.dump({"package": ts.__file__, "results": results}, f)


def run_tree(src, cells):
    """Outputs of the package under ``src`` on ``cells``, run in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.pkl")
        proc = subprocess.run([sys.executable, "-c", CHILD, src, PERFBENCH, TOOLS, out],
                              input=json.dumps(cells), text=True, capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{src} failed:\n{proc.stderr[-2000:]}")
        with open(out, "rb") as f:
            run = pickle.load(f)
    package = os.path.dirname(os.path.abspath(run["package"]))
    if package != os.path.join(os.path.abspath(src), "tuckersketch"):
        raise RuntimeError(f"{src} ran the package at {package}")
    return run["results"]


def changes(a, b):
    """``(core, factor, rlne)`` changes from ``a`` to ``b``, or None when every bit agrees."""
    same = (a["core"].shape == b["core"].shape and a["core"].tobytes() == b["core"].tobytes()
            and all(p.shape == q.shape and p.tobytes() == q.tobytes()
                    for p, q in zip(a["factors"], b["factors"]))
            and a["rlne"] == b["rlne"])
    if same:
        return None
    if a["core"].shape != b["core"].shape:
        return math.inf, math.inf, math.inf
    norm = np.linalg.norm(a["core"])
    core = np.linalg.norm(b["core"] - a["core"]) / norm if norm else math.inf
    factor = max(float(np.abs(q - p).max(initial=0.0)) for p, q in zip(a["factors"], b["factors"]))
    rlne = abs(b["rlne"] - a["rlne"]) / a["rlne"] if a["rlne"] else math.inf
    return float(core), factor, rlne


def describe(a, b):
    """One line for a cell with outputs ``a`` and ``b``."""
    if "error" in a or "error" in b:
        return f"error: A {a.get('error', 'ran')}; B {b.get('error', 'ran')}"
    drift = changes(a, b)
    words = [] if drift is None else [
        f"core {drift[0]:.2g} factor {drift[1]:.2g} rlne {drift[2]:.2g}"]
    if a["rank_warnings"] != b["rank_warnings"]:
        words.append(f"rank_warnings {a['rank_warnings']} -> {b['rank_warnings']}")
    return "; ".join(words) or "identical"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/output_drift.py SRC_A SRC_B", file=sys.stderr)
        return 2
    cells = grid()
    try:
        runs = [run_tree(src, cells) for src in argv]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worst = [0.0, 0.0, 0.0]
    identical = warned = 0
    for cell_id, *_ in cells:
        a, b = runs[0][cell_id], runs[1][cell_id]
        line = describe(a, b)
        print(f"{cell_id}: {line}")
        identical += line == "identical"
        warned += "rank_warnings" in line
        drift = None if "error" in line else changes(a, b)
        if drift is not None:
            worst = [max(w, d) for w, d in zip(worst, drift)]
    print(f"{identical} of {len(cells)} cells identical; rank_warnings differ on {warned}; "
          f"worst core {worst[0]:.2g} factor {worst[1]:.2g} rlne {worst[2]:.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
