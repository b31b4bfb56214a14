"""The four closed-loop workloads and the checks on their outputs.

A workload is a list of cells run one after another by a single client. A
pass runs every cell once; only the library calls of a pass are timed, and
every output is checked after the pass, outside the timed region.

Why each workload exists (what it stresses):

* ``dense_large``: full-tensor copies in ``core.mode_product`` and the dense
  ``rlne``; limited by memory bandwidth, SVDs and draws are under 1%.
* ``sparse_coo``: the sparse paths (``unfold_csr``, sparse sketches, Gram
  HOSVD) and the dense 400^3 tensor that ``rlne`` builds; memory moves, dense
  contractions barely run.
* ``dense_small``: cost per call; ``linalg.svd``, the Gaussian draws and the
  Python bookkeeping of the decomposition loop are measurable only here.
* ``cli_text``: the CLI with text IO, where ``tensor_io`` does most of the work.
"""

import contextlib
import hashlib
import io
import math
import os
import re
import shutil
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

import tuckersketch as ts
from tracing import nbytes

ALL_ALGORITHMS = (
    "tucker_svd_seq",
    "tucker_svd_batch",
    "hooi",
    "truncated_hosvd",
    "ran_tucker",
    "kr_tucker",
)

# Largest acceptable rlne per input family. Each cap sits well above the
# worst rlne of every algorithm over seeds 0-9 at the seed commit, and well
# below what factors unrelated to the data give (rlne near 1):
# reciprocal_sum is smooth (worst 3.2e-3, ran_tucker at rank 5);
# tucker_noise at 20 dB has a noise floor of 0.1 (worst 0.55, kr_tucker);
# an orthogonal projection never has rlne above 1, and random_sparse has no
# low-rank structure; sparse_outer has ten dominant rank-1 terms (worst
# 1.4e-2, kr_tucker).
CAPS = {
    "reciprocal_sum": 0.05,
    "tucker_noise": 0.9,
    "random_sparse": 1.0 + 1e-9,
    "sparse_outer": 0.2,
}

PYTHAGORAS_RTOL = 1e-8


@dataclass
class Cell:
    id: str
    tensor: str
    algorithm: str
    rank: tuple

    @property
    def family(self):
        return self.tensor.split("@")[0]


@dataclass
class Op:
    """One checked operation: a cell's decompose + rlne, or one CLI call."""

    id: str
    error: str = ""
    rlne: float = math.nan
    fingerprint: str = ""
    norm2: float = math.nan
    core_norm2: float = math.nan
    cap: float = math.inf
    output: object = None


@dataclass
class Pass:
    wall_s: float = 0.0
    decompose_s: float = 0.0
    op_s: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)
    warnings: dict = field(default_factory=dict)


def fingerprint(approx):
    """SHA-256 over the core and every factor, shapes included."""
    h = hashlib.sha256()
    for arr in [approx.core, *approx.factors]:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _norm2(a):
    if isinstance(a, ts.SparseTensor):
        return float(np.dot(a.values, a.values))
    flat = np.asarray(a).ravel()
    return float(np.dot(flat, flat))


def make_tensor(key, seed):
    """Input named ``family@dims`` (dims joined by 'x'), drawn from ``seed``."""
    family, shape = key.split("@")
    dims = tuple(int(d) for d in shape.split("x"))
    if family == "reciprocal_sum":
        return ts.gen_reciprocal_sum(dims)
    if family == "tucker_noise":
        spec = ts.NoisySpec((5,) * len(dims), 20.0, seed)
        return ts.gen_tucker_noise(spec, dims)[0]
    if family == "random_sparse":
        return ts.gen_random_sparse(dims, 3000, seed=seed)
    if family == "sparse_outer":
        return ts.gen_sparse_outer(dims[0], seed=seed, order=len(dims))
    raise ValueError(f"unknown family {family!r}")


def _grid(tensors, algorithms, rank):
    cells = []
    for key in tensors:
        order = len(key.split("@")[1].split("x"))
        r = rank if isinstance(rank, tuple) else (rank,) * order
        for alg in algorithms:
            cells.append(Cell(f"{key}/{alg}/r{'-'.join(map(str, r))}", key, alg, r))
    return cells


def cells_for(name):
    if name == "dense_large":
        return _grid(["reciprocal_sum@200x200x200", "reciprocal_sum@300x300x300"],
                     ["tucker_svd_seq", "tucker_svd_batch"], 10) + _grid(
            ["reciprocal_sum@60x60x60x60"], ["tucker_svd_seq", "tucker_svd_batch"], 8)
    if name == "sparse_coo":
        return _grid(["random_sparse@400x400x400", "sparse_outer@400x400x400"],
                     ["tucker_svd_seq", "tucker_svd_batch", "kr_tucker", "truncated_hosvd"],
                     10)
    if name == "dense_small":
        tensors = [f"{fam}@{d}x{d}x{d}" for fam in ("reciprocal_sum", "tucker_noise")
                   for d in (40, 50)]
        tensors += ["reciprocal_sum@16x16x16x16", "reciprocal_sum@12x12x12x12x12"]
        # one full-rank mode times the identity-factor skip path
        return _grid(tensors, ALL_ALGORITHMS, 5) + _grid(
            ["reciprocal_sum@16x16x16x16"], ["tucker_svd_seq"], (5, 5, 5, 16))
    raise ValueError(f"unknown workload {name!r}")


class ApiWorkload:
    """Cells that call ``decompose`` then ``rlne`` through the public API."""

    def __init__(self, name, seed):
        self.seed = seed
        self.cells = cells_for(name)
        self.inputs = {}
        for cell in self.cells:
            if cell.tensor not in self.inputs:
                self.inputs[cell.tensor] = make_tensor(cell.tensor, seed)
        self.norm2 = {key: _norm2(a) for key, a in self.inputs.items()}

    def input_bytes(self):
        return {key: nbytes(a) for key, a in self.inputs.items()}

    def run_pass(self, tracer=None):
        p = Pass()
        for cell in self.cells:
            a = self.inputs[cell.tensor]
            op = Op(cell.id, norm2=self.norm2[cell.tensor], cap=CAPS[cell.family])
            if tracer is not None:
                tracer.cell = cell.id
            t0 = time.perf_counter()
            try:
                approx = ts.decompose(a, cell.algorithm, cell.rank, seed=self.seed)
                t1 = time.perf_counter()
                op.rlne = ts.rlne(a, approx)
                t2 = time.perf_counter()
                op.output = approx
                p.decompose_s += t1 - t0
            except Exception:
                t2 = time.perf_counter()
                op.error = traceback.format_exc(limit=3)
            p.wall_s += t2 - t0
            p.op_s[op.id] = t2 - t0
            p.ops.append(op)
        return p

    def close(self):
        pass


_CLI_LINE = re.compile(r"rlne=(\S+) fit=\S+ time_s=(\S+)")

# (input, rank) of each ``gen`` + ``decompose --out`` job. dense_small ends
# each pass with one small job, so the CLI and its text IO are measured on a
# gated workload too; cli_text is the CLI at the sizes where IO dominates.
CLI_JOBS = {
    "cli_text": [("reciprocal_sum@100x100x100", 10), ("random_sparse@400x400x400", 10)],
    "dense_small": [("reciprocal_sum@30x30x30", 5)],
}


def _gen_args(key, seed):
    family, shape = key.split("@")
    args = [family, "--dims", shape.replace("x", ",")]
    if family == "random_sparse":
        args += ["--nnz", "3000", "--seed", str(seed)]
    return args


class CliWorkload:
    """``gen`` then ``decompose --out`` through ``tuckersketch.cli.main``."""

    def __init__(self, name, seed, work_dir):
        from tuckersketch import cli

        self.seed = seed
        self.cli = cli  # looked up per call, so a traced run sees its wrapper
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.jobs = [(key, _gen_args(key, seed), rank) for key, rank in CLI_JOBS[name]]
        # reference inputs for the checks, made by the library, not the CLI
        self.norm2 = {key: _norm2(make_tensor(key, seed)) for key, _, _ in self.jobs}

    def input_bytes(self):
        return {key: os.path.getsize(self._path(key)) for key, _, _ in self.jobs
                if os.path.exists(self._path(key))}

    def _path(self, key, suffix=".txt"):
        return os.path.join(self.work_dir, key.replace("@", "_") + suffix)

    def _call(self, argv):
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            out.write(traceback.format_exc(limit=3))
        return code, time.perf_counter() - t0, out.getvalue()

    def run_pass(self, tracer=None):
        # every pass writes fresh files: rewriting a file in place makes ext4
        # flush it on close, which would time the disk instead of the program
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        p = Pass()
        for key, gen_args, rank in self.jobs:
            if tracer is not None:
                tracer.cell = key
            path = self._path(key)
            code, wall, text = self._call(["gen", *gen_args, "--out", path])
            p.wall_s += wall
            p.op_s[f"{key}/gen"] = wall
            p.ops.append(Op(f"{key}/gen", error="" if code == 0 else f"exit {code}: {text}"))
            archive = self._path(key, ".out")
            code, wall, text = self._call(
                ["decompose", path, "--algorithm", "tucker_svd_seq", "--rank", str(rank),
                 "--seed", str(self.seed), "--out", archive])
            p.wall_s += wall
            op = Op(f"{key}/decompose/tucker_svd_seq/r{rank}", norm2=self.norm2[key],
                    cap=CAPS[key.split("@")[0]])
            p.op_s[op.id] = wall
            match = _CLI_LINE.search(text)
            if code != 0 or match is None:
                op.error = f"exit {code}: {text}"
            else:
                op.rlne = float(match.group(1))
                p.decompose_s += float(match.group(2))
                op.output = archive
            p.ops.append(op)
        return p

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


class Sequence:
    """Workloads whose passes run one after another as one pass."""

    def __init__(self, *parts):
        self.parts = parts

    def input_bytes(self):
        return {k: v for part in self.parts for k, v in part.input_bytes().items()}

    def run_pass(self, tracer=None):
        p = Pass()
        for part in self.parts:
            q = part.run_pass(tracer)
            p.wall_s += q.wall_s
            p.decompose_s += q.decompose_s
            p.op_s.update(q.op_s)
            p.ops += q.ops
        return p

    def close(self):
        for part in self.parts:
            part.close()


def build(name, seed, work_dir):
    if name == "cli_text":
        return CliWorkload(name, seed, work_dir)
    if name in CLI_JOBS:
        return Sequence(ApiWorkload(name, seed), CliWorkload(name, seed, work_dir))
    return ApiWorkload(name, seed)


def run_pass(workload, tracer=None):
    """One pass with every warning recorded, counted by category."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = workload.run_pass(tracer)
    counts = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    p.warnings = counts
    return p


def check(p, reference):
    """Check every op of a pass; fill ``reference`` with first-pass fingerprints.

    An op fails if it raised or exited non-zero, if its rlne is non-finite or
    above its cap, if rlne^2 ||a||^2 differs from ||a||^2 - ||core||^2 by more
    than 1e-8 ||a||^2, or if its factors and core differ from the first pass.
    Returns the list of failure messages.
    """
    failures = []
    for op in p.ops:
        if not op.error and op.output is not None:
            approx = op.output
            if isinstance(approx, str):
                approx, _ = ts.load_approx(approx)
            op.core_norm2 = _norm2(approx.core)
            op.fingerprint = fingerprint(approx)
            op.output = None
            if not math.isfinite(op.rlne) or op.rlne > op.cap:
                op.error = f"rlne {op.rlne!r} is not finite or above the cap {op.cap!r}"
            elif abs(op.rlne**2 * op.norm2 - (op.norm2 - op.core_norm2)) > (
                PYTHAGORAS_RTOL * op.norm2
            ):
                op.error = (f"Pythagoras identity off: rlne^2 ||a||^2 = {op.rlne**2 * op.norm2!r}"
                            f", ||a||^2 - ||core||^2 = {op.norm2 - op.core_norm2!r}")
            elif reference.setdefault(op.id, op.fingerprint) != op.fingerprint:
                op.error = "factors or core differ from the first pass of this run"
        if op.error:
            failures.append(f"{op.id}: {op.error}")
    return failures
