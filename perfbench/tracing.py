"""Per-layer spans of the tuckersketch package, taken from outside it.

``Tracer.install()`` wraps the package functions that the layer metrics
need. A function imported with ``from .core import mode_product`` is a
separate binding in each importing module, so the wrapper replaces every
name, in every tuckersketch module, that is bound to the original object
(``tucker.mode_product``, ``sketch.mode_product``, ``core.mode_product``,
...); methods are replaced on their class. ``restore()`` puts every original
back. The package itself is never edited.

A span records its name, start, end, parent span, pass, cell, the mode when
the call has one, the minor page faults (``ru_minflt``) it caused, and
computed counts such as bytes. Spans stay in memory and are written once,
when the run ends. A span's self time is its duration minus the durations
of its child spans.

The algorithm entry points (``tucker_svd_seq``, ``hooi``, ...) are not
wrapped: their time is the decomposition loop's own time and counts as
``tucker.decompose`` self time, so the span names survive folding them into
one loop.
"""

import contextlib
import functools
import importlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

PACKAGE = "tuckersketch"


def nbytes(x):
    """Bytes of an ndarray, or of a SparseTensor's coordinates and values."""
    if isinstance(x, np.ndarray):
        return x.nbytes
    values, coords = getattr(x, "values", None), getattr(x, "coords", None)
    if isinstance(values, np.ndarray) and isinstance(coords, np.ndarray):
        return values.nbytes + coords.nbytes
    return 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# Computed counts, taken from arguments, results and file sizes.
def _product_bytes(args, kwargs, out):
    t, b = _arg(args, kwargs, 0, "t"), _arg(args, kwargs, 2, "b")
    return {"bytes": nbytes(t) + nbytes(np.asarray(b)) + nbytes(out)}


def _out_bytes(args, kwargs, out):
    return {"bytes": nbytes(out)}


def _variates(args, kwargs, out):
    return {"variates": int(np.asarray(out).size)}


def _columns_computed(args, kwargs, out):
    return {"computed": int(min(np.shape(args[0])))}


def _decompose_info(args, kwargs, out):
    # basis columns kept: every factor that was computed, not a skipped
    # full-rank mode (a square factor)
    kept = sum(q.shape[1] for q in out.factors if q.shape[1] < q.shape[0])
    return {"kept": int(kept), "sweeps": len(out.fit_history)}


def _file_bytes(pos, name):
    def measure(args, kwargs, out):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, name))}

    return measure


# (module, qualified name, position of the mode argument, computed counts)
TARGETS = (
    ("core", "mode_product", 1, _product_bytes),
    ("core", "unfold", 1, None),
    ("core", "fold", 1, None),
    ("core", "frob_norm", None, None),
    ("core", "SparseTensor.unfold_csr", 1, None),
    ("core", "SparseTensor.densify", None, _out_bytes),
    ("tucker", "decompose", None, _decompose_info),
    ("tucker", "rlne", None, None),
    ("tucker", "reconstruct", None, None),
    ("tucker", "TuckerApprox.__init__", None, None),
    ("sketch", "default_plan", None, None),
    ("sketch", "gaussian_matrix", None, _variates),
    ("sketch", "sketch_mode", 1, None),
    ("sketch", "sketch_khatri_rao", 1, None),
    ("sketch", "sketch_full_gaussian", 1, None),
    ("linalg", "svd", None, _columns_computed),
    ("linalg", "fixed_rank_basis", None, _columns_computed),
    ("linalg", "qr_basis_with_rank", None, _columns_computed),
    ("tensor_io", "read_tensor", None, _file_bytes(0, "path")),
    ("tensor_io", "write_tensor", None, _file_bytes(1, "path")),
    ("tensor_io", "save_approx", None, None),
    ("cli", "main", None, None),
    ("generators", "gen_reciprocal_sum", None, None),
    ("generators", "gen_log_reciprocal", None, None),
    ("generators", "gen_tucker_noise", None, None),
    ("generators", "gen_random_sparse", None, None),
    ("generators", "gen_sparse_outer", None, None),
)

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "pass", "cell", "mode",
               "page_faults", "counts")


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Spans of every traced call; ``pass_id`` and ``cell`` label new spans."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self.cell = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, mode_pos, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mode = args[mode_pos] if mode_pos is not None and len(args) > mode_pos else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, self.cell,
                    None if mode is None else int(mode), 0, None]
            stack.append(len(spans))
            spans.append(span)
            faults = _minflt()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, clock()
                span[7] = _minflt() - faults
                stack.pop()
            if measure is not None:
                span[8] = measure(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Bind a wrapper in place of every name bound to a target."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for modname in {target[0] for target in TARGETS}:
            importlib.import_module(f"{PACKAGE}.{modname}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for modname, qualname, mode_pos, measure in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{modname}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            name = f"{modname}.{qualname}".replace(".__init__", ".init")
            wrapper = self._wrap(name, original, mode_pos, measure)
            if path:
                self._bind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)

    def _bind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write(self, path):
        epoch = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], s[1] - epoch, s[2] - epoch, *s[3:]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": rows}, fh)


def per_pass(spans):
    """{pass: {span name: summed counts}} with self time and page faults."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_s[s[3]] += s[2] - s[1]
    out = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s[4], {}).setdefault(s[0], {"calls": 0, "self_s": 0.0,
                                                         "total_s": 0.0, "page_faults": 0})
        agg["calls"] += 1
        agg["total_s"] += s[2] - s[1]
        agg["self_s"] += s[2] - s[1] - child_s[i]
        agg["page_faults"] += s[7]
        for key, value in (s[8] or {}).items():
            # a basis computed inside another linalg call is counted once, by the outer call
            if key == "computed" and s[3] >= 0 and spans[s[3]][0].startswith("linalg."):
                continue
            agg[key] = agg.get(key, 0) + value
    return out


def _get(name, key):
    return lambda spans, p: spans.get(name, {}).get(key, 0)


def _layer(prefix, key="self_s"):
    return lambda spans, p: sum(v.get(key, 0) for k, v in spans.items() if k.startswith(prefix))


def _ratio(num, den):
    return lambda spans, p: num(spans, p) / den(spans, p) if den(spans, p) else 0.0


def _warnings(category):
    return lambda spans, p: p["warnings"].get(category, 0)


LAYERS = ("core", "tucker", "sketch", "linalg", "tensor_io", "cli", "generators")

# Span metrics, named "<span name>.<count>", summed over one pass. Bytes are
# computed from array and file sizes, not measured, and their unit says so.
_COUNT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "page_faults": "count",
                "bytes": "B-computed", "variates": "count"}
SPAN_METRICS = (
    "core.mode_product.calls", "core.mode_product.self_s", "core.mode_product.bytes",
    "core.mode_product.page_faults", "core.unfold.self_s", "core.fold.self_s",
    "core.SparseTensor.unfold_csr.self_s", "core.SparseTensor.densify.calls",
    "core.SparseTensor.densify.bytes", "core.frob_norm.self_s",
    "tucker.rlne.self_s", "tucker.rlne.total_s", "tucker.reconstruct.self_s",
    "tucker.reconstruct.page_faults", "tucker.decompose.self_s", "tucker.decompose.total_s",
    "sketch.gaussian_matrix.calls", "sketch.gaussian_matrix.self_s",
    "sketch.gaussian_matrix.variates", "sketch.sketch_mode.self_s",
    "sketch.sketch_khatri_rao.self_s", "sketch.sketch_full_gaussian.self_s",
    "sketch.default_plan.self_s",
    "linalg.svd.calls", "linalg.svd.self_s", "linalg.fixed_rank_basis.self_s",
    "linalg.qr_basis_with_rank.calls", "linalg.qr_basis_with_rank.self_s",
    "tensor_io.read_tensor.self_s", "tensor_io.read_tensor.bytes",
    "tensor_io.write_tensor.self_s", "tensor_io.write_tensor.bytes",
    "tensor_io.save_approx.self_s", "cli.main.self_s",
)

# Per-pass layer metrics: name -> (unit, value from one pass's spans and record).
PER_PASS = {
    **{name: (_COUNT_UNITS[name.rsplit(".", 1)[1]], _get(*name.rsplit(".", 1)))
       for name in SPAN_METRICS},
    "core.mode_product.gbs": ("GB/s-computed", _ratio(
        lambda s, p: _get("core.mode_product", "bytes")(s, p) / 1e9,
        _get("core.mode_product", "self_s"))),
    "tucker.TuckerApprox.init_s": ("s", _get("tucker.TuckerApprox.init", "total_s")),
    "tucker.hooi.sweeps": ("count", _get("tucker.decompose", "sweeps")),
    "sketch.width_warnings": ("count", _warnings("SketchWidthWarning")),
    "linalg.rank_warnings": ("count", _warnings("RankDeficiencyWarning")),
    "linalg.useful_ratio": ("ratio", _ratio(_get("tucker.decompose", "kept"),
                                            _layer("linalg.", "computed"))),
    "generators.gen.self_s": ("s", _layer("generators.gen_")),
    **{f"{layer}.self_s": ("s", _layer(layer + ".")) for layer in LAYERS},
    "untraced.self_s": ("s", lambda s, p: p["wall_s"] - _layer("")(s, p)),
}

# Per-run metrics, set by the worker: name -> unit.
PER_RUN = {
    "generators.setup_gen_s": "s",
    "machine.copy_gbs": "GB/s",
    "trace.solve_s_p50": "s",
    "trace.overhead_ratio": "ratio",
    "trace.passes": "count",
}

UNITS = {**{name: unit for name, (unit, _) in PER_PASS.items()}, **PER_RUN}


def layer_metrics(spans, passes):
    """Median over the traced ``passes`` of every per-pass layer metric.

    ``passes`` maps a pass id to its record (``wall_s`` and ``warnings``).
    """
    grouped = per_pass(spans)
    return {name: statistics.median(fn(grouped.get(pid, {}), rec) for pid, rec in passes.items())
            for name, (_, fn) in PER_PASS.items()}


def copy_bandwidth(size, repeats=5):
    """Median copy rate in GB/s (bytes read plus bytes written) over ``repeats``."""
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)
