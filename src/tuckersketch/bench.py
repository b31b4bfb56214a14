"""Benchmark harness: suite runner, invariant checks, and the bound probe.

Configs are flat ``key = value`` text; see :func:`parse_config`. Suites emit
one record per (family x algorithm x rank x seed) with wall time measured
around the decomposition call only, reported as the minimum over
``timing_repeats`` identical runs. The CSV column layout is pinned:
``family,dims,algorithm,P,seed,rlne,fit,wall_time_s,extra``.
"""

import csv
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import generators
from .core import SparseTensor, dims_of, frob_norm, mode_product, unfold
from .generators import FAMILIES
from .linalg import delta_tail
from .tucker import ALGORITHMS, decompose, rlne, tucker_svd_seq

CSV_HEADER = ("family", "dims", "algorithm", "P", "seed", "rlne", "fit", "wall_time_s", "extra")


@dataclass
class BenchRecord:
    family: str
    dims: tuple
    algorithm: str
    p: int
    seed: int
    rlne: float
    fit: float
    wall_time_s: float
    extra: str = ""


@dataclass
class SuiteConfig:
    families: tuple
    algorithms: tuple
    ranks: tuple
    seeds: tuple
    dims: tuple
    oversampling: int = 10
    snr_db: tuple = (0.0, 10.0, 20.0, 40.0)
    nnz: int = 3000
    densities: tuple = None
    core_dims: tuple = None
    family_seed: int = 0
    timing_repeats: int = 3
    checks: bool = True

    def __post_init__(self):
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(
                    f"unknown family {fam!r}; valid names: {', '.join(FAMILIES)}"
                )
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {alg!r}; valid names: {', '.join(ALGORITHMS)}"
                )
        if "tucker_noise" in self.families and self.core_dims is None:
            raise ValueError("field 'core_dims' is required for the tucker_noise family")


_LIST_FIELDS = {
    "families": str,
    "algorithms": str,
    "ranks": int,
    "seeds": int,
    "dims": int,
    "snr_db": float,
    "densities": float,
    "core_dims": int,
}
_SCALAR_FIELDS = {
    "oversampling": int,
    "nnz": int,
    "family_seed": int,
    "timing_repeats": int,
    "checks": lambda s: {"true": True, "false": False}[s.lower()],
}


def parse_config(text):
    """Parse a flat ``key = value`` config into a :class:`SuiteConfig`.

    List values are comma or whitespace separated; ``#`` starts a comment.
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in _LIST_FIELDS:
            conv = _LIST_FIELDS[key]
            fields[key] = tuple(conv(tok) for tok in val.replace(",", " ").split())
        elif key in _SCALAR_FIELDS:
            try:
                fields[key] = _SCALAR_FIELDS[key](val)
            except (ValueError, KeyError):
                raise ValueError(f"config field {key!r}: bad value {val!r}") from None
        else:
            raise ValueError(f"unknown config field {key!r}")
    for required in ("families", "algorithms", "ranks", "seeds", "dims"):
        if required not in fields:
            raise ValueError(f"config is missing required field {required!r}")
    return SuiteConfig(**fields)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def _family_instances(family, config):
    """Yield (tensor, extra) pairs for one family at the configured dims."""
    for snr in config.snr_db if family == "tucker_noise" else (None,):
        tensor = generators.generate(
            family,
            config.dims,
            seed=config.family_seed,
            nnz=config.nnz,
            densities=config.densities,
            core_dims=config.core_dims,
            snr_db=snr,
        )
        yield tensor, "" if snr is None else f"snr_db={snr:g}"


def mode_singular_values(a):
    """Full singular value list of every mode unfolding (1-based mode order)."""
    out = []
    for n in range(1, len(dims_of(a)) + 1):
        mat = a.unfold_csr(n).toarray() if isinstance(a, SparseTensor) else unfold(a, n)
        out.append(np.linalg.svd(mat, compute_uv=False))
    return out


def oracle_floor(svals, target_rank):
    """max_n Delta_{mu_n + 1}: no rank-(mu) approximation can beat this."""
    return max(delta_tail(s, mu + 1) for s, mu in zip(svals, target_rank))


def check_inequality13(a, approx):
    """Projector inequality: the full projection error is bounded by the sum
    of single-mode projection errors.

    Returns a report dict with ``lhs`` (squared full-chain error), per-mode
    ``rhs_terms``, and ``ok`` under slack 1e-8 * ||a||^2.
    """
    dense = a.densify() if isinstance(a, SparseTensor) else np.asarray(a, dtype=np.float64)
    norm2 = frob_norm(dense) ** 2
    full = dense
    rhs_terms = []
    for n, q in enumerate(approx.factors, start=1):
        proj_n = mode_product(mode_product(dense, n, q.T), n, q)
        rhs_terms.append(float(np.linalg.norm((dense - proj_n).ravel()) ** 2))
        full = mode_product(mode_product(full, n, q.T), n, q)
    lhs = float(np.linalg.norm((dense - full).ravel()) ** 2)
    ok = lhs <= sum(rhs_terms) + 1e-8 * norm2
    return {"lhs": lhs, "rhs_terms": rhs_terms, "ok": bool(ok)}


@dataclass
class SuiteResult:
    records: list
    violations: list = field(default_factory=list)


def run_suite(config):
    """Run every (family x algorithm x rank x seed) cell of the config.

    When ``config.checks`` is on, each cell is also checked against the
    projector inequality and the oracle error floor; failures land in
    ``SuiteResult.violations`` (they do not stop the suite).
    """
    records = []
    violations = []
    order = len(config.dims)
    for family in config.families:
        for tensor, extra in _family_instances(family, config):
            svals = mode_singular_values(tensor) if config.checks else None
            norm_a = frob_norm(tensor)
            for p in config.ranks:
                target = (p,) * order
                for algorithm in config.algorithms:
                    for seed in config.seeds:
                        best = None
                        approx = None
                        for _ in range(max(1, config.timing_repeats)):
                            t0 = time.perf_counter()
                            approx = decompose(
                                tensor,
                                algorithm,
                                target,
                                oversampling=config.oversampling,
                                seed=seed,
                            )
                            dt = time.perf_counter() - t0
                            best = dt if best is None else min(best, dt)
                        err = rlne(tensor, approx)
                        records.append(
                            BenchRecord(
                                family, config.dims, algorithm, p, seed,
                                err, 1.0 - err, best, extra,
                            )
                        )
                        if config.checks:
                            cell = f"{family} dims={config.dims} {algorithm} P={p} seed={seed}"
                            floor = oracle_floor(svals, target)
                            if err * norm_a < floor - 1e-8 * norm_a:
                                violations.append(
                                    f"{cell}: error {err * norm_a:.3e} below oracle floor {floor:.3e}"
                                )
                            report = check_inequality13(tensor, approx)
                            if not report["ok"]:
                                violations.append(
                                    f"{cell}: projector inequality violated "
                                    f"(lhs {report['lhs']:.3e} > rhs {sum(report['rhs_terms']):.3e})"
                                )
    return SuiteResult(records, violations)


def write_records_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.family,
                    "x".join(str(d) for d in r.dims),
                    r.algorithm,
                    r.p,
                    r.seed,
                    repr(r.rlne),
                    repr(r.fit),
                    repr(r.wall_time_s),
                    r.extra,
                ]
            )


def read_records_csv(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            records.append(
                BenchRecord(
                    row[0],
                    tuple(int(d) for d in row[1].split("x")),
                    row[2],
                    int(row[3]),
                    int(row[4]),
                    float(row[5]),
                    float(row[6]),
                    float(row[7]),
                    row[8],
                )
            )
    return records


@dataclass
class BoundProbe:
    """Empirical sketch-error ratios against the tail-energy bound."""

    deltas: tuple
    errors: np.ndarray
    ratios: np.ndarray
    cap: float
    success_fraction: float
    degenerate: bool
    trials: int


def probe_bound(a, plan, trials, cap=10.0):
    """Distribution of sequential-decomposition error over the tail bound.

    Runs :func:`tucker_svd_seq` with seeds ``plan.seed .. plan.seed+trials-1``
    and reports error / sum_n Delta_{mu_n+1} ratios plus the fraction below
    ``cap``. When the tail energies vanish relative to ||a|| (exact low rank)
    the ratios are meaningless: ``degenerate`` is set and success counts
    trials with error <= 1e-8 * ||a|| instead.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    svals = mode_singular_values(a)
    deltas = tuple(delta_tail(s, mu + 1) for s, mu in zip(svals, plan.target_rank))
    total = float(sum(deltas))
    norm_a = frob_norm(a)
    errors = np.empty(trials)
    for t in range(trials):
        approx = tucker_svd_seq(a, replace(plan, seed=plan.seed + t))
        errors[t] = rlne(a, approx) * norm_a
    if total == 0.0 and errors.max() > 1e-8 * norm_a:
        raise ArithmeticError(
            "zero tail energy with nonzero decomposition error; numerical fault"
        )
    degenerate = total <= 1e-10 * norm_a
    if degenerate:
        ratios = np.full(trials, np.nan)
        success = float(np.mean(errors <= 1e-8 * norm_a))
    else:
        ratios = errors / total
        success = float(np.mean(ratios < cap))
    return BoundProbe(deltas, errors, ratios, cap, success, degenerate, trials)


def _median_series(records, value):
    """{(algorithm): sorted [(P, median value over seeds)]} for one family."""
    cells = {}
    for r in records:
        cells.setdefault((r.algorithm, r.p), []).append(value(r))
    series = {}
    for (alg, p), vals in cells.items():
        series.setdefault(alg, []).append((p, statistics.median(vals)))
    for alg in series:
        series[alg].sort()
    return series


def emit_plots(records, out_dir):
    """Per-family median series as CSV plus a small SVG line chart.

    Writes ``<family>_rlne.csv``/``.svg`` and ``<family>_time.csv``/``.svg``
    into ``out_dir``; returns the list of written paths.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    by_family = {}
    for r in records:
        by_family.setdefault(r.family, []).append(r)
    for family, recs in sorted(by_family.items()):
        for metric, value in (("rlne", lambda r: r.rlne), ("time", lambda r: r.wall_time_s)):
            series = _median_series(recs, value)
            csv_path = os.path.join(out_dir, f"{family}_{metric}.csv")
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["algorithm", "P", f"median_{metric}"])
                for alg in sorted(series):
                    for p, med in series[alg]:
                        writer.writerow([alg, p, repr(med)])
            written.append(csv_path)
            svg_path = os.path.join(out_dir, f"{family}_{metric}.svg")
            label = "median RLNE" if metric == "rlne" else "median wall time (s)"
            _svg_line_chart(series, f"{family}: {label}", svg_path)
            written.append(svg_path)
    return written


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_line_chart(series, title, path):
    """Minimal standalone SVG: one polyline per algorithm, log-y when possible."""
    width, height = 640, 420
    left, right, top, bottom = 70, 170, 40, 50
    xs = sorted({p for pts in series.values() for p, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    if not xs or not ys:
        xs, ys = [0, 1], [0.0, 1.0]
    log_y = all(y > 0 for y in ys)
    conv = (lambda y: float(np.log10(y))) if log_y else float
    yvals = [conv(y) for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(yvals), max(yvals)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    px = lambda x: left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)
    py = lambda y: height - bottom - (conv(y) - y_lo) / (y_hi - y_lo) * (height - top - bottom)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="20" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
    ]
    for x in xs:
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - bottom + 16}" text-anchor="middle">{x}</text>'
        )
    for i in range(5):
        yv = y_lo + i * (y_hi - y_lo) / 4
        raw = 10**yv if log_y else yv
        yy = height - bottom - i * (height - top - bottom) / 4
        parts.append(f'<text x="{left - 6}" y="{yy:.1f}" text-anchor="end">{raw:.3g}</text>')
        parts.append(
            f'<line x1="{left}" y1="{yy:.1f}" x2="{width - right}" y2="{yy:.1f}" '
            f'stroke="#dddddd"/>'
        )
    for k, alg in enumerate(sorted(series)):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(p):.1f},{py(y):.1f}" for p, y in series[alg])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = top + 16 * k
        parts.append(
            f'<line x1="{width - right + 10}" y1="{ly}" x2="{width - right + 30}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{width - right + 35}" y="{ly + 4}">{alg}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
