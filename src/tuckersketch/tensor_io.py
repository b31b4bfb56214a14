"""Plain-text tensor and result formats with exact round-trips.

Dense tensor file::

    dense N
    I_1 I_2 ... I_N
    <prod I values, one per line, first-mode-fastest order>

Sparse tensor file::

    sparse N nnz
    I_1 I_2 ... I_N
    <nnz lines: i_1 ... i_N value, indices 1-based>

Floats are written with ``repr``, which round-trips float64 exactly, so
write -> read -> write is byte-identical.

A decomposition archive is a directory holding ``core`` (dense format),
``factor_1`` .. ``factor_N`` (``rows cols`` header then row-major values one
per line) and ``metrics`` (``key=value`` lines).
"""

import math
import os
from dataclasses import fields

import numpy as np

from .core import SparseTensor
from .tucker import Metrics, TuckerApprox

# values per write in ``_write_values``
_BLOCK = 1 << 16


def _fmt(x):
    return repr(float(x))


def _write_values(fh, values):
    """One value per line, as ``_fmt`` writes it (``tolist`` gives Python floats).

    Blocks of ``_BLOCK`` values are joined into one write each, so the text
    held in memory stays small for any tensor size.
    """
    for start in range(0, values.size, _BLOCK):
        fh.write("\n".join(map(repr, values[start : start + _BLOCK].tolist())) + "\n")


def write_tensor(t, path):
    """Write a dense ndarray or SparseTensor to ``path``."""
    with open(path, "w") as fh:
        if isinstance(t, SparseTensor):
            fh.write(f"sparse {t.ndim} {t.nnz}\n")
            fh.write(" ".join(str(d) for d in t.dims) + "\n")
            for coord, val in zip(t.coords, t.values):
                fh.write(" ".join(str(i + 1) for i in coord) + " " + _fmt(val) + "\n")
        else:
            t = np.asarray(t, dtype=np.float64)
            fh.write(f"dense {t.ndim}\n")
            fh.write(" ".join(str(d) for d in t.shape) + "\n")
            _write_values(fh, t.ravel(order="F"))


def read_tensor(path):
    """Read a tensor file; returns an ndarray or a SparseTensor."""
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] not in ("dense", "sparse"):
            raise ValueError(f"{path}: first line must start with 'dense' or 'sparse'")
        kind = header[0]
        if kind == "dense":
            if len(header) != 2:
                raise ValueError(f"{path}: dense header needs exactly one order field")
            order = _int_field(header[1], "order", path)
            dims = _read_dims(fh, order, path)
            count = int(np.prod(dims, dtype=np.int64))
            return _read_values(fh, count, path, 3).reshape(dims, order="F")
        if len(header) != 3:
            raise ValueError(f"{path}: sparse header needs order and nnz fields")
        order = _int_field(header[1], "order", path)
        nnz = _int_field(header[2], "nnz", path)
        dims = _read_dims(fh, order, path)
        coords = np.empty((nnz, order), dtype=np.int64)
        values = np.empty(nnz)
        for i in range(nnz):
            line = fh.readline()
            parts = line.split()
            try:
                if len(parts) != order + 1:
                    raise ValueError
                coords[i] = [int(p) - 1 for p in parts[:order]]
                values[i] = float(parts[order])
            except ValueError:
                raise ValueError(
                    f"{path}:{i + 3}: entry {i + 1} needs {order} integer indices and a "
                    f"number, got {line.strip()!r}"
                ) from None
        _expect_eof(fh, path)
        return SparseTensor(dims, coords, values)


def _int_field(tok, name, path):
    try:
        val = int(tok)
    except ValueError:
        raise ValueError(f"{path}: field '{name}' must be an integer, got {tok!r}") from None
    if val < 0:
        raise ValueError(f"{path}: field '{name}' must be nonnegative, got {val}")
    return val


def _read_dims(fh, order, path):
    parts = fh.readline().split()
    if len(parts) != order:
        raise ValueError(f"{path}: dims line must hold {order} sizes, got {len(parts)}")
    dims = tuple(_int_field(p, "dims", path) for p in parts)
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: dims must be positive, got {dims}")
    return dims


def _read_values(fh, count, path, first):
    """The next ``count`` lines of ``fh``, one float each, and then the end.

    ``first`` is the 1-based number of the first of those lines in the file.
    """
    values = np.empty(count)
    for i in range(count):
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: expected {count} values, found {i}")
        try:
            values[i] = float(line)
        except ValueError:
            raise ValueError(
                f"{path}:{first + i}: expected a number, got {line.strip()!r}"
            ) from None
    _expect_eof(fh, path)
    return values


def _expect_eof(fh, path):
    """Refuse anything but blank lines in the rest of ``fh``."""
    if any(line.strip() for line in fh):
        raise ValueError(f"{path}: trailing content after the declared entries")


def write_matrix(m, path):
    m = np.asarray(m, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        _write_values(fh, m.ravel(order="C"))


def read_matrix(path):
    with open(path) as fh:
        parts = fh.readline().split()
        if len(parts) != 2:
            raise ValueError(f"{path}: matrix header must be 'rows cols'")
        rows = _int_field(parts[0], "rows", path)
        cols = _int_field(parts[1], "cols", path)
        return _read_values(fh, rows * cols, path, 2).reshape(rows, cols, order="C")


def save_approx(approx, out_dir, metrics=None):
    """Write a decomposition archive (core, factor_n files, metrics)."""
    os.makedirs(out_dir, exist_ok=True)
    write_tensor(approx.core, os.path.join(out_dir, "core"))
    for n, q in enumerate(approx.factors, start=1):
        write_matrix(q, os.path.join(out_dir, f"factor_{n}"))
    if metrics is not None:
        with open(os.path.join(out_dir, "metrics"), "w") as fh:
            for f in fields(Metrics):
                fh.write(f"{f.name}={_fmt(getattr(metrics, f.name))}\n")


def load_approx(in_dir):
    """Read a decomposition archive back; returns (TuckerApprox, metrics or None)."""
    core = read_tensor(os.path.join(in_dir, "core"))
    factors = []
    for n in range(1, core.ndim + 1):
        factors.append(read_matrix(os.path.join(in_dir, f"factor_{n}")))
    metrics = None
    mpath = os.path.join(in_dir, "metrics")
    if os.path.exists(mpath):
        found = {}
        with open(mpath) as fh:
            for line in fh:
                if line.strip():
                    key, _, val = line.partition("=")
                    found[key.strip()] = float(val)
        metrics = Metrics(**{f.name: found.get(f.name, math.nan) for f in fields(Metrics)})
    return TuckerApprox(core, factors), metrics
