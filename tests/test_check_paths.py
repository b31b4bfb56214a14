"""Input checks and edge branches that no other test reaches, one row each.

Every row calls one entry point with an input that only its check or its
edge branch handles, and asserts the error the check raises, the value the
branch returns or the exit code the command gives.
"""

import numpy as np
import pytest

import tuckersketch as ts
from tuckersketch import bench, cli, core, generators, linalg, sketch, tensor_io

from test_core import WIDE


def _read(tmp_path, text, reader=tensor_io.read_tensor):
    path = tmp_path / "t.txt"
    path.write_text(text)
    return reader(path)


# row -> (call taking tmp_path, what the ValueError says)
REFUSED = {
    "read_tensor dense header": (
        lambda p: _read(p, "dense 3 4\n"), "dense header needs exactly one order field"
    ),
    "read_tensor sparse header": (
        lambda p: _read(p, "sparse 3\n"), "sparse header needs order and nnz fields"
    ),
    "read_tensor negative field": (
        lambda p: _read(p, "dense -3\n"), "field 'order' must be nonnegative, got -3"
    ),
    "read_tensor dims count": (
        lambda p: _read(p, "dense 3\n4 4\n"), "dims line must hold 3 sizes, got 2"
    ),
    "read_tensor zero dim": (
        lambda p: _read(p, "dense 3\n4 0 2\n"), r"dims must be positive, got \(4, 0, 2\)"
    ),
    "read_matrix header": (
        lambda p: _read(p, "3\n1\n2\n3\n", tensor_io.read_matrix),
        "matrix header must be 'rows cols'",
    ),
    "real_number past the float range": (
        lambda p: core.real_number(10**400, "tol"), "tol must be a real number"
    ),
    "mode_product columns": (
        lambda p: core.mode_product(np.ones((2, 3, 4)), 2, np.ones((5, 4))),
        "matrix has 4 columns, mode 2 has size 3",
    ),
    "SparseTensor coords and values": (
        lambda p: core.SparseTensor((3, 3), [[0, 0], [1, 1]], [1.0]),
        r"coords shape \(2, 2\) does not match 1 values",
    ),
    "sparse_outer_sum vector count": (
        lambda p: generators.sparse_outer_sum((3, 3, 3), [(1.0, [([0], [1.0])] * 2)]),
        "term has 2 vectors for order 3",
    ),
    "delta_tail 2-d": (lambda p: linalg.delta_tail(np.ones((2, 2)), 1), "1-d sequence"),
    "SketchPlan no modes": (lambda p: sketch.SketchPlan((), {}), "at least one mode"),
    "SketchPlan sketch dims count": (
        lambda p: sketch.SketchPlan((2, 2, 2), {**WIDE, 1: (4,)}),
        "sketch dims for mode 1 must be 2 positive ints",
    ),
    "TuckerApprox factor and core": (
        lambda p: ts.TuckerApprox(np.ones((2, 2)), [np.eye(3, 2), np.eye(3)]),
        r"factor 2 shape \(3, 3\) does not match core dim 2",
    ),
}


@pytest.mark.parametrize("row", REFUSED)
def test_refused_by_its_check(row, tmp_path):
    call, says = REFUSED[row]
    with pytest.raises(ValueError, match=says):
        call(tmp_path)


def test_accumulate_sparse_of_no_entries_is_empty():
    t = core.accumulate_sparse((3, 4), np.empty((0, 2)), [])
    assert (t.dims, t.nnz, t.coords.shape) == ((3, 4), 0, (0, 2))


def test_rank_1_is_outside_the_width_guarantee():
    plan = sketch.SketchPlan((1, 1, 1), {n: (2, 2) for n in (1, 2, 3)})
    reason = "rank too small for the width lower bound"
    assert sketch.guarantee_gaps(plan, (10, 10, 10)) == {1: reason, 2: reason, 3: reason}


def test_residuals_against_the_zero_tensor_are_zero():
    approx = ts.TuckerApprox(np.zeros((1, 1, 1)), [np.eye(3, 1)] * 3)
    assert approx.source_residuals(np.zeros((3, 3, 3))) == (0.0, 0.0)


def test_memory_error_exits_2_with_its_message(monkeypatch, capsys):
    # no allocation: the command raises it
    def too_large(args):
        raise MemoryError("Unable to allocate 8 EiB")

    monkeypatch.setattr(cli, "cmd_gen", too_large)
    assert cli.main(["gen", "reciprocal_sum", "--dims", "4,4,4", "--out", "t.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a size or count is too large for memory: Unable to allocate")


def test_an_error_below_the_oracle_floor_is_a_violation(monkeypatch):
    # a full-rank result has no error, which no rank-2 approximation reaches
    monkeypatch.setattr(bench, "decompose", lambda a, *args, **kw: ts.truncated_hosvd(a, a.shape))
    config = ts.parse_config("families = reciprocal_sum\nalgorithms = truncated_hosvd\n"
                             "ranks = 2\nseeds = 0\ndims = 8 8 8\ntiming_repeats = 1\n")
    violations = bench.run_suite(config).violations
    assert any("below oracle floor" in v for v in violations)
