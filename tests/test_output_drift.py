"""``tools/output_drift.py``: the statement of how far two trees' outputs differ."""

import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def output_drift(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_drift

    return output_drift


def test_a_tree_against_itself_is_identical_on_every_cell(output_drift, monkeypatch, capsys):
    # each tree runs in a fresh interpreter, on the grid the parent hands it
    cells = [("batch", "reciprocal_sum@8x9x10", "moveaxis", "tucker_svd_batch", (3, 3, 3)),
             ("hosvd", "reciprocal_sum@8x9x10", "sparse", "truncated_hosvd", (3, 3, 3))]
    monkeypatch.setattr(output_drift, "grid", lambda: cells)
    assert output_drift.main([str(ROOT / "src")] * 2) == 0
    assert capsys.readouterr().out.splitlines() == [
        "batch: identical",
        "hosvd: identical",
        "2 of 2 cells identical; rank_warnings differ on 0; worst core 0 factor 0 rlne 0",
    ]


def test_a_change_is_reported_by_its_size(output_drift):
    a = {"core": np.full((2, 2), 0.5), "factors": [np.eye(3, 2)] * 2, "rlne": 0.25,
         "rank_warnings": ()}
    b = dict(a, core=a["core"] * (1 + 1e-12), rlne=0.25 * (1 - 1e-9), rank_warnings=(2,))
    assert output_drift.describe(a, a) == "identical"
    assert output_drift.describe(a, b) == "core 1e-12 factor 0 rlne 1e-09; rank_warnings () -> (2,)"
    assert output_drift.describe(a, {"error": "ValueError: x"}) == "error: A ran; B ValueError: x"


def test_the_script_takes_two_paths_and_nothing_else(output_drift, capsys):
    assert output_drift.main(["src"]) == 2
    assert "SRC_A SRC_B" in capsys.readouterr().err
