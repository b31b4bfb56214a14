"""``tools/output_drift.py``: the statement of how far two trees' outputs differ."""

import pathlib
import re

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


def test_seeds_give_each_tree_the_same_spread_against_itself(output_drift, monkeypatch, capsys):
    # the deterministic HOSVD has no spread over seeds and is left out
    cells = [("kr", "reciprocal_sum@8x9x10", "F", "kr_tucker", (3, 3, 3)),
             ("seq", "reciprocal_sum@8x9x10", "sparse", "tucker_svd_seq", (3, 3, 3)),
             ("hosvd", "reciprocal_sum@8x9x10", "C", "truncated_hosvd", (3, 3, 3))]
    monkeypatch.setattr(output_drift, "grid", lambda: cells)
    monkeypatch.setattr(output_drift, "SEEDS", 3)
    assert output_drift.main(["--seeds"] + [str(ROOT / "src")] * 2) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["kr", "seq"]
    for line in lines[:-1]:
        # B's median and quartiles are A's, in the same digits
        assert re.fullmatch(r"\w+: A (\S+) \[(\S+), (\S+)\]; B \1 \[\2, \3\]", line), line
    assert lines[-1] == "B's rlne median lies outside A's quartiles on 0 of 2 cells, seeds 0-2"


def test_a_median_outside_the_quartiles_is_flagged(output_drift, monkeypatch, capsys):
    cells = [("moved", None, None, None, None), ("kept", None, None, None, None),
             ("failed", None, None, None, None)]
    a = {"moved": [{"rlne": r} for r in (1.0, 2.0, 3.0)],
         "kept": [{"rlne": r} for r in (1.0, 2.0, 3.0)],
         "failed": [{"rlne": 1.0}]}
    b = dict(a, moved=[{"rlne": r} for r in (2.6, 2.7, 2.8)], failed=[{"error": "ValueError: x"}])
    monkeypatch.setattr(output_drift, "SEEDS", 3)
    output_drift.compare_spreads(cells, [a, b])
    assert capsys.readouterr().out.splitlines() == [
        "moved: A 2 [1.5, 2.5]; B 2.7 [2.65, 2.75] OUTSIDE",
        "kept: A 2 [1.5, 2.5]; B 2 [1.5, 2.5]",
        "failed: error: A ran; B ValueError: x",
        "B's rlne median lies outside A's quartiles on 1 of 3 cells, seeds 0-2",
    ]


def test_the_grid_is_the_workloads_and_the_extra_layouts_and_shapes(output_drift):
    cells = output_drift.grid()
    # 37 dense_small and 6 dense_large cells, then six algorithms on each of
    # three copies of 40^3 and on the C-ordered non-cubic (30, 36, 24)
    assert len(cells) == 37 + 6 + 6 * 3 + 6
    assert len({c[0] for c in cells}) == len(cells)
    assert [c[3] for c in cells if c[1] == "reciprocal_sum@30x36x24"] == [
        "tucker_svd_seq", "tucker_svd_batch", "hooi", "truncated_hosvd", "ran_tucker", "kr_tucker"]


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


@pytest.mark.parametrize("argv", [["--seeds", "a"], ["a", "--seeds", "b"], ["a", "--seeds"]])
def test_seeds_is_a_flag_before_the_two_paths(output_drift, capsys, argv):
    assert output_drift.main(argv) == 2
    assert "[--seeds] SRC_A SRC_B" in capsys.readouterr().err
