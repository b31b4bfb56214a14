"""Every demo script runs to completion (exit code 0) in a fresh interpreter.

Each runs from a copy in a temporary directory, so what it writes next to
itself lands there and not in the checkout.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = shutil.copy(demo, tmp_path)
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    if demo.name == "03_accuracy_vs_rank.py":
        written = {p.suffix for p in (tmp_path / "out").iterdir()}
        assert {".csv", ".svg"} <= written
