"""``tools/unexecuted_lines.py``: the lines of a package that a pytest run never executes."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_one_uncalled_line_is_listed_and_no_other(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "def used(x):\n"
        "    return x + 1\n"
        "\n"
        "\n"
        "def unused(x):\n"
        "    return x - 1\n"
    )
    (tmp_path / "test_pkg.py").write_text(
        "import pkg\n\n\ndef test_used():\n    assert pkg.used(1) == 2\n"
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unexecuted_lines.py"), "pkg", "test_pkg.py",
         "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "1 passed" in proc.stdout
    listed = [line for line in proc.stdout.splitlines() if line.startswith("pkg")]
    assert listed == ["pkg/__init__.py:6: return x - 1"]


def test_a_missing_package_dir_is_a_bad_command_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unexecuted_lines.py"), str(tmp_path / "none")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "PACKAGE_DIR" in proc.stderr
