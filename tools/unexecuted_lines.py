"""List the executable lines of a package that a pytest run never executes.

Run from the directory pytest should run in::

    python3 tools/unexecuted_lines.py PACKAGE_DIR [PYTEST_ARGS...]

Runs pytest in this interpreter, with ``PYTEST_ARGS``, under
``sys.settrace`` and ``threading.settrace``; only frames whose code lies in
a ``.py`` file under ``PACKAGE_DIR`` are traced line by line. The parent of
``PACKAGE_DIR`` goes first on ``sys.path``, so the package is imported from
there. Then it prints ``path:line: source`` for every executable line of
those files that never ran, in path and line order, and exits 0; it exits 2
on a bad command line. The executable lines are the ones that ``co_lines()``
names for the compiled module and every code object nested in it.

Two limits:

- Code run in subprocesses is not traced. The CLI tests, the demos and
  ``__main__.py`` run that way, so lines that only they reach are listed.
- Every traced line runs slower, so the timing criteria of a suite may fail
  under tracing. Test outcomes are not counted: pytest's summary is printed,
  and the listing follows whatever it says.
"""

import os
import sys
import threading
import types


def executable_lines(path):
    """Line numbers that the compiled code of the file ``path`` can execute."""
    with open(path, "rb") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        c = todo.pop()
        # a module's first instruction sits on line 0, which no source holds
        lines.update(line for _, _, line in c.co_lines() if line)
        todo.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def package_files(root):
    """Real paths of every ``.py`` file under ``root``."""
    return sorted(os.path.realpath(os.path.join(d, f))
                  for d, _, files in os.walk(root) for f in files if f.endswith(".py"))


def run_traced(files, pytest_args):
    """{path: line numbers run} over ``files`` while pytest runs ``pytest_args``."""
    import pytest

    hits = {f: set() for f in files}
    tracers = {}  # co_filename -> the line tracer of its file, or None

    def line_tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    by_file = {f: line_tracer(hits[f]) for f in files}

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            tracers[name] = by_file.get(os.path.realpath(name))
        local = tracers[name]
        if local is not None:
            # the first line of a call has no line event of its own
            local(frame, "line", arg)
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"pytest exit status {int(status)} (not counted)", file=sys.stderr)
    return hits


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or not os.path.isdir(argv[0]):
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.realpath(argv[0])
    sys.path.insert(0, os.path.dirname(root))
    files = package_files(root)
    hits = run_traced(files, argv[1:])
    for path in files:
        with open(path) as fh:
            source = fh.read().splitlines()
        shown = os.path.relpath(path)
        for line in sorted(executable_lines(path) - hits[path]):
            print(f"{shown}:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
