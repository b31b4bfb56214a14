"""The suite's own configuration, run on a small suite of its own.

A failing test must be reported as one failure, with every other test run.
"""

import pathlib

pytest_plugins = ["pytester"]

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_failing_hypothesis_test_is_one_failure_among_the_rest(pytester):
    # hypothesis's failure report imports libcst, which warns on import; the
    # project's warning filters must not turn that into an internal error
    pytester.makepyfile(
        test_given="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    # a fresh interpreter, so the report's imports happen inside the run
    result = pytester.runpytest_subprocess(
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", "test_given.py",
    )
    assert "INTERNALERROR" not in result.stdout.str()
    result.assert_outcomes(failed=1, passed=1)
