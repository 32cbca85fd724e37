"""The suite's pytest configuration lets a failing hypothesis test report.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.
Hypothesis's failure report imports libcst, which raises one on import;
unfiltered, pytest then stops with an INTERNALERROR (exit code 3) before
the falsifying example is printed and before any later test runs.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n is None


def test_after():
    pass
'''


def test_failing_given_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
    assert run.returncode == 1
