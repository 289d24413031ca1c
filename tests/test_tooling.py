"""The suite's own settings: a failing property test reports its
falsifying example, and the session goes on to the next test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_runs_after():
    pass
'''


def test_a_failing_property_test_prints_its_example_and_the_session_goes_on(tmp_path):
    # Reporting a failing Hypothesis test can import modules that warn on
    # import; under the repo's "error" filter that must not stop pytest.
    path = tmp_path / "test_property.py"
    path.write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example: test_fails(" in output, output
    assert "1 failed, 1 passed" in output, output
