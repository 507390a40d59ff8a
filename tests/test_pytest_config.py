"""The suite's pytest settings keep a failing test a reported failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # on a failure Hypothesis imports libcst, whose DeprecationWarning the
    # "error" filter would turn into an INTERNALERROR that ends the whole run
    (tmp_path / "test_fails.py").write_text(_FAILING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout.splitlines()[-1]
