"""The suite's pytest settings report a failing test instead of aborting."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAIL_THEN_PASS = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_falsified_property_is_reported_and_the_session_goes_on(tmp_path):
    """Under the suite's settings (every warning an error) a falsified @given
    test is one failure: building its report must not end the session with
    INTERNALERROR before the test after it runs."""
    (tmp_path / "test_report.py").write_text(FAIL_THEN_PASS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c",
         str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_report.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
    assert proc.returncode == 1
