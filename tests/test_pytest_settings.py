"""The repository's pytest settings report a failing property test as a failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = textwrap.dedent("""
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 5


    def test_passes():
        pass
""")


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # Reporting a failing example imports modules that warn at import time;
    # with warnings as errors, that used to stop pytest with an INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output
