"""The benchmark harness still runs against the package: its self-check exits 0."""
import os
import subprocess
import sys

SELFCHECK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "selfcheck.py"
)


def test_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, SELFCHECK], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
