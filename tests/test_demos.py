"""Every demo script runs to completion, from a copy in a temporary directory."""
import os
import shutil
import subprocess
import sys

import pytest

import nre

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(nre.__file__)))


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(script, tmp_path):
    # a demo writes its files next to itself, so the copy keeps them out of demos/
    shutil.copy(os.path.join(DEMOS, script), tmp_path)
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, script],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script.startswith("03_"):
        svgs = sorted(os.listdir(tmp_path / "output"))
        assert len(svgs) == 6 and all(f.endswith(".svg") for f in svgs)
