"""Every demo script runs to completion in a fresh interpreter.

The demos call the public API (``run_comparison``, ``explain`` and the
rest) the way a reader would; each runs with numpy's ``RuntimeWarning``
turned into an error and must exit 0 with nothing on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import procex

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    src = str(Path(procex.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    # Whatever a demo writes goes to its own temporary directory.
    assert list(tmp_path.iterdir()) == []
