"""Every narrative script in demos/ runs to completion.

Each runs in a fresh interpreter inside a temporary working directory,
since demo 03 writes its summary CSV and gnuplot script there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftlearn

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(driftlearn.__file__).resolve().parents[1])


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
