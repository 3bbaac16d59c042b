"""Every narrative script in demos/ runs to completion.

Each runs in a fresh interpreter inside a temporary working directory,
since demo 03 writes its summary CSV and gnuplot script there.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path, subprocess_env):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=subprocess_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
