"""Each README walkthrough under demos/ runs to completion from the repository root."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), FEDPLAN_COLOR="0")
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=REPO_ROOT, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
