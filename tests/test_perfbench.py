from __future__ import annotations

import subprocess
import sys

from conftest import REPO_ROOT


def test_benchmark_selfcheck_passes():
    # The benchmark calls fedplan's layer functions directly; this catches a
    # change to their names or results that would break it.
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "selfcheck.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: ok" in proc.stdout
