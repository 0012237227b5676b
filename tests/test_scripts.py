from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_crosscheck(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_crosscheck.py"), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_run_crosscheck_default_grid():
    proc = run_crosscheck()
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7
    assert all(", ok (" in line for line in lines)


@pytest.mark.parametrize(
    "case,message",
    [
        ("2,3", "expected N,M,BOUND, got '2,3'"),
        ("2,4,1", "no finite description to compare against for n=2, m=4"),
    ],
)
def test_run_crosscheck_rejected_case_exits_2(case, message):
    proc = run_crosscheck("--case", case)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
