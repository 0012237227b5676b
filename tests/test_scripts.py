from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_crosscheck(*argv):
    return run_script("run_crosscheck.py", *argv)


def test_run_crosscheck_default_grid():
    proc = run_crosscheck()
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 14
    assert all(line.startswith("crosscheck ") and line.endswith(", disagreements=0") for line in lines[::2])
    assert all(line.startswith("  took ") and line.endswith("s") for line in lines[1::2])


@pytest.mark.parametrize(
    "case,message",
    [
        ("2,3", "expected N,M,BOUND, got '2,3'"),
        ("2,2,1", "error: need m >= 3, got 2"),
    ],
)
def test_run_crosscheck_rejected_case_exits_2(case, message):
    proc = run_crosscheck("--case", case)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_crosscheck_unsupported_case_exits_3():
    # the CLI's code for `kleinhorn crosscheck -n 2 -m 4 --bound 1`
    proc = run_crosscheck("--case", "2,4,1")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: no finite description to compare against for n=2, m=4; "
        "only the witness search covers this case\n"
    )

