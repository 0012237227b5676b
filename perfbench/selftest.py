"""Self-test of the benchmark: every workload in short mode, traced and not,
and a wrong verdict injected into the program that must trip the gate.

    python3 perfbench/selftest.py

Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def short_run(name: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--short"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    section = "per_layer" if trace else "end_to_end"
    assert result["correct"] is True, result
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}, sorted(result["metrics"])
    return result


def injected_wrong_verdict() -> None:
    """member_cone answering the opposite must make the membership check fail."""
    sys.path.insert(0, str(run.SRC))
    runner = run.Runner(workloads.make("membership", 7, short=True))
    runner.set_up()
    kh = runner.kh
    honest = kh.member_cone

    def flipped(lams, n, m):
        verdict = honest(lams, n, m)
        return kh.MembershipVerdict(not verdict.member, verdict.certificate, verdict.note)

    kh.member_cone = flipped
    _, answers = runner.run_pass()
    try:
        runner.check(answers)
    except workloads.WrongOutput as exc:
        print(f"ok   injected wrong verdict tripped the gate: {exc}")
        return
    raise AssertionError("a flipped member_cone verdict passed the correctness gate")


def main() -> int:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = short_run(name, trace)
            print(f"ok   {name} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
    injected_wrong_verdict()
    return 0


if __name__ == "__main__":
    sys.exit(main())
