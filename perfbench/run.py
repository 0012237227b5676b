"""kleinhorn benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10   # each workload in its own process
    python3 perfbench/selftest.py                                   # short modes and the correctness gate

The program is imported from the src/ directory next to this one; nothing is
installed.  A run sets the program up several times (a fresh import plus the
workload's preparation) and reports the median as setup_s.  It then repeats
the workload's fixed list of operations, each pass from the same cache state
(cold, apart from what set-up built), until --seconds have passed.  Passes
repeat identical work, so a slower pass was slowed by something outside the
program (other tenants of a shared machine slow it for seconds to minutes at
a time); wall_s is therefore the fastest pass, and each
operation's latency is its fastest pass.  op_p50_ms and op_tail_ms are the
median and the tail of those latencies across the operations.  Every output is
checked after each pass; a wrong one makes the run exit 1 without a speed.
The run is a closed loop with one caller and one thread: no --threads option
is ever passed.  With --trace 1 the layer functions are wrapped, the same
passes run half untraced and half traced, and the per-layer metrics, the
tracing overhead and the isolation checks are reported; spans of the set-up
and of the last traced pass are written to .perfbench/.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
# set-up metrics of the traced run, reported with a "setup." prefix
SETUP_LAYER = (
    "cone.horn_index_set.busy_s",
    "cone.horn_index_set.self_s",
    "tableaux.gen_lr.calls",
    "tableaux.gen_lr.self_s",
    "partitions.adjusted_conjugate.calls",
)


class IsolationError(Exception):
    """A workload ran a layer it claims to leave idle."""


class Failure:
    """Stands in for the answer of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__


def load_program():
    """Import kleinhorn afresh from the checkout's src/; returns {module short name: module}."""
    for name in [n for n in sys.modules if n == "kleinhorn" or n.startswith("kleinhorn.")]:
        del sys.modules[name]
    kh = importlib.import_module("kleinhorn")
    importlib.import_module("kleinhorn.cli")
    if not Path(kh.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"kleinhorn was imported from {kh.__file__}, not from {SRC}")
    return {
        (name.partition(".")[2] or "kleinhorn"): mod
        for name, mod in sys.modules.items()
        if name == "kleinhorn" or name.startswith("kleinhorn.")
    }


def clear_caches(modules: dict, warm=(), tracer=None) -> None:
    """Empty every memo cache and module-level *_cache dict outside the warm modules."""
    if tracer is not None:
        tracer.harvest()
    for short, mod in modules.items():
        if short in warm or short == "kleinhorn":
            continue
        for attr, value in vars(mod).items():
            if isinstance(value, dict) and attr.endswith("_cache"):
                value.clear()
            fn = value
            while callable(fn):
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
                fn = getattr(fn, "__wrapped__", None)
    if tracer is not None:
        tracer.rebase()


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it,
    or the maximum when there are too few samples."""
    s = sorted(values)
    n = len(s)
    if n > TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n
    return s[-1], 100.0


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.modules = None
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    @property
    def kh(self):
        return self.modules["kleinhorn"]

    def set_up(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        self.modules = load_program()
        self.workload.prepare(self.kh)
        return time.perf_counter() - t0

    def run_pass(self, tracer=None):
        """Every operation once; returns their times and answers."""
        wl = self.workload
        clear_caches(self.modules, wl.warm, tracer)
        if tracer is not None:
            tracer.reset()
        gc.collect()
        times, answers = [], []
        for i, op in enumerate(wl.ops):
            if wl.cold_per_op and i:
                clear_caches(self.modules, (), tracer)
            if tracer is not None:
                tracer.op_id = i
            t0 = time.perf_counter()
            try:
                answer = op.run(self.kh)
            except Exception as exc:  # a crash is a failed operation, never an answer
                answer = Failure(exc)
            times.append(time.perf_counter() - t0)
            answers.append(answer)
        return times, answers

    def check(self, answers) -> None:
        for op, answer in zip(self.workload.ops, answers):
            self.attempted += 1
            if isinstance(answer, Failure):
                self.failed += 1
                self.failures[answer.kind] = self.failures.get(answer.kind, 0) + 1
            else:
                op.check(self.kh, answer)

    def measure(self, seconds: float, tracer=None):
        """Passes until the time is up (at least one); returns [(times, layer metrics)]."""
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            if tracer is None:
                times, answers = self.run_pass()
                layers = None
            else:
                with tracer.installed():
                    times, answers = self.run_pass(tracer)
                layers = tracer.metrics()
            self.check(answers)
            passes.append((times, layers))
        return passes


def plain_run(runner: Runner, seconds: float) -> dict:
    setups = [runner.set_up() for _ in range(SETUP_REPEATS)]
    passes = runner.measure(seconds)
    per_op = [min(col) for col in zip(*(times for times, _ in passes))]
    tail_s, pct = tail(per_op)
    print(
        f"{len(passes)} passes of {len(per_op)} operations; setup_s is the median of {SETUP_REPEATS} set-ups; "
        f"wall_s is the fastest pass; op latencies are each operation's fastest pass, "
        f"op_p50_ms and op_tail_ms (p{pct:g}) are taken across the {len(per_op)} operations"
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": min(sum(times) for times, _ in passes),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(runner: Runner, seconds: float, seed: int) -> dict:
    runner.modules = load_program()
    tracer = tracing.Tracer(runner.modules)
    with tracer.installed():
        runner.workload.prepare(runner.kh)
    setup = tracer.metrics()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{runner.workload.name}-seed{seed}.tsv"
    with spans.open("w") as fh:
        tracer.write_spans(fh)
    plain = runner.measure(seconds / 2)
    traced = runner.measure(seconds / 2, tracer)
    with spans.open("a") as fh:
        tracer.write_spans(fh)

    values = {}
    for key, last in traced[-1][1].items():
        values[key] = min(layers[key] for _, layers in traced) if key.endswith("_s") else last
    for key in SETUP_LAYER:
        values["setup." + key] = setup[key]
    plain_wall = min(sum(times) for times, _ in plain)
    traced_wall = min(sum(times) for times, _ in traced)
    values["trace.overhead_s"] = traced_wall - plain_wall
    print(
        f"fastest untraced pass {plain_wall:.4f} s of {len(plain)}, fastest traced pass {traced_wall:.4f} s of "
        f"{len(traced)}; layer times are the fastest traced pass's; spans in {spans.relative_to(ROOT)}"
    )
    print(f"set-up: cone.horn_index_set calls = {setup['cone.horn_index_set.calls']}")
    for key in runner.workload.idle:
        calls = [layers[key + ".calls"] for _, layers in traced]
        print(f"isolation: {key} calls during operations = {max(calls)}")
        if max(calls):
            raise IsolationError(f"{runner.workload.name} called {key} during its operations")
    return values


def report(section: str, values: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.short:
            argv.append("--short")
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="a few operations, for the self-test")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "kleinhorn" / "__init__.py").is_file():
        print(f"error: no kleinhorn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runner = Runner(workloads.make(args.workload, args.seed, args.short))
    try:
        if args.trace:
            metrics = report("per_layer", traced_run(runner, args.seconds, args.seed))
        else:
            metrics = report("end_to_end", plain_run(runner, args.seconds))
    except (workloads.WrongOutput, IsolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": runner.attempted, "failed": runner.failed, "metrics": {}}))
        return 1
    for name, m in metrics.items():
        print(f"  {name:48} {m['value']:.6g} {m['unit']}")
    print(f"failed {runner.failed} of {runner.attempted} operations {runner.failures or ''}")
    print(json.dumps({"correct": True, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
