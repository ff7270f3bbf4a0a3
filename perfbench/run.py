"""Offline benchmark of the dismantle pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs ops back to back (a closed
loop, no extra threads) for S seconds after a warm-up, checks every output
and prints one line per metric, then the result as a JSON object on the last
line.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 a separate traced run reports the per-layer
metrics.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from workloads import HERE, ROOT, SRC, WORK, WORKLOADS, scenario_status

SETUP_REPEATS = 12
IMPORT_REPEATS = 5
WARMUP_OPS = 2
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
OVERHEAD_S = 2.0  # untraced re-run of the last ops, to measure tracing cost


@dataclass
class Op:
    wall: float | None
    error: str | None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def run_op(workload, i: int, tracer, seen_errors: set) -> Op:
    try:
        if tracer is None:
            info = workload.op(i)
        else:
            tracer.op = i
            info = tracer.call("bench.op", workload.op, i)
    except Exception as exc:  # the op loop keeps going and counts the failure
        lines = str(exc).strip().splitlines()
        error = f"{type(exc).__name__}: {lines[-1] if lines else ''}"
        if error not in seen_errors:
            seen_errors.add(error)
            traceback.print_exc(file=sys.stderr)
        return Op(None, error)
    return Op(info["wall"], None, info["problems"])


def run_ops(workload, seconds: float, tracer=None, between=None,
            every: float = 0.0) -> tuple[list[Op], list[Op]]:
    """Warm-up ops, then ops back to back for `seconds`.

    `between()`, if given, runs between two ops every `every` seconds; its
    time is not part of any op.
    """
    seen: set[str] = set()
    warmup = [run_op(workload, i, tracer, seen) for i in range(WARMUP_OPS)]
    ops: list[Op] = []
    start = time.perf_counter()
    deadline, next_between = start + seconds, start
    while time.perf_counter() < deadline:
        if between is not None and time.perf_counter() >= next_between:
            between()
            next_between += every
        ops.append(run_op(workload, WARMUP_OPS + len(ops), tracer, seen))
    return warmup, ops


class FreshInterpreter:
    """Times whole runs of a Python command in a fresh interpreter."""

    def __init__(self, args: list[str], what: str):
        self.cmd = [sys.executable, *args]
        self.what = what
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
        self.walls: list[float] = []
        self.outputs: list[str] = []
        self.run(keep=False)  # bytecode warm-up

    def run(self, keep: bool = True) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True,
                              env=self.env, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["(no stderr)"]
            raise RuntimeError(f"{self.what} exited {proc.returncode}: {lines[-1]}")
        if keep:
            self.walls.append(wall)
            self.outputs.append(proc.stdout)


def report_ops(ops: list[Op]) -> tuple[int, int]:
    failed = [o for o in ops if not o.ok]
    tally: dict[str, int] = {}
    for o in failed:
        for msg in ([o.error] if o.error else o.problems):
            tally[msg] = tally.get(msg, 0) + 1
    for msg, k in sorted(tally.items(), key=lambda kv: -kv[1]):
        print(f"failed op x{k}: {msg}")
    print(f"ops attempted={len(ops)} failed={len(failed)}")
    return len(ops), len(failed)


def timing_summary(walls: list[float]) -> str:
    """Sample count, median and the highest percentile with ten samples beyond it."""
    text = f"n={len(walls)} p50={statistics.median(walls) * 1e3:.6g}"
    if len(walls) >= 2:
        cuts = statistics.quantiles(walls, n=1000, method="inclusive")
        for p in PERCENTILES:
            if len(walls) * (1 - p / 100) >= 10:
                text += f" p{p:g}={cuts[round(p * 10) - 1] * 1e3:.6g}"
                break
    return text


def untraced_run(workload, seconds: float) -> tuple[list[Op], dict]:
    setup = FreshInterpreter([str(HERE / "setup_child.py"), workload.name,
                              str(workload.seed)], "set-up")
    workload.setup()
    # set-up samples are spread over the run, so a burst of load on the host
    # moves few of them
    warmup, ops = run_ops(workload, seconds, between=setup.run,
                          every=seconds / SETUP_REPEATS)
    setup_s = statistics.median(setup.walls)
    print(f"setup_s={setup_s:.6g} (median of {len(setup.walls)} fresh interpreters)")
    walls = [o.wall for o in ops if o.ok]
    values = {"setup_s": setup_s, "peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if walls:
        values["op_wall_ms_p50"] = statistics.median(walls) * 1e3
        print(f"op wall ms: {timing_summary(walls)}; "
              f"{len(walls) / sum(walls):.6g} ops per second of op time")
    return warmup + ops, values


def traced_run(workload, seconds: float) -> tuple[list[Op], dict]:
    from layers import counts, print_layer_shares
    from probes import run_probes
    from tracer import Tracer

    values = run_probes()
    cli = FreshInterpreter(["-c", "import time\nt = time.perf_counter()\n"
                            "import dismantle.cli\nprint(time.perf_counter() - t)\n"],
                           "import dismantle.cli")
    for _ in range(IMPORT_REPEATS):
        cli.run()
    values["cli.import_s"] = statistics.median(float(out) for out in cli.outputs)

    tracer = Tracer()
    workload.setup()
    tracer.install()
    t0 = time.perf_counter()
    try:
        warmup, ops = run_ops(workload, seconds, tracer)
    finally:
        traced_wall = time.perf_counter() - t0
        tracer.uninstall()

    # tracing overhead: the last ops again, untraced, on the same inputs
    rerun: list[Op] = []
    end = time.perf_counter() + OVERHEAD_S
    while len(rerun) < len(ops) and (not rerun or time.perf_counter() < end):
        rerun.append(run_op(workload, WARMUP_OPS + len(ops) - 1 - len(rerun), None, set()))
    pairs = [(t.wall, u.wall) for t, u in zip(reversed(ops), rerun) if t.ok and u.ok]
    if pairs:
        traced, untraced = (statistics.median(w) for w in zip(*pairs))
        print(f"trace overhead: {(traced - untraced) * 1e3:+.6g} ms per op "
              f"({traced / untraced - 1:+.2%}); median of the last {len(pairs)} ops "
              f"traced {traced * 1e3:.6g} ms, untraced {untraced * 1e3:.6g} ms")
    print_layer_shares(tracer.spans, traced_wall)
    spans_path = WORK / f"spans_{workload.name}.json"
    spans_path.write_text(json.dumps([[s.name, s.start, s.end, s.parent, s.op, s.attrs]
                                      for s in tracer.spans]), encoding="utf-8")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    if ops:
        values.update(counts(tracer.spans, len(warmup) + len(ops)))
    return warmup + ops + rerun, values


def environment() -> str:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} machine={cpu} nproc={os.cpu_count()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dismantle" / "__init__.py").is_file():
        print(f"error: no dismantle package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    print(environment())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(scenario_status())
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else untraced_run
    ops, values = run(workload, args.seconds)

    attempted, failed = report_ops(ops)
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}: no op succeeded",
              file=sys.stderr)
        return 1
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
