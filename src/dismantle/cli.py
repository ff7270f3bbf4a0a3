"""Command-line front end: plan, decompose, simulate and report.

Data goes to stdout or the requested output location; diagnostics go to
stderr.  Exit codes: 1 parse error (a --samples too large to sample
included), an output that cannot be written or stdout closed early, 2
validation error, 3 infeasible plan or, in decompose, a plan step that cannot
be decomposed (a missing tool station).
All commands are deterministic for a fixed (scenario, samples, seed) triple
and never modify the scenario file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .dspace import DEFAULT_SAMPLES, build_graph, sample_sphere
from .errors import (ParseError, PlanInfeasible, UnresolvableGoal,
                     ValidationError)
from .geometry import Pose
from .metrics import (aggregate, detection_offsets, load_fault_specs,
                      run_experiment, write_tick_csv, RunResult)
from .model import check_keys, load_model, read_json
from .planner import plan_task
from .skills import (ExecState, SkillName, StepResult, StopKind, interpret)


_EXIT_CODES = {ParseError: 1, ValidationError: 2, PlanInfeasible: 3,
               UnresolvableGoal: 3}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n",
                             encoding="utf-8")


def _graph_summary(graph) -> dict:
    edges = []
    for (a, b), label in sorted(graph.edges.items()):
        if a > b:
            continue
        edges.append({
            "pair": [a, b],
            "label": label.value.value,
            "axis": None if label.axis is None else [float(x) for x in label.axis],
            "rot_axis": (None if label.rot_axis is None
                         else [float(x) for x in label.rot_axis]),
        })
    return {"nodes": list(graph.nodes), "edges": edges}


def _load_and_plan(args):
    """Preamble of plan, decompose and simulate: check --samples and --seed,
    then load, sample and plan.  Its errors are reported by ``main``."""
    if args.samples < 1:
        raise ParseError("--samples must be >= 1")
    if args.seed < 0:
        raise ParseError("--seed must be >= 0")
    model = load_model(args.scenario)
    try:
        dirs = sample_sphere(args.samples, args.seed)
    except (MemoryError, ValueError):  # no memory for it, or past numpy's size limit
        raise ParseError(f"--samples {args.samples} is too large to sample") from None
    return model, dirs, plan_task(model, dirs)


def cmd_plan(args) -> int:
    model, dirs, plans = _load_and_plan(args)
    graph = build_graph(model, dirs)
    doc = {
        "samples": args.samples,
        "seed": args.seed,
        "mp_count": sum(len(p) for p in plans),
        "plans": [{"assembly": p.assembly, "steps": p.to_json()} for p in plans],
        "sdof_graph": _graph_summary(graph),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    return 0


def _dry_executor(ap, state) -> StepResult:
    """Kinematic stand-in: jumps to each motion goal without dynamics."""
    if ap.stop.kind is StopKind.POSE_REACHED:
        end = Pose.from_rotvec(ap.stop.target[:3], ap.stop.target[3:])
    elif ap.name is SkillName.FINE_POS and ap.goal_pose is not None:
        end = ap.goal_pose
    else:
        end = state.robot_pose
    return StepResult(ok=True, end_pose=end)


def cmd_decompose(args) -> int:
    model, _, plans = _load_and_plan(args)
    offsets = detection_offsets(model, args.seed, repetition=0)
    state = ExecState.initial(model, detection_noise=offsets)
    trace = interpret(plans, state, model, _dry_executor)
    lines = [record.ap.to_json_line() for record in trace.records]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_simulate(args) -> int:
    # a bad --faults or --reps fails before planning, not after
    faults = load_fault_specs(args.faults) if args.faults else []
    if args.reps < 1:
        raise ParseError("--reps must be >= 1")
    model, _, plans = _load_and_plan(args)
    collect = args.out is not None
    if collect:  # an unwritable --out fails before the simulation, not after
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    report, results = run_experiment(plans, model, repetitions=args.reps,
                                     faults=faults, seed=args.seed,
                                     collect_rows=collect)
    if collect:
        (out / "report.json").write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        (out / "report.txt").write_text(report.format_table() + "\n",
                                        encoding="utf-8")
        runs_doc = {"mp_count": report.mp_count,
                    "runs": [r.to_json() for r in results]}
        (out / "runs.json").write_text(
            json.dumps(runs_doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        for r in results:
            write_tick_csv(r.rows, out / f"rep_{r.repetition:02d}_ticks.csv")
    print(report.format_table())
    return 0


def cmd_report(args) -> int:
    runs_path = Path(args.out) / "runs.json"
    what = f"cannot aggregate {runs_path}"
    doc = read_json(runs_path, what)
    try:
        if not isinstance(doc, dict):
            raise ValueError("expected an object with mp_count and runs, "
                             f"not {doc!r:.40}")
        check_keys(doc, ("mp_count", "runs"))
        for key in ("mp_count", "runs"):
            if key not in doc:
                raise ValueError(f"the object has no {key} key")
        mp_count, runs = doc["mp_count"], doc["runs"]
        if type(mp_count) is not int or mp_count < 0:
            raise ValueError(f"mp_count must be an int >= 0: {mp_count!r:.40}")
        if not isinstance(runs, list):
            raise ValueError(f"runs must be a list of run entries: {runs!r:.40}")
        report = aggregate([RunResult.from_json(e, f"runs[{i}]")
                            for i, e in enumerate(runs)], mp_count)
    except (TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"{what}: {exc}") from None
    print(report.format_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dismantle",
        description="Plan, decompose and simulate disassembly/assembly tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="sphere sample count (default %(default)s)")
        p.add_argument("--seed", type=int, default=0)

    p_plan = sub.add_parser("plan", help="compute the primitive plan")
    common(p_plan)
    p_plan.add_argument("--out", default=None, help="write JSON here")
    p_plan.set_defaults(func=cmd_plan)

    p_dec = sub.add_parser("decompose", help="emit the skill-primitive stream")
    common(p_dec)
    p_dec.add_argument("--out", default=None, help="write JSON lines here")
    p_dec.set_defaults(func=cmd_decompose)

    p_sim = sub.add_parser("simulate", help="run the plan on the simulated robot")
    common(p_sim)
    p_sim.add_argument("--reps", type=int, default=5)
    p_sim.add_argument("--faults", default=None, help="fault spec JSON file")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="re-aggregate an existing run directory")
    p_rep.add_argument("--out", required=True, help="directory with runs.json")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush at
        # interpreter exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
