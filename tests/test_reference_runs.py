"""Pinned behavioural reference: per-repetition bucket units, outcomes and
error classes, the valve decompose stream, for every bundled scenario the
plan document and the sha256 of the decompose stream, the valve plan document
at 1M samples, the sha256 of three sampled spheres, and the sha256 of the raw
tick rows and skill end poses of three runs, compared exactly.

Bucket units are integer 10 ms clock units, so a faithful rewrite of the
geometry, control or skill layers reproduces them exactly; a last-ulp change
that moves a stop condition by one tick shows up here.  The tick digests hash
every row's command, wrench and feature error as raw float64 bytes, so they
also catch a last-ulp change that moves no stop.  The expected data in
``data/reference_runs.json`` is regenerated only on purpose, with

    PYTHONPATH=src python tests/test_reference_runs.py

and the reason recorded in CHANGES.md.  Never compare with a tolerance.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

from dismantle.cli import _dry_executor, _graph_summary
from dismantle.dspace import build_graph, sample_sphere
from dismantle.errors import PlanInfeasible
from dismantle.metrics import FaultSpec, detection_offsets, execute_once
from dismantle.model import load_model
from dismantle.planner import plan_task
from dismantle.skills import ExecState, interpret

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
REFERENCE = HERE / "data" / "reference_runs.json"
SEED = 0
SAMPLES = 2000
SCENARIO_NAMES = ("valve", "single_screw", "empty_target", "blocked")
# (n, seed) of the pinned spheres
SPHERES = ((2000, 0), (10_000, 3), (1_000_000, 7))


def _task(name: str):
    model = load_model(SCENARIOS / f"{name}.json")
    return plan_task(model, sample_sphere(SAMPLES, SEED)), model


def _results(name: str, reps: int, faults=None) -> list:
    plans, model = _task(name)
    return [execute_once(plans, model, seed=SEED, repetition=rep, faults=faults,
                         collect_rows=True)
            for rep in range(reps)]


def _summary(res) -> dict:
    return {"buckets": dict(res.buckets), "outcome": res.outcome,
            "error": None if res.error is None else res.error.value}


def _tick_sha256(res) -> str:
    """Digest of one repetition's tick rows and skill end poses, bit for bit."""
    h = hashlib.sha256()
    for row in res.rows:
        h.update(f"{row.t_units} {row.controller}\n".encode("utf-8"))
        h.update(row.u.tobytes())
        h.update(row.wrench.tobytes())
        h.update(struct.pack("<d", row.feat_err_px))
    for record in res.trace.records:
        h.update(record.result.end_pose.position.tobytes())
        h.update(record.result.end_pose.orientation.tobytes())
    return h.hexdigest()


def _decompose_aps(name: str):
    plans, model = _task(name)
    state = ExecState.initial(model, detection_noise=detection_offsets(model, SEED, 0))
    trace = interpret(plans, state, model, _dry_executor)
    return [record.ap for record in trace.records]


def _decompose_names(name: str) -> list[str]:
    return [ap.name.value for ap in _decompose_aps(name)]


def _decompose_sha256(name: str) -> str | None:
    """Digest of the `dismantle decompose` stdout, or None for an infeasible plan."""
    try:
        aps = _decompose_aps(name)
    except PlanInfeasible:
        return None
    text = "".join(ap.to_json_line() + "\n" for ap in aps) or "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sphere_sha256(n: int, seed: int) -> str:
    """Digest of a sampled sphere's directions, which must be a read-only,
    column-major (n, 3) array."""
    directions = sample_sphere(n, seed).directions
    assert directions.shape == (n, 3)
    assert directions.flags.f_contiguous and not directions.flags.writeable
    return hashlib.sha256(directions.tobytes()).hexdigest()


def _plan_doc(name: str, samples: int = SAMPLES) -> dict:
    """Plans and mobility graph as `dismantle plan` prints them."""
    model = load_model(SCENARIOS / f"{name}.json")
    dirs = sample_sphere(samples, SEED)
    try:
        plans = plan_task(model, dirs)
    except PlanInfeasible as exc:
        return {"infeasible": str(exc)}
    return {"plans": [{"assembly": p.assembly, "steps": p.to_json()} for p in plans],
            "sdof_graph": _graph_summary(build_graph(model, dirs))}


def collect() -> dict:
    single_screw = _results("single_screw", 5)
    valve = _results("valve", 2)
    faulted = {kind: _results("single_screw", 1, [FaultSpec(kind, 0, sigma=6.0)])
               for kind in ("tool_slip", "force_noise", "feature_dropout")}
    return {
        "seed": SEED,
        "samples": SAMPLES,
        "single_screw": [_summary(r) for r in single_screw],
        "valve": [_summary(r) for r in valve],
        "single_screw_faults": {kind: [_summary(r) for r in runs]
                                for kind, runs in faulted.items()},
        "tick_sha256": {"valve": _tick_sha256(valve[0]),
                        "single_screw": _tick_sha256(single_screw[0]),
                        "single_screw_force_noise": _tick_sha256(faulted["force_noise"][0])},
        "valve_decompose": _decompose_names("valve"),
        "plan": {name: _plan_doc(name) for name in SCENARIO_NAMES},
        "decompose_sha256": {name: _decompose_sha256(name) for name in SCENARIO_NAMES},
        "plan_1m": {"valve": _plan_doc("valve", 1_000_000)},
        "sphere_sha256": {f"{n}_{seed}": _sphere_sha256(n, seed) for n, seed in SPHERES},
    }


def test_reference_runs_unchanged():
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert collect() == expected


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
