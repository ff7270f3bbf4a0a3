"""Pinned behavioural reference: per-repetition bucket units, outcomes and
error classes, the valve decompose stream, for every bundled scenario the
plan document and the sha256 of the decompose stream, the valve plan document
at 1M samples, the sha256 of three sampled spheres, the sha256 of the raw
tick rows and skill end poses of three runs, next to each of those one digest
per skill, and the sha256 of one run's tick CSV, compared exactly.

Bucket units are integer 10 ms clock units, so a faithful rewrite of the
geometry, control or skill layers reproduces them exactly; a last-ulp change
that moves a stop condition by one tick shows up here.  The tick digests hash
every row's command, wrench and feature error as raw float64 bytes, so they
also catch a last-ulp change that moves no stop; the per-skill entries say
which skill moved first, and whether its tick count or only its bits did.
The expected data in ``data/reference_runs.json`` is regenerated only on
purpose, with

    PYTHONPATH=src python tests/test_reference_runs.py

and the reason recorded in CHANGES.md.  Never compare with a tolerance.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dismantle import metrics
from dismantle.cli import _dry_executor, _graph_summary
from dismantle.control import BUCKET_N
from dismantle.dspace import build_graph, sample_sphere
from dismantle.errors import PlanInfeasible, SingularJacobian, SkillTimeout
from dismantle.metrics import FaultSpec, detection_offsets, execute_once, write_tick_csv
from dismantle.model import load_model
from dismantle.planner import plan_task
from dismantle.skills import ExecState, interpret

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
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
    """(result, per-skill entries) of each repetition."""
    plans, model = _task(name)
    return [_execute(plans, model, rep, faults) for rep in range(reps)]


def _execute(plans, model, rep: int, faults):
    """One repetition, with one ``_skill_entry`` per ``run_skill`` call, taken
    by wrapping the ``run_skill`` that ``metrics`` calls."""
    skills = []
    run_skill = metrics.run_skill

    def recorded(ap, state, **kwargs):
        try:
            plant, log = run_skill(ap, state, **kwargs)
        except (SkillTimeout, SingularJacobian) as exc:
            skills.append(_skill_entry(ap, exc.log, exc.state.pose))
            raise
        skills.append(_skill_entry(ap, log, plant.pose))
        return plant, log

    metrics.run_skill = recorded
    try:
        res = execute_once(plans, model, seed=SEED, repetition=rep, faults=faults,
                           collect_rows=True)
    finally:
        metrics.run_skill = run_skill
    return res, skills


def _summary(res) -> dict:
    return {"buckets": dict(res.buckets), "outcome": res.outcome,
            "error": None if res.error is None else res.error.value}


def _hash_rows(h, rows) -> None:
    for row in rows:
        h.update(f"{row.t_units} {row.controller}\n".encode("utf-8"))
        h.update(np.array(row.u_floats).tobytes())
        h.update(np.array(row.wrench_floats).tobytes())
        h.update(struct.pack("<d", row.feat_err_px))


def _hash_pose(h, pose) -> None:
    h.update(pose.position.tobytes())
    h.update(pose.orientation.tobytes())


def _tick_sha256(res) -> str:
    """Digest of one repetition's tick rows and skill end poses, bit for bit."""
    h = hashlib.sha256()
    _hash_rows(h, res.rows)
    for record in res.trace.records:
        _hash_pose(h, record.result.end_pose)
    return h.hexdigest()


def _skill_entry(ap, log, end_pose) -> dict:
    """One skill's name, controller, stop, tick count, and the digest of its
    tick rows and end pose."""
    h = hashlib.sha256()
    _hash_rows(h, log.rows)
    _hash_pose(h, end_pose)
    return {"skill": ap.name.value, "controller": log.controller,
            "stopped_by": log.stopped_by,
            "ticks": sum(row.controller != BUCKET_N for row in log.rows),
            "sha256": h.hexdigest()}


def _first_moved_skill(expected: list[dict], actual: list[dict]) -> str | None:
    """Where two runs' per-skill entries first differ, in words; None if
    they agree."""
    for i, (want, got) in enumerate(zip(expected, actual)):
        if want == got:
            continue
        where = f"skill {i} ({want['skill']}, {want['controller']})"
        if (want["skill"], want["controller"]) != (got["skill"], got["controller"]):
            return f"{where} is now {got['skill']}, {got['controller']}"
        if want["ticks"] != got["ticks"] or want["stopped_by"] != got["stopped_by"]:
            return (f"{where} moved its tick count: {want['ticks']} ticks, stopped "
                    f"by {want['stopped_by']}; now {got['ticks']}, {got['stopped_by']}")
        return f"{where} kept its {want['ticks']} ticks, but its bits moved"
    if len(expected) != len(actual):
        return f"{len(expected)} skills ran, now {len(actual)}"
    return None


def _csv_sha256(res) -> str:
    """Digest of the bytes ``write_tick_csv`` writes for one repetition."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ticks.csv"
        write_tick_csv(res.rows, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


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
    # the runs whose ticks are pinned, as (result, per-skill entries)
    ticked = {"valve": valve[0], "single_screw": single_screw[0],
              "single_screw_force_noise": faulted["force_noise"][0]}
    return {
        "seed": SEED,
        "samples": SAMPLES,
        "single_screw": [_summary(r) for r, _ in single_screw],
        "valve": [_summary(r) for r, _ in valve],
        "single_screw_faults": {kind: [_summary(r) for r, _ in runs]
                                for kind, runs in faulted.items()},
        "tick_sha256": {run: _tick_sha256(r) for run, (r, _) in ticked.items()},
        "skill_sha256": {run: skills for run, (_, skills) in ticked.items()},
        "tick_csv_sha256": {"single_screw": _csv_sha256(single_screw[0][0])},
        "valve_decompose": _decompose_names("valve"),
        "plan": {name: _plan_doc(name) for name in SCENARIO_NAMES},
        "decompose_sha256": {name: _decompose_sha256(name) for name in SCENARIO_NAMES},
        "plan_1m": {"valve": _plan_doc("valve", 1_000_000)},
        "sphere_sha256": {f"{n}_{seed}": _sphere_sha256(n, seed) for n, seed in SPHERES},
    }


def test_reference_runs_unchanged():
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))
    actual = collect()
    for run, skills in expected["skill_sha256"].items():
        moved = _first_moved_skill(skills, actual["skill_sha256"][run])
        assert moved is None, f"{run}: {moved}"
    assert actual == expected


def test_first_moved_skill_names_the_skill_and_what_moved():
    entry = {"skill": "rough_pos", "controller": "path", "stopped_by": "stop",
             "ticks": 40, "sha256": "a"}
    bits = dict(entry, sha256="b")
    count = dict(entry, ticks=41, sha256="b")
    assert _first_moved_skill([entry, entry], [entry, entry]) is None
    assert _first_moved_skill([entry, entry], [entry, bits]) == (
        "skill 1 (rough_pos, path) kept its 40 ticks, but its bits moved")
    assert _first_moved_skill([entry, entry], [count, bits]) == (
        "skill 0 (rough_pos, path) moved its tick count: 40 ticks, stopped by "
        "stop; now 41, stop")
    assert _first_moved_skill([entry], [entry, entry]) == "1 skills ran, now 2"


def _single_screw_ticks() -> dict:
    """``tick_sha256`` and ``skill_sha256`` of single_screw's repetition 0."""
    res, skills = _results("single_screw", 1)[0]
    return {"tick_sha256": _tick_sha256(res), "skill_sha256": skills}


def _cpu_has_avx2() -> bool:
    """Whether the CPU runs AVX2, as the Haswell and Zen kernels need (read
    from Linux's /proc/cpuinfo; False where there is none)."""
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text(encoding="utf-8").split()
    except OSError:
        return False


@pytest.mark.skipif(not _cpu_has_avx2(), reason="the AVX2 kernels cannot run here")
@pytest.mark.parametrize("coretype", ["Haswell", "Zen"])
def test_ticks_do_not_depend_on_the_avx2_blas_kernels(coretype):
    """single_screw's repetition 0, with its visual-servoing skills, gives the
    same tick and skill digests in a process that forces OpenBLAS's Haswell or
    Zen kernels as in this one.

    ``OPENBLAS_CORETYPE`` picks the kernel set of an OpenBLAS that chooses its
    kernels at run time (a DYNAMIC_ARCH build, as numpy's wheels ship), as an
    AVX2 CPU without AVX-512 would.  Where numpy's BLAS is not such an
    OpenBLAS, the variable is ignored and both runs use the same kernels.
    """
    code = ("import json, test_reference_runs as t; "
            "print(json.dumps(t._single_screw_ticks()))")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _single_screw_ticks()


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
