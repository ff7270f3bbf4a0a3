"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import (FEATURE_SQUARE, STATIONS, brute_force_space,
                      flange_project, random_contact_model, random_feasible_model,
                      sorted_set_space)

from dismantle.camera import camera_orientation, project
from dismantle.cli import main
from dismantle.control import (IBVS_GAIN, RATE_VSC_HZ, AdmittanceParams,
                               Wrench, _feature_rows, _ibvs_twist, admittance_step)
from dismantle.dspace import disassembly_space, sample_sphere, space_from_contacts
from dismantle.errors import ErrorType
from dismantle.geometry import Pose, pose_step, rotate_f
from dismantle.metrics import FaultSpec, detection_offsets, run_experiment
from dismantle.model import (AssemblyModel, Component, FeatureGeometry,
                             GeometryKind, RelationKind, Semantic,
                             SpatialRelation, Tool)
from dismantle.planner import (ManipulationPrimitive, MPKind, invert_plan,
                               plan_disassembly, plan_task, replay)
from dismantle.skills import ExecState, decompose


def _ok(n, text):
    print(f"ACCEPTANCE {n}: {text} PASS")


# ------------------------------------------------------------ criterion 1

def test_criterion_1_oracle_equivalence():
    """The mask path is bit-exact against two independent oracles: the
    per-direction predicates and the sort-and-search index sets."""
    dirs = sample_sphere(10_000, seed=0)
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        model = random_contact_model(rng, max_components=6, max_contacts=4)
        for comp in model.components:
            got = disassembly_space(model, comp.id, dirs)
            assert np.array_equal(got.mask,
                                  brute_force_space(model, comp.id, dirs)), comp.id
            assert np.array_equal(got.mask,
                                  sorted_set_space(model, comp.id, dirs)), comp.id
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"equivalence check took {elapsed:.1f}s"
    _ok(1, f"mask path bit-exact vs brute force and sorted sets on 100 models "
           f"({checked} spaces, {elapsed:.1f}s)")


# ------------------------------------------------------------ criterion 2

def test_criterion_2_hemisphere_measures():
    dirs = sample_sphere(10_000, seed=0)
    single = space_from_contacts(
        [(RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0]))], dirs)
    assert abs(single.fraction() - 0.5) <= 0.02
    double = space_from_contacts(
        [(RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0])),
         (RelationKind.PLANE_CONTACT, np.array([1.0, 0.0, 0.0]))], dirs)
    assert abs(double.fraction() - 0.25) <= 0.02
    _ok(2, f"hemisphere {single.fraction():.3f} and quarter sphere "
           f"{double.fraction():.3f} within +/-0.02")


# ------------------------------------------------------------ criterion 3

def _timed_space(model, cid, dirs, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        disassembly_space(model, cid, dirs)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_3_complexity_scaling():
    up = np.array([0.0, 0.0, 1.0])
    east = np.array([1.0, 0.0, 0.0])
    comps = (Component(id="base", semantic=Semantic.BASE),
             Component(id="c", semantic=Semantic.GENERIC_GRASPABLE,
                       pose=Pose(np.array([0.2, 0.0, 0.02]))))
    mk = lambda d: SpatialRelation(
        kind=RelationKind.PLANE_CONTACT, components=("c", "base"),
        geometry=FeatureGeometry(kind=GeometryKind.PLANE, direction=d),
        direction=d.copy())
    model = AssemblyModel(components=comps, relations=(mk(up), mk(east)),
                          tool_stations=dict(STATIONS))
    small = sample_sphere(2 ** 17, seed=0)
    large = sample_sphere(2 ** 18, seed=0)
    t_small = _timed_space(model, "c", small)
    t_large = _timed_space(model, "c", large)
    ratio = t_large / t_small
    assert ratio <= 2.5, f"scaling ratio {ratio:.2f}"
    _ok(3, f"2^17 -> 2^18 time ratio {ratio:.2f} <= 2.5")


# ------------------------------------------------------------ criterion 4

GOLD = ["getTool", "roughPos", "finePos", "processObj",
        "roughPos", "putObj", "roughPos", "putTool"]


def test_criterion_4_gold_decomposition(single_screw_model, dirs2k):
    plans = plan_task(single_screw_model, dirs2k)
    assert len(plans) == 1 and len(plans[0]) == 1
    offsets = detection_offsets(single_screw_model, 0, 0)

    streams = []
    for _ in range(2):
        state = ExecState.initial(single_screw_model, detection_noise=offsets)
        aps = decompose(plans[0].steps[0], None, state, single_screw_model)
        streams.append("\n".join(ap.to_json_line() for ap in aps))
    names = [json.loads(line)["name"] for line in streams[0].splitlines()]
    assert names == GOLD
    assert streams[0] == streams[1]  # byte-stable
    _ok(4, "single-screw twist decomposes to the 8-step gold sequence, "
           "byte-stable")


# ------------------------------------------------------------ criterion 5

def _rule_model(features: bool):
    comp = Component(
        id="part", semantic=Semantic.HOSE,
        pose=Pose(np.array([0.3, 0.0, 0.04])),
        grasp_offset=Pose(np.array([0.0, 0.0, 0.12])),
        visual_features=FEATURE_SQUARE.copy() if features else None,
        put_pose=Pose(np.array([0.55, -0.25, 0.02])))
    up = np.array([0.0, 0.0, 1.0])
    rels = (SpatialRelation(kind=RelationKind.CONCENTRIC,
                            components=("part", "base"),
                            geometry=FeatureGeometry(kind=GeometryKind.CYLINDER,
                                                     direction=up),
                            direction=up.copy()),)
    base = Component(id="base", semantic=Semantic.BASE,
                     visual_features=(FEATURE_SQUARE + [0.3, 0.0, 0.0]
                                      if features else None))
    model = AssemblyModel(components=(base, comp), relations=rels,
                          tool_stations=dict(STATIONS),
                          robot_start=Pose(np.array([0.0, -0.1, 0.35])))
    model.validate()
    return model


NEXT_CASES = {
    "none": None,
    "same_comp": ManipulationPrimitive(MPKind.PUT, "part", Tool.GRIPPER),
    "diff_comp_same_tool": ManipulationPrimitive(MPKind.PULL, "other", Tool.GRIPPER),
    "diff_tool": ManipulationPrimitive(MPKind.TWIST, "other", Tool.SCREWDRIVER),
}


def test_criterion_5_rule_truth_table():
    t0 = time.perf_counter()
    mp = ManipulationPrimitive(MPKind.PULL, "part", Tool.GRIPPER, (0.0, 0.0, 1.0))
    seen_true = {r: False for r in ("getTool", "putTool", "roughPos",
                                    "finePos", "putObj", "getObj")}
    seen_false = dict(seen_true)
    combos = 0
    for held, next_key, at_goal, features, noisy, assembly in itertools.product(
            (Tool.NONE, Tool.GRIPPER, Tool.SCREWDRIVER),
            NEXT_CASES, (True, False), (True, False), (True, False),
            (False, True)):
        model = _rule_model(features)
        mp_next = NEXT_CASES[next_key]
        noise = np.array([0.005, 0.0, 0.0]) if noisy else None
        state = ExecState.initial(
            model, detection_noise={"part": noise, "base": noise}
            if noise is not None else {})
        state.held_tool = held

        comp = model.component("part")
        if assembly:
            # reachable assembly state: the part waits at its storage pose
            state.object_poses["part"] = comp.put_pose
        engage = comp.pose.compose(comp.grasp_offset) if assembly \
            else state.object_poses["part"].compose(comp.grasp_offset)
        estimate = engage if noise is None else engage.translated(noise)
        if at_goal:
            state.robot_pose = estimate

        # independent expectations per the documented rules
        exp_get_tool = held is not Tool.GRIPPER
        exp_get_obj = assembly  # nothing carried in this grid
        if exp_get_obj:
            cursor = state.object_poses["part"].compose(comp.grasp_offset)
        elif exp_get_tool:
            cursor = model.tool_stations["gripper"]
        else:
            cursor = state.robot_pose
        exp_rough = (np.linalg.norm(estimate.position - cursor.position)
                     > 1e-3)
        exp_fine = features and noisy  # residual follows the detection error
        exp_put_obj = (mp_next is None) or (mp_next.component != "part")
        exp_put_tool = (mp_next is None) or (mp_next.tool is not Tool.GRIPPER)

        aps = decompose(mp, mp_next, state, model, assembly=assembly)
        names = [ap.name.value for ap in aps]
        got_get_tool = "getTool" in names
        got_get_obj = "getObj" in names
        process_at = names.index("processObj")
        got_rough = "roughPos" in names[:process_at]
        got_fine = "finePos" in names[:process_at]
        got_put_obj = "putObj" in names
        got_put_tool = names[-1] == "putTool"

        case = (held.value, next_key, at_goal, features, noisy, assembly)
        assert got_get_tool == exp_get_tool, case
        assert got_get_obj == exp_get_obj, case
        assert got_rough == exp_rough, case
        assert got_fine == exp_fine, case
        assert got_put_obj == exp_put_obj, case
        assert got_put_tool == exp_put_tool, case
        for rule, value in (("getTool", got_get_tool), ("putTool", got_put_tool),
                            ("roughPos", got_rough), ("finePos", got_fine),
                            ("putObj", got_put_obj), ("getObj", got_get_obj)):
            seen_true[rule] |= value
            seen_false[rule] |= not value
        combos += 1
    elapsed = time.perf_counter() - t0
    assert all(seen_true.values()) and all(seen_false.values())
    assert elapsed < 1.0, f"truth table took {elapsed:.2f}s"
    _ok(5, f"slot emission matches all six rules over {combos} reachable "
           f"combinations ({elapsed:.2f}s)")


# ------------------------------------------------------------ criterion 6

def test_criterion_6_admittance_force_tracking():
    params = AdmittanceParams()
    dt = 1.0 / params.rate_hz
    spring = 10_000.0
    for f_des in (10.0, 20.0, 30.0):
        x, filt = 0.0, (np.zeros(6), np.zeros(6))
        u = np.zeros(6)
        for _ in range(int(10.0 / dt)):
            f_act = spring * max(0.0, x)
            u, filt = admittance_step(params, Wrench(np.array([f_des, 0, 0])),
                                      Wrench(np.array([f_act, 0, 0])), filt)
            x += u[0] * dt
        f_act = spring * max(0.0, x)
        assert abs(f_act - f_des) <= 0.02 * f_des, f_des
        assert abs(u[0]) < 1e-4, f_des

    # DC gain per axis within 1 percent after 5 s of constant input
    filt = (np.zeros(6), np.zeros(6))
    e = np.array([10.0, -20.0, 5.0, 1.0, -2.0, 0.5])
    f_des = Wrench(e[:3], e[3:])
    for _ in range(int(5.0 / dt)):
        u, filt = admittance_step(params, f_des, Wrench(), filt)
    expected = e / params.stiffness
    assert np.all(np.abs(u - expected) <= np.abs(expected) * 0.01)
    _ok(6, "force tracking settles within 2% with |v| < 1e-4 in 10 s; "
           "DC gain 1/500 per axis within 1%")


# ------------------------------------------------------------ criterion 7

IBVS_POINTS = np.array([[0.35, 0.05, 0.02], [0.25, 0.05, 0.02],
                        [0.25, -0.05, 0.02], [0.35, -0.05, 0.035]])


def test_criterion_7_ibvs_convergence():
    goal = Pose(np.array([0.3, 0.0, 0.20]))
    f_des, _ = flange_project(IBVS_POINTS, goal)
    dt = 1.0 / RATE_VSC_HZ
    offsets = [np.array([0.05, 0.0, 0.0]), np.array([0.0, 0.05, 0.0]),
               np.array([0.0, 0.0, 0.05]), np.array([0.0, 0.0, -0.05]),
               np.array([0.03, 0.03, np.sqrt(0.05 ** 2 - 2 * 0.03 ** 2)])]
    worst = 0.0
    for off in offsets:
        assert abs(np.linalg.norm(off) - 0.05) < 1e-9
        pose = Pose(goal.position + off)
        for _ in range(int(60.0 / dt)):
            p, q = pose.as_floats()
            q_cam = camera_orientation(p, q)
            px, z = project(IBVS_POINTS.tolist(), p, q_cam)
            if np.max(np.abs(np.array(px) - f_des)) <= 0.5:
                break
            u_cam = _ibvs_twist(f_des.tolist(), px, z)
            pose = pose_step(pose, rotate_f(q_cam, u_cam[:3]),
                             rotate_f(q_cam, u_cam[3:]), dt)
        err = float(np.linalg.norm(pose.position - goal.position))
        worst = max(worst, err)
        assert err <= 0.0012, off

    # ideal plant: feature error decays as exp(-gain * t) within 5%
    start = Pose(goal.position + np.array([0.05, 0.0, 0.0]))
    feats, z = flange_project(IBVS_POINTS, start)
    e0 = np.linalg.norm(feats - f_des)
    deviation = 0.0
    for i in range(int(10.0 / dt) + 1):
        ideal = e0 * np.exp(-IBVS_GAIN * i * dt)
        deviation = max(deviation,
                        abs(np.linalg.norm(feats - f_des) - ideal) / ideal)
        jac = np.array(list(_feature_rows(feats.tolist(), z.tolist())))
        u = np.array(_ibvs_twist(f_des.tolist(), feats.tolist(), z.tolist()))
        feats = feats + jac @ u * dt
    assert deviation <= 0.05
    _ok(7, f"5 start poses at 0.05 m converge to <= {worst * 1000:.2f} mm; "
           f"ideal decay within {deviation * 100:.1f}% of exp(-0.125 t)")


# ------------------------------------------------------------ criterion 8

def test_criterion_8_valve_end_to_end(valve_model, dirs2k):
    plans = plan_task(valve_model, dirs2k)
    assert sum(len(p) for p in plans) == 12

    clean, clean_runs = run_experiment(plans, valve_model, repetitions=5, seed=0)
    assert clean.success_rate == 1.0
    for run in clean_runs:
        assert run.total_units - sum(run.buckets.values()) == 0

    faulted, fault_runs = run_experiment(plans, valve_model, repetitions=5,
                                         seed=0,
                                         faults=[FaultSpec("tool_slip", 2)])
    assert faulted.success_rate == 0.8
    assert faulted.failures == [(2, ErrorType.DEVICE)]
    for run in fault_runs:
        assert run.total_units - sum(run.buckets.values()) == 0
    _ok(8, "valve task: |MP|=12, S=1 clean, S=0.8 with a device fault, "
           "bucket identity exact per repetition")


# ------------------------------------------------------------ criterion 9

def test_criterion_9_plan_validity_property():
    dirs = sample_sphere(1200, seed=0)
    rng = np.random.default_rng(77)
    for i in range(100):
        model = random_feasible_model(rng, max_extra=4)
        plan = plan_disassembly(model, dirs)
        end = replay(model, dirs, plan)  # raises on any inapplicable step
        if model.target is not None:
            assert model.target in end.removed, i
        else:
            base = model.base_id
            assert all(c.id == base or c.id in end.removed
                       for c in model.components), i
        twice = invert_plan(invert_plan(plan))
        assert twice.steps == plan.steps
        assert twice.assembly == plan.assembly
        for mp_twice, mp in zip(twice.steps, plan.steps):
            if mp.direction is not None:
                assert np.allclose(mp_twice.direction, mp.direction)
    _ok(9, "100 random feasible models replay cleanly and remove the target; "
           "invert o invert is the identity")


# ------------------------------------------------------------ criterion 10

def test_criterion_10_simulation_determinism(tmp_path, valve_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["simulate", str(valve_path), "--samples", "2000",
                     "--seed", "3", "--reps", "2", "--out", str(out)])
        assert code == 0
        outs.append(out)
    a, b = outs
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    _ok(10, f"two simulate runs byte-identical across {len(files_a)} "
            f"output files")
