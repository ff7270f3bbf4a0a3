import re

import numpy as np
import pytest

from conftest import FEATURE_SQUARE, STATIONS

from dismantle.errors import ErrorType, UnresolvableGoal
from dismantle.geometry import Pose
from dismantle.metrics import detection_offsets
from dismantle.model import (AssemblyModel, Component, FeatureGeometry,
                             GeometryKind, RelationKind, Semantic,
                             SpatialRelation, Tool)
from dismantle.planner import ManipulationPrimitive, MPKind, Plan, plan_task
from dismantle.skills import (IDLE_TOOL, ControlMode, ExecState, HybridMove,
                              SkillName, SkillPrimitive, StepResult, StopCondition,
                              StopKind, TaskFrame, ToolCmd, ToolCommand,
                              decompose, interpret, rule_get_obj,
                              rule_get_tool, rule_put_obj, rule_put_tool,
                              rule_rough_pos)

UP = np.array([0.0, 0.0, 1.0])


def _mk_model(with_features=True, with_put=True, semantic=Semantic.GENERIC_GRASPABLE):
    comp = Component(
        id="part", semantic=semantic,
        pose=Pose(np.array([0.3, 0.0, 0.04])),
        grasp_offset=Pose(np.array([0.0, 0.0, 0.12])),
        visual_features=FEATURE_SQUARE.copy() if with_features else None,
        put_pose=Pose(np.array([0.55, -0.25, 0.02])) if with_put else None)
    rel = SpatialRelation(
        kind=RelationKind.PLANE_CONTACT, components=("part", "base"),
        geometry=FeatureGeometry(kind=GeometryKind.PLANE, direction=UP),
        direction=UP.copy())
    model = AssemblyModel(
        components=(Component(id="base", semantic=Semantic.BASE,
                              visual_features=FEATURE_SQUARE + [0.3, 0, 0]),
                    comp),
        relations=(rel,), tool_stations=dict(STATIONS),
        robot_start=Pose(np.array([0.0, -0.1, 0.35])))
    model.validate()
    return model


def _state(model, noise=0.005, seed=0, **kw):
    offs = {c.id: np.array([noise, 0.0, 0.0]) for c in model.components} if noise else {}
    st = ExecState.initial(model, detection_noise=offs)
    for k, v in kw.items():
        setattr(st, k, v)
    return st


# ---------------------------------------------------------------- rules

def test_rule_get_tool_truth_table():
    cases = [
        (Tool.NONE, Tool.SCREWDRIVER, True),
        (Tool.SCREWDRIVER, Tool.SCREWDRIVER, False),
        (Tool.GRIPPER, Tool.SCREWDRIVER, True),
        (Tool.NONE, Tool.GRIPPER, True),
        (Tool.GRIPPER, Tool.GRIPPER, False),
        (Tool.SCREWDRIVER, Tool.GRIPPER, True),
    ]
    for held, required, want in cases:
        assert rule_get_tool(held, required) is want, (held, required)


def test_rule_put_tool():
    nxt_same = ManipulationPrimitive(MPKind.MOVE, "x", Tool.GRIPPER)
    nxt_diff = ManipulationPrimitive(MPKind.TWIST, "y", Tool.SCREWDRIVER)
    assert rule_put_tool(Tool.GRIPPER, None) is True          # plan ends
    assert rule_put_tool(Tool.GRIPPER, nxt_same) is False
    assert rule_put_tool(Tool.GRIPPER, nxt_diff) is True
    assert rule_put_tool(Tool.NONE, None) is False            # nothing to stow


def test_rule_rough_pos():
    a = Pose(np.array([0.0, 0.0, 0.0]))
    near = Pose(np.array([0.0005, 0.0, 0.0]))
    far = Pose(np.array([0.1, 0.0, 0.0]))
    assert rule_rough_pos(a, far) is True
    assert rule_rough_pos(a, near) is False
    assert rule_rough_pos(a, a) is False


def test_rule_put_obj():
    mp = ManipulationPrimitive(MPKind.PULL, "a", Tool.GRIPPER)
    nxt_same = ManipulationPrimitive(MPKind.PUT, "a", Tool.GRIPPER)
    nxt_diff = ManipulationPrimitive(MPKind.PULL, "b", Tool.GRIPPER)
    assert rule_put_obj(None, mp, None) is False
    assert rule_put_obj("a", mp, nxt_same) is False
    assert rule_put_obj("a", mp, nxt_diff) is True
    assert rule_put_obj("a", mp, None) is True


def test_rule_get_obj():
    assert rule_get_obj(False, None, "a") is False   # never in disassembly
    assert rule_get_obj(True, None, "a") is True
    assert rule_get_obj(True, "a", "a") is False     # already in hand


def test_decompose_last_primitive_with_tool_held_stows_it(single_screw_model):
    state = ExecState.initial(single_screw_model)
    state.held_tool = Tool.SCREWDRIVER
    mp = ManipulationPrimitive(MPKind.TWIST, "screw_1", Tool.SCREWDRIVER)
    names = [ap.name.value for ap in decompose(mp, None, state, single_screw_model)]
    assert "putTool" in names and "getTool" not in names


def test_decompose_assembly_fetches_object(single_screw_model):
    state = ExecState.initial(single_screw_model)
    mp = ManipulationPrimitive(MPKind.TWIST, "screw_1", Tool.SCREWDRIVER)
    aps = decompose(mp, None, state, single_screw_model, assembly=True)
    assert "getObj" in [ap.name.value for ap in aps]


# ---------------------------------------------------------------- types

def test_hybrid_move_length_mismatch_rejected():
    with pytest.raises(ValueError):
        HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 5, np.zeros(6))


def test_vsc_requires_rgbd_frame():
    with pytest.raises(ValueError):
        HybridMove(TaskFrame.WORLD, (ControlMode.VSC,) * 6, np.zeros(6))


def test_ftc_requires_contact_axis():
    with pytest.raises(ValueError):
        HybridMove(TaskFrame.TCP,
                   (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3, np.zeros(6))


@pytest.mark.parametrize("axis", [[0.0, 0.0, 0.0], [0.0, np.nan, 1.0],
                                  [np.inf, 0.0, 0.0]], ids=["zero", "nan", "inf"])
def test_bad_contact_axis_rejected(axis):
    with pytest.raises(ValueError, match="zero or non-finite"):
        HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                   np.zeros(6), contact_axis=axis)


def test_contact_axis_stored_normalised():
    hm = HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                    np.zeros(6), contact_axis=[0, 3, -4])
    np.testing.assert_array_equal(hm.contact_axis, [0.0, 0.6, -0.8])
    assert not hm.contact_axis.flags.writeable


def test_force_stop_requires_contact_axis():
    # a position move has no contact axis to read the pressed force along
    hm = HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6, np.zeros(6))
    stop = StopCondition(StopKind.FORCE_REACHED, np.array([10.0]), 0.2)
    with pytest.raises(ValueError, match="force_reached stop requires"):
        SkillPrimitive(SkillName.PROCESS_OBJ, hm, IDLE_TOOL, stop,
                       component="c", process="press")


@pytest.mark.parametrize("stop", [
    StopCondition(StopKind.POSE_REACHED, np.array([0.3, 0.0, 0.1, 0.0, 0.0, 0.0]), 1e-3),
    StopCondition(StopKind.FEATURE_REACHED, np.zeros(8), 0.5),
    StopCondition(StopKind.FORCE_REACHED, np.array([10.0]), 0.2),
], ids=["pose_off_setpoint", "feature", "force"])
def test_position_move_stops_on_its_own_setpoint(stop):
    # run_skill steers a position move by the offset to its stop pose
    hm = HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6,
                    np.array([0.3, 0.0, 0.2, 0.0, 0.0, 0.0]), contact_axis=[0, 0, -1])
    with pytest.raises(ValueError, match="position move must stop by pose_reached"):
        SkillPrimitive(SkillName.PROCESS_OBJ, hm, IDLE_TOOL, stop, component="c")


def test_toolless_command_must_idle():
    with pytest.raises(ValueError):
        ToolCommand(Tool.NONE, ToolCmd.CLOSE)


def test_rough_pos_template_enforced():
    hm = HybridMove(TaskFrame.RGBD, (ControlMode.VSC,) * 8, np.zeros(8))
    stop = StopCondition(StopKind.FEATURE_REACHED, np.zeros(8), 0.5)
    with pytest.raises(ValueError):
        SkillPrimitive(SkillName.ROUGH_POS, hm,
                       ToolCommand(Tool.NONE, ToolCmd.IDLE), stop)


def test_stop_condition_positive_tolerances():
    with pytest.raises(ValueError):
        StopCondition(StopKind.POSE_REACHED, np.zeros(6), 0.0)
    with pytest.raises(ValueError):
        StopCondition(StopKind.POSE_REACHED, np.zeros(6), 1e-3, timeout_s=0.0)


# ---------------------------------------------------------------- decompose

def test_gold_sequence_single_screw(single_screw_model, dirs2k):
    plans = plan_task(single_screw_model, dirs2k)
    offs = detection_offsets(single_screw_model, 0, 0)
    state = ExecState.initial(single_screw_model, detection_noise=offs)
    mp = plans[0].steps[0]
    aps = decompose(mp, None, state, single_screw_model)
    assert [ap.name.value for ap in aps] == [
        "getTool", "roughPos", "finePos", "processObj",
        "roughPos", "putObj", "roughPos", "putTool"]
    assert aps[0].tool.tool is Tool.SCREWDRIVER
    assert aps[3].process == "unscrew"
    assert aps[3].tool.cmd is ToolCmd.SPIN_CCW


def test_pull_extracts_along_its_own_direction(valve_model):
    # the hose's guarded extraction pulls along the direction its pull
    # carries, and along +z when it carries none
    state = ExecState.initial(valve_model)
    for direction, axis in (((1.0, 0.0, 0.0), [1.0, 0.0, 0.0]),
                            (None, [0.0, 0.0, 1.0])):
        mp = ManipulationPrimitive(MPKind.PULL, "hose", Tool.GRIPPER, direction)
        extract = [ap for ap in decompose(mp, None, state, valve_model)
                   if ap.process == "extract"]
        assert len(extract) == 1
        assert np.array_equal(extract[0].hm.contact_axis, axis)


def test_move_at_goal_without_features_expands_empty():
    model = _mk_model(with_features=False)
    state = _state(model, noise=0.0)
    state.robot_pose = model.component("part").grasp_pose()
    mp = ManipulationPrimitive(MPKind.MOVE, "part", Tool.GRIPPER)
    assert decompose(mp, None, state, model) == []


def test_pull_mid_plan_releases_before_next_component():
    model = _mk_model()
    state = _state(model, held_tool=Tool.GRIPPER)
    mp = ManipulationPrimitive(MPKind.PULL, "part", Tool.GRIPPER)
    nxt = ManipulationPrimitive(MPKind.MOVE, "other", Tool.GRIPPER)
    aps = decompose(mp, nxt, state, model)
    names = [ap.name.value for ap in aps]
    assert "putObj" in names


def test_pull_followed_by_put_keeps_holding():
    model = _mk_model()
    state = _state(model, held_tool=Tool.GRIPPER)
    mp = ManipulationPrimitive(MPKind.PULL, "part", Tool.GRIPPER)
    nxt = ManipulationPrimitive(MPKind.PUT, "part", Tool.GRIPPER)
    aps = decompose(mp, nxt, state, model)
    assert "putObj" not in [ap.name.value for ap in aps]


def test_put_in_assembly_places_at_installed_pose():
    model = _mk_model()
    state = _state(model, held_tool=Tool.GRIPPER, held_object="part")
    mp = ManipulationPrimitive(MPKind.PUT, "part", Tool.GRIPPER)
    aps = decompose(mp, None, state, model, assembly=True)
    assert aps[0].name is SkillName.PUT_OBJ
    assert aps[0].place_pose.approx_equal(model.component("part").pose)


def test_put_without_carried_object_expands_empty():
    model = _mk_model()
    state = _state(model, held_tool=Tool.GRIPPER)
    mp = ManipulationPrimitive(MPKind.PUT, "part", Tool.GRIPPER)
    assert decompose(mp, None, state, model) == []


def test_decompose_idempotent(single_screw_model, dirs2k):
    plans = plan_task(single_screw_model, dirs2k)
    offs = detection_offsets(single_screw_model, 0, 0)
    state = ExecState.initial(single_screw_model, detection_noise=offs)
    mp = plans[0].steps[0]
    a = decompose(mp, None, state, single_screw_model)
    b = decompose(mp, None, state, single_screw_model)
    assert [x.to_json_line() for x in a] == [x.to_json_line() for x in b]


def test_missing_tool_station_unresolvable():
    model = _mk_model()
    model.tool_stations.pop("gripper")
    state = _state(model)
    mp = ManipulationPrimitive(MPKind.PULL, "part", Tool.GRIPPER)
    with pytest.raises(UnresolvableGoal):
        decompose(mp, None, state, model)


def test_features_behind_camera_unresolvable_only_when_fine_positioning():
    model = _mk_model()
    object.__setattr__(model.component("part"), "visual_features",
                       FEATURE_SQUARE + [0.0, 0.0, 0.5])  # above the flange
    mp = ManipulationPrimitive(MPKind.PULL, "part", Tool.GRIPPER)
    # no detection offset: no residual, so no fine positioning to resolve
    aps = decompose(mp, None, _state(model, noise=0, held_tool=Tool.GRIPPER), model)
    assert SkillName.FINE_POS not in [ap.name for ap in aps]
    with pytest.raises(UnresolvableGoal, match="behind the camera"):
        decompose(mp, None, _state(model, held_tool=Tool.GRIPPER), model)


def test_tool_change_stows_current_tool_first():
    model = _mk_model(semantic=Semantic.SCREW)
    rel = SpatialRelation(
        kind=RelationKind.SCREWED, components=("part", "base"),
        geometry=FeatureGeometry(kind=GeometryKind.CYLINDER, direction=UP),
        direction=UP.copy())
    object.__setattr__(model, "relations", (rel,))
    state = _state(model, held_tool=Tool.GRIPPER)
    mp = ManipulationPrimitive(MPKind.TWIST, "part", Tool.SCREWDRIVER)
    aps = decompose(mp, None, state, model)
    assert aps[0].name is SkillName.PUT_TOOL and aps[0].tool.tool is Tool.GRIPPER
    assert aps[1].name is SkillName.GET_TOOL and aps[1].tool.tool is Tool.SCREWDRIVER


# ------------------------------------------------------- grammar conformance

MPC_GRAMMAR = re.compile(
    r"^(putTool )?(getTool )?(getObj )?(roughPos )?(finePos )?"
    r"(processObj )+(roughPos )?(finePos )?(putObj )?(roughPos )?(putTool )?$")
MOVE_GRAMMAR = re.compile(r"^(roughPos )?(finePos )?$")
PUT_GRAMMAR = re.compile(r"^(putObj )?(roughPos )?$")


def _matches(mp_kind, names):
    text = "".join(n + " " for n in names)
    if mp_kind in (MPKind.TWIST, MPKind.PULL):
        return MPC_GRAMMAR.match(text) is not None
    if mp_kind is MPKind.MOVE:
        return MOVE_GRAMMAR.match(text) is not None
    return PUT_GRAMMAR.match(text) is not None


def test_grammar_conformance_valve_stream(valve_model, dirs2k):
    from dismantle.cli import _dry_executor
    plans = plan_task(valve_model, dirs2k)
    offs = detection_offsets(valve_model, 0, 0)
    state = ExecState.initial(valve_model, detection_noise=offs)
    trace = interpret(plans, state, valve_model, _dry_executor)
    per_mp: dict[int, list] = {}
    kinds: dict[int, MPKind] = {}
    for rec in trace.records:
        per_mp.setdefault(rec.mp_index, []).append(rec.ap.name.value)
        kinds[rec.mp_index] = rec.mp.kind
    assert per_mp
    for idx, names in per_mp.items():
        assert _matches(kinds[idx], names), (kinds[idx], names)


def test_process_repetition_at_least_once(valve_model, dirs2k):
    from dismantle.cli import _dry_executor
    plans = plan_task(valve_model, dirs2k)
    offs = detection_offsets(valve_model, 0, 0)
    state = ExecState.initial(valve_model, detection_noise=offs)
    trace = interpret(plans, state, valve_model, _dry_executor)
    process_by_mp: dict[int, int] = {}
    kinds: dict[int, MPKind] = {}
    for rec in trace.records:
        kinds[rec.mp_index] = rec.mp.kind
        if rec.ap.name is SkillName.PROCESS_OBJ:
            process_by_mp[rec.mp_index] = process_by_mp.get(rec.mp_index, 0) + 1
    for idx, kind in kinds.items():
        if kind in (MPKind.TWIST, MPKind.PULL):
            assert process_by_mp.get(idx, 0) >= 1


# ------------------------------------------------------- state soundness

def test_state_soundness_through_full_task(valve_model, dirs2k):
    from dismantle.cli import _dry_executor
    plans = plan_task(valve_model, dirs2k)
    offs = detection_offsets(valve_model, 0, 0)
    state = ExecState.initial(valve_model, detection_noise=offs)
    trace = interpret(plans, state, valve_model, _dry_executor)
    assert trace.outcome == "success"
    assert state.held_tool is Tool.NONE          # last putTool returned it
    assert state.held_object is None and state.retained_on_tool is None
    # exchange task: every part ends reassembled at its modeled pose
    for comp in valve_model.components:
        assert state.object_poses[comp.id].approx_equal(comp.pose, tol=1e-6)


def test_effects_of_individual_aps(valve_model, dirs2k):
    from dismantle.cli import _dry_executor
    plans = plan_task(valve_model, dirs2k)
    offs = detection_offsets(valve_model, 0, 0)
    state = ExecState.initial(valve_model, detection_noise=offs)
    seen = {"getTool": False, "putTool": False, "putObj": False, "grip": False}

    def checker(ap, st):
        res = _dry_executor(ap, st)
        return res

    # step through manually to observe post-effects
    from dismantle.skills import apply_effect, flatten_plans, decompose
    flat = flatten_plans(plans)
    for k, (assembly, mp) in enumerate(flat):
        mp_next = flat[k + 1][1] if k + 1 < len(flat) else None
        for ap in decompose(mp, mp_next, state, valve_model, assembly=assembly):
            res = _dry_executor(ap, state)
            apply_effect(ap, state, res, valve_model)
            if ap.name is SkillName.GET_TOOL:
                assert state.held_tool is ap.tool.tool
                seen["getTool"] = True
            elif ap.name is SkillName.PUT_TOOL:
                assert state.held_tool is Tool.NONE
                seen["putTool"] = True
            elif ap.name is SkillName.PUT_OBJ:
                assert state.held_object is None
                assert state.retained_on_tool is None
                seen["putObj"] = True
            elif ap.process == "grip":
                assert state.held_object == ap.component
                assert state.held_tool is Tool.GRIPPER
                seen["grip"] = True
            if state.held_object is not None:
                assert state.held_tool is Tool.GRIPPER
    assert all(seen.values())


def test_valve_disassembly_stream_narrative(valve_model, dirs2k):
    # tool change, rough+fine positioning, unscrew, store the screw, repeat
    # for the second screw, tool change, hose pull, valve put
    from dismantle.cli import _dry_executor
    plans = plan_task(valve_model, dirs2k)
    offs = detection_offsets(valve_model, 0, 0)
    state = ExecState.initial(valve_model, detection_noise=offs)
    trace = interpret(plans[0], state, valve_model, _dry_executor)
    events = [(r.ap.name.value, r.ap.process, r.mp.component)
              for r in trace.records]

    assert events[0][:2] == ("getTool", None)           # first: tool change
    assert events[1][0] == "roughPos"
    assert events[2][0] == "finePos"
    assert events[3][:2] == ("processObj", "unscrew")   # screw 1
    put_screw1 = [e for e in events if e[0] == "putObj" and e[2] == "screw_1"]
    assert put_screw1                                   # stored at its place
    unscrews = [e for e in events if e[1] == "unscrew"]
    assert len(unscrews) == 2                           # repeat for screw 2
    tool_swaps = [i for i, e in enumerate(events) if e[0] == "getTool"]
    assert len(tool_swaps) == 2                         # screwdriver, gripper
    hose_pull = [e for e in events if e[1] == "extract" and e[2] == "hose"]
    assert hose_pull
    assert events[-1][0] == "roughPos"                  # retract after valve put
    assert [e for e in events if e[0] == "putObj"][-1][2] == "valve_body"


def test_interpret_empty_plan(valve_model):
    state = ExecState.initial(valve_model)
    trace = interpret(Plan(steps=()), state, valve_model, lambda ap, st: None)
    assert trace.records == [] and trace.outcome == "success"


def test_interpret_stops_on_failure(single_screw_model, dirs2k):
    plans = plan_task(single_screw_model, dirs2k)
    offs = detection_offsets(single_screw_model, 0, 0)
    state = ExecState.initial(single_screw_model, detection_noise=offs)
    calls = []

    def failing(ap, st):
        calls.append(ap.name.value)
        if ap.name is SkillName.PROCESS_OBJ:
            return StepResult(ok=False, end_pose=st.robot_pose,
                              error=ErrorType.DEVICE, message="tool slipped")
        return StepResult(ok=True, end_pose=st.robot_pose)

    trace = interpret(plans, state, single_screw_model, failing)
    assert trace.outcome == "failure"
    assert trace.error is ErrorType.DEVICE
    assert calls[-1] == "processObj"
    assert len(trace.records) == len(calls)
