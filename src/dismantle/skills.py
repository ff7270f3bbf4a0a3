"""Runtime decomposition of symbolic plans into executable skill primitives.

A manipulation primitive expands into a sequence of skill primitives (hybrid
move + tool command + stop condition).  Which optional steps appear is decided
by boolean rules evaluated against the execution state at decomposition time:

* getTool: the required tool differs from the held one (or none is held)
* putTool: a tool is held and the next primitive needs a different one, or
  the plan ends
* roughPos: the current goal pose is not yet reached
* finePos: the goal component carries visual features and the expected pose
  residual after rough positioning exceeds the feature tolerance
* putObj: something is carried and the next primitive works on a different
  component (or the plan ends)
* getObj: only in assembly direction, when the object is not yet in hand

Process-bearing primitives (twist, pull) use the full expansion: optional
tool/object acquisition, positioning moves, at least one process step, the
transport/disengage move, the put slot and the optional tool return.  Plain
move and put primitives expand to positioning and release subsets only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .camera import FOCAL_PX, camera_pose, project
from .errors import ErrorType, UnresolvableGoal
from .geometry import IDENTITY, Pose
from .model import AssemblyModel, Component, Semantic, Tool
from .planner import PROCESS_KINDS, ManipulationPrimitive, MPKind, Plan

TOL_POS = 1e-3          # meters; rough positioning considered "reached"
TOL_FEAT_PX = 1.0       # pixels; residual above this warrants fine positioning
STOP_FEAT_PX = 0.5      # pixels; fine positioning stop band
AP_TIMEOUT_S = 60.0

RETRACT_OFFSET = np.array([0.0, 0.0, 0.10])

GRIP_ACTION_S = 1.0     # gripper open/close, object pickup
TOOL_SWAP_S = 1.5       # tool coupling and uncoupling
UNSCREW_S = 4.0         # spin duration for loosening / tightening
SEAT_S = 2.0            # force-guarded seating during assembly

PRESS_FORCE_N = 10.0    # engagement pressure while spinning
PULL_FORCE_N = 12.0     # guarded extraction pull
SEAT_FORCE_N = 5.0      # guarded seating push


class TaskFrame(str, Enum):
    WORLD = "world"
    TCP = "tcp"
    RGBD = "rgbd"


class ControlMode(str, Enum):
    POS = "pos"
    FTC = "ftc"
    VSC = "vsc"


class ToolCmd(str, Enum):
    OPEN = "open"
    CLOSE = "close"
    SPIN_CW = "spin_cw"
    SPIN_CCW = "spin_ccw"
    IDLE = "idle"


class SkillName(str, Enum):
    GET_TOOL = "getTool"
    PUT_TOOL = "putTool"
    GET_OBJ = "getObj"
    PUT_OBJ = "putObj"
    ROUGH_POS = "roughPos"
    FINE_POS = "finePos"
    PROCESS_OBJ = "processObj"


class StopKind(str, Enum):
    POSE_REACHED = "pose_reached"
    FEATURE_REACHED = "feature_reached"
    FORCE_REACHED = "force_reached"
    TOOL_DONE = "tool_done"


@dataclass(frozen=True)
class HybridMove:
    """Per-axis controlled motion in a task frame.

    For position moves the setpoint is a 6-vector pose (position plus
    axis-angle).  For force-guarded moves the linear channel tracks a force
    magnitude along ``contact_axis`` (setpoint[0]) while orientation is held
    at setpoint[3:6].  For visual servoing the setpoint is the desired pixel
    vector (u, v per feature).
    """

    task_frame: TaskFrame
    control: tuple[ControlMode, ...]
    setpoint: np.ndarray
    contact_axis: np.ndarray | None = None

    def __post_init__(self):
        sp = np.array(self.setpoint, dtype=float)
        if len(self.control) != sp.size:
            raise ValueError("control length must match setpoint length")
        if ControlMode.VSC in self.control and self.task_frame is not TaskFrame.RGBD:
            raise ValueError("visual servoing requires the rgbd task frame")
        if ControlMode.FTC in self.control and self.contact_axis is None:
            raise ValueError("force control requires a declared contact axis")
        sp.flags.writeable = False
        object.__setattr__(self, "setpoint", sp)
        object.__setattr__(self, "control", tuple(self.control))
        if self.contact_axis is not None:
            ax = np.asarray(self.contact_axis, dtype=float)
            ax = ax / np.linalg.norm(ax)
            ax.flags.writeable = False
            object.__setattr__(self, "contact_axis", ax)


@dataclass(frozen=True)
class ToolCommand:
    tool: Tool
    cmd: ToolCmd

    def __post_init__(self):
        if self.tool is Tool.NONE and self.cmd is not ToolCmd.IDLE:
            raise ValueError("a command without a tool must be idle")


IDLE_TOOL = ToolCommand(Tool.NONE, ToolCmd.IDLE)


@dataclass(frozen=True)
class StopCondition:
    kind: StopKind
    target: np.ndarray
    tolerance: float
    timeout_s: float = AP_TIMEOUT_S

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.timeout_s <= 0.0:
            raise ValueError("timeout must be positive")
        t = np.array(self.target, dtype=float)
        t.flags.writeable = False
        object.__setattr__(self, "target", t)


@dataclass(frozen=True)
class SkillPrimitive:
    """Executable unit: hybrid move, tool command and stop condition.

    ``component`` names the part the step concerns (feature source for fine
    positioning, carried object for releases) and ``process`` identifies the
    library entry for process steps (grip, unscrew, screw_in, extract, seat).
    """

    name: SkillName
    hm: HybridMove
    tool: ToolCommand
    stop: StopCondition
    component: str | None = None
    process: str | None = None
    place_pose: Pose | None = None
    goal_pose: Pose | None = None  # converged pose for moves without a pose stop

    def __post_init__(self):
        if self.name is SkillName.ROUGH_POS:
            ok = (self.hm.task_frame is TaskFrame.WORLD
                  and all(c is ControlMode.POS for c in self.hm.control)
                  and self.stop.kind is StopKind.POSE_REACHED)
            if not ok:
                raise ValueError("roughPos must be a world-frame position move "
                                 "stopped by pose_reached")
        if self.name is SkillName.FINE_POS:
            ok = (self.hm.task_frame is TaskFrame.RGBD
                  and all(c is ControlMode.VSC for c in self.hm.control)
                  and self.stop.kind is StopKind.FEATURE_REACHED)
            if not ok:
                raise ValueError("finePos must be an rgbd-frame visual-servo move "
                                 "stopped by feature_reached")

    def to_json(self) -> dict:
        obj = {
            "name": self.name.value,
            "component": self.component,
            "process": self.process,
            "task_frame": self.hm.task_frame.value,
            "control": [c.value for c in self.hm.control],
            "setpoint": [float(x) for x in self.hm.setpoint],
            "contact_axis": (None if self.hm.contact_axis is None
                             else [float(x) for x in self.hm.contact_axis]),
            "tool": {"tool": self.tool.tool.value, "cmd": self.tool.cmd.value},
            "stop": {
                "kind": self.stop.kind.value,
                "target": [float(x) for x in self.stop.target],
                "tolerance": float(self.stop.tolerance),
                "timeout_s": float(self.stop.timeout_s),
            },
            "place_pose": (None if self.place_pose is None
                           else self.place_pose.to_json()),
        }
        return obj

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


@dataclass
class ExecState:
    """Robot and object bookkeeping between skill-primitive executions.

    ``held_object`` is a gripper grasp; parts retained by a non-gripper tool
    (a screw sitting on the driver bit) are tracked separately so the gripper
    invariant stays meaningful.  ``detection_noise`` holds the per-component
    object-detection offset of the current run; goals taken from vision are
    shifted by it, predefined storage and station poses are exact.
    """

    held_tool: Tool = Tool.NONE
    held_object: str | None = None
    retained_on_tool: str | None = None
    robot_pose: Pose = IDENTITY
    object_poses: dict[str, Pose] = field(default_factory=dict)
    detection_noise: dict[str, np.ndarray] = field(default_factory=dict)

    def carried(self) -> str | None:
        return self.held_object if self.held_object is not None else self.retained_on_tool

    @staticmethod
    def initial(model: AssemblyModel,
                detection_noise: dict[str, np.ndarray] | None = None) -> "ExecState":
        return ExecState(
            robot_pose=model.robot_start,
            object_poses={c.id: c.pose for c in model.components},
            detection_noise=dict(detection_noise or {}),
        )


# ------------------------------------------------------------ decision rules

def rule_get_tool(held: Tool, required: Tool) -> bool:
    """Fetch a tool when none is held or a different one is required."""
    return held is Tool.NONE or held != required


def rule_put_tool(held: Tool, mp_next: ManipulationPrimitive | None) -> bool:
    """Return the held tool when the plan ends or the next step needs another."""
    if held is Tool.NONE:
        return False
    return mp_next is None or mp_next.tool != held


def rule_rough_pos(goal: Pose, robot: Pose) -> bool:
    """Position-controlled approach needed while the goal is not reached."""
    return pose_error(goal, robot) > TOL_POS


def rule_fine_pos(has_features: bool, expected_residual_px: float) -> bool:
    """Visual correction needed when features exist and the expected residual
    after rough positioning exceeds the feature tolerance."""
    return has_features and expected_residual_px > TOL_FEAT_PX


def rule_put_obj(carried: str | None, mp: ManipulationPrimitive,
                 mp_next: ManipulationPrimitive | None) -> bool:
    """Release the carried object before work moves to another component."""
    if carried is None:
        return False
    return mp_next is None or mp_next.component != mp.component


def rule_get_obj(assembly: bool, carried: str | None, component: str) -> bool:
    """Objects are fetched from storage only in assembly direction."""
    return assembly and carried != component


def pose_error(a: Pose, b: Pose) -> float:
    """Scalar pose error: the larger of the distance in meters and 0.1 m per
    radian of rotation."""
    d, ang = a.distance(b)
    return max(d, 0.1 * ang)


# ------------------------------------------------------------ goal resolution

def _station_pose(model: AssemblyModel, tool: Tool) -> Pose:
    station = model.tool_stations.get(tool.value)
    if station is None:
        raise UnresolvableGoal(f"no tool station for '{tool.value}'")
    return station


def _object_pose(state: ExecState, model: AssemblyModel, cid: str) -> Pose:
    return state.object_poses.get(cid, model.component(cid).pose)


def _fetch_pose(comp: Component, state: ExecState, model: AssemblyModel) -> Pose:
    """Tool pose for grasping the component where it currently sits."""
    return _object_pose(state, model, comp.id).compose(comp.grasp_offset)


def _engage_pose(comp: Component, state: ExecState, model: AssemblyModel,
                 assembly: bool) -> Pose:
    """True tool pose for working on the component.

    Disassembly engages the part where it currently sits; assembly engages at
    the installation target (the part's modeled pose).
    """
    if assembly:
        return comp.pose.compose(comp.grasp_offset)
    return _fetch_pose(comp, state, model)


def _noisy(pose: Pose, offset: np.ndarray | None) -> Pose:
    if offset is None:
        return pose
    return pose.translated(offset)


def _feature_source(comp: Component, model: AssemblyModel, assembly: bool,
                    state: ExecState) -> Component | None:
    """Component whose visual features guide fine positioning.

    Disassembly servos on the part itself.  Assembly servos on a mating
    partner that is still installed (its current pose matches its modeled
    pose), since the carried part moves rigidly with the camera.
    """
    if not assembly:
        return comp if comp.visual_features is not None else None
    for rel in model.relations:
        if comp.id in rel.components:
            partner = model.component(rel.other(comp.id))
            if partner.visual_features is None:
                continue
            current = state.object_poses.get(partner.id, partner.pose)
            if not current.approx_equal(partner.pose, tol=1e-6):
                continue
            return partner
    return None


def _feature_points_world(source: Component, state: ExecState,
                          model: AssemblyModel) -> np.ndarray:
    pose = _object_pose(state, model, source.id)
    return pose.apply(source.visual_features)


def _expected_residual_px(noise: np.ndarray | None, source: Component | None,
                          engage: Pose, state: ExecState,
                          model: AssemblyModel) -> float:
    if noise is None or source is None:
        return 0.0
    pts = _feature_points_world(source, state, model)
    _, depths = project(pts, camera_pose(engage))
    depth = float(np.mean(np.abs(depths)))
    if depth < 1e-6:
        return float("inf")
    return float(np.linalg.norm(noise)) * FOCAL_PX / depth


# ------------------------------------------------------------ AP constructors

def _pos_move(name: SkillName, goal: Pose, tool_cmd: ToolCommand = IDLE_TOOL,
              component: str | None = None, process: str | None = None,
              place_pose: Pose | None = None) -> SkillPrimitive:
    vec = goal.as_vector()
    hm = HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6, vec)
    stop = StopCondition(StopKind.POSE_REACHED, vec, TOL_POS)
    return SkillPrimitive(name, hm, tool_cmd, stop, component=component,
                          process=process, place_pose=place_pose)


def _fine_pos(source: Component, engage: Pose, state: ExecState,
              model: AssemblyModel) -> SkillPrimitive:
    pts = _feature_points_world(source, state, model)
    f_des, depths = project(pts, camera_pose(engage))
    if np.any(depths <= 0.0):
        raise UnresolvableGoal(
            f"features of '{source.id}' lie behind the camera at the goal pose")
    hm = HybridMove(TaskFrame.RGBD, (ControlMode.VSC,) * f_des.size, f_des)
    stop = StopCondition(StopKind.FEATURE_REACHED, f_des, STOP_FEAT_PX)
    return SkillPrimitive(SkillName.FINE_POS, hm, IDLE_TOOL, stop,
                          component=source.id, goal_pose=engage)


def _force_move(press_dir: np.ndarray, force_n: float, hold: Pose,
                stop: StopCondition, tool_cmd: ToolCommand,
                component: str, process: str) -> SkillPrimitive:
    setpoint = np.concatenate([[force_n, 0.0, 0.0], hold.rotvec()])
    hm = HybridMove(TaskFrame.TCP,
                    (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                    setpoint, contact_axis=press_dir)
    return SkillPrimitive(SkillName.PROCESS_OBJ, hm, tool_cmd, stop,
                          component=component, process=process)


def _tool_action(name: SkillName, goal: Pose, tool_cmd: ToolCommand,
                 component: str | None = None, process: str | None = None,
                 place_pose: Pose | None = None) -> SkillPrimitive:
    """Stationary tool actuation at the current pose (no motion)."""
    vec = goal.as_vector()
    hm = HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6, vec)
    stop = StopCondition(StopKind.TOOL_DONE, np.array([GRIP_ACTION_S]), 1e-9)
    return SkillPrimitive(name, hm, tool_cmd, stop, component=component,
                          process=process, place_pose=place_pose)


def _get_tool_ap(tool: Tool, model: AssemblyModel) -> SkillPrimitive:
    return _pos_move(SkillName.GET_TOOL, _station_pose(model, tool),
                     ToolCommand(tool, ToolCmd.CLOSE))


def _put_tool_ap(tool: Tool, model: AssemblyModel) -> SkillPrimitive:
    return _pos_move(SkillName.PUT_TOOL, _station_pose(model, tool),
                     ToolCommand(tool, ToolCmd.OPEN))


def _default_axis(hint: np.ndarray | None) -> np.ndarray:
    if hint is None:
        return np.array([0.0, 0.0, 1.0])
    return np.asarray(hint, dtype=float)


def _process_aps(mp: ManipulationPrimitive, comp: Component, engage: Pose,
                 assembly: bool, hint: np.ndarray | None) -> list[SkillPrimitive]:
    """Process-step library keyed by (tool, semantic) and plan direction."""
    axis = _default_axis(hint)
    aps: list[SkillPrimitive] = []
    if mp.tool is Tool.SCREWDRIVER:
        spin = ToolCmd.SPIN_CW if assembly else ToolCmd.SPIN_CCW
        # press against the head while spinning; extraction axis points out,
        # so pressing goes the other way in disassembly
        press = axis if assembly else -axis
        stop = StopCondition(StopKind.TOOL_DONE, np.array([UNSCREW_S]), 1e-9)
        aps.append(_force_move(press, PRESS_FORCE_N, engage, stop,
                               ToolCommand(Tool.SCREWDRIVER, spin), comp.id,
                               "screw_in" if assembly else "unscrew"))
        return aps
    if assembly:
        stop = StopCondition(StopKind.TOOL_DONE, np.array([SEAT_S]), 1e-9)
        aps.append(_force_move(axis, SEAT_FORCE_N, engage, stop,
                               ToolCommand(Tool.GRIPPER, ToolCmd.IDLE),
                               comp.id, "seat"))
        return aps
    aps.append(_tool_action(SkillName.PROCESS_OBJ, engage,
                            ToolCommand(Tool.GRIPPER, ToolCmd.CLOSE),
                            component=comp.id, process="grip"))
    if comp.semantic is Semantic.HOSE:
        # guarded extraction: pull until the retention force drops away
        stop = StopCondition(StopKind.FORCE_REACHED, np.array([0.0]), 1.0)
        aps.append(_force_move(axis, PULL_FORCE_N, engage, stop,
                               ToolCommand(Tool.GRIPPER, ToolCmd.IDLE),
                               comp.id, "extract"))
    return aps


# ------------------------------------------------------------ decomposition

def _approach(goal: Pose, noise: np.ndarray | None, source: Component | None,
              cursor: Pose, state: ExecState, model: AssemblyModel,
              aps: list[SkillPrimitive]) -> Pose:
    """Rough positioning onto the detected goal, then fine positioning on the
    source's features when needed; returns the robot pose afterwards."""
    estimate = _noisy(goal, noise)
    if rule_rough_pos(estimate, cursor):
        aps.append(_pos_move(SkillName.ROUGH_POS, estimate))
        cursor = estimate
    residual = _expected_residual_px(noise, source, goal, state, model)
    if rule_fine_pos(source is not None, residual):
        aps.append(_fine_pos(source, goal, state, model))
        cursor = goal
    return cursor


def _release(comp: Component, cursor: Pose, held_tool: Tool,
             assembly: bool) -> list[SkillPrimitive]:
    """Open the tool at the current pose, then retract straight up."""
    place = comp.pose if assembly else comp.put_pose
    put = _tool_action(SkillName.PUT_OBJ, cursor,
                       ToolCommand(held_tool, ToolCmd.OPEN),
                       component=comp.id, place_pose=place)
    return [put, _pos_move(SkillName.ROUGH_POS, cursor.translated(RETRACT_OFFSET))]


def decompose(mp: ManipulationPrimitive,
              mp_next: ManipulationPrimitive | None,
              state: ExecState, model: AssemblyModel,
              assembly: bool = False,
              direction_hint: np.ndarray | None = None) -> list[SkillPrimitive]:
    """Expand one manipulation primitive against the current state.

    The expansion is static: the state evolution through the primitive
    (tool pickups, grasps) is predicted with the same update rules the
    interpreter applies, so decomposing twice against an unchanged state
    yields identical sequences.
    """
    comp = model.component(mp.component)
    aps: list[SkillPrimitive] = []

    cursor = state.robot_pose
    held_tool = state.held_tool
    carried = state.carried()

    if mp.kind is MPKind.MOVE:
        # in assembly the part is fetched from storage: robot-placed, hence
        # exact, and not servoed on
        if assembly:
            noise, source = None, None
        else:
            noise = state.detection_noise.get(comp.id)
            source = _feature_source(comp, model, False, state)
        _approach(_fetch_pose(comp, state, model), noise, source, cursor,
                  state, model, aps)
        return aps

    if mp.kind is MPKind.PUT:
        if rule_put_obj(carried, mp, mp_next):
            aps.extend(_release(comp, cursor, held_tool, assembly))
        return aps

    if mp.kind not in PROCESS_KINDS:
        raise UnresolvableGoal(f"no decomposition for primitive kind {mp.kind}")

    if rule_get_tool(held_tool, mp.tool):
        if held_tool is not Tool.NONE:
            aps.append(_put_tool_ap(held_tool, model))
        aps.append(_get_tool_ap(mp.tool, model))
        cursor = _station_pose(model, mp.tool)
        held_tool = mp.tool

    if rule_get_obj(assembly, carried, mp.component):
        fetch = _fetch_pose(comp, state, model)
        aps.append(_pos_move(SkillName.GET_OBJ, fetch,
                             ToolCommand(held_tool, ToolCmd.CLOSE),
                             component=comp.id))
        cursor = fetch
        carried = comp.id

    engage = _engage_pose(comp, state, model, assembly)
    cursor = _approach(engage, state.detection_noise.get(comp.id),
                       _feature_source(comp, model, assembly, state), cursor,
                       state, model, aps)

    process = _process_aps(mp, comp, engage, assembly, direction_hint)
    aps.extend(process)
    if any(ap.process in ("grip", "unscrew") for ap in process):
        carried = comp.id

    if not assembly and carried == comp.id and comp.put_pose is not None:
        transport = comp.put_pose.compose(comp.grasp_offset)
        if rule_rough_pos(transport, cursor):
            aps.append(_pos_move(SkillName.ROUGH_POS, transport))
            cursor = transport

    if rule_put_obj(carried, mp, mp_next):
        aps.extend(_release(comp, cursor, held_tool, assembly))

    if rule_put_tool(held_tool, mp_next):
        aps.append(_put_tool_ap(held_tool, model))
    return aps


# ------------------------------------------------------------ interpretation

@dataclass
class StepResult:
    """Executor feedback for one skill primitive."""

    ok: bool
    end_pose: Pose
    error: ErrorType | None = None
    message: str = ""


@dataclass
class TraceRecord:
    mp_index: int
    mp: ManipulationPrimitive
    assembly: bool
    ap: SkillPrimitive
    result: StepResult


@dataclass
class ExecTrace:
    records: list[TraceRecord] = field(default_factory=list)
    outcome: str = "success"
    error: ErrorType | None = None
    message: str = ""


def apply_effect(ap: SkillPrimitive, state: ExecState, result: StepResult,
                 model: AssemblyModel) -> None:
    """State update after one skill-primitive execution."""
    state.robot_pose = result.end_pose
    if not result.ok:
        return
    if ap.name is SkillName.GET_TOOL:
        state.held_tool = ap.tool.tool
    elif ap.name is SkillName.PUT_TOOL:
        state.held_tool = Tool.NONE
    elif ap.name is SkillName.GET_OBJ:
        if state.held_tool is Tool.GRIPPER:
            state.held_object = ap.component
        else:
            state.retained_on_tool = ap.component
    elif ap.name is SkillName.PROCESS_OBJ:
        if ap.process == "grip":
            state.held_object = ap.component
        elif ap.process == "unscrew":
            state.retained_on_tool = ap.component
    elif ap.name is SkillName.PUT_OBJ:
        cid = ap.component
        if cid is not None:
            state.object_poses[cid] = (ap.place_pose if ap.place_pose is not None
                                       else state.robot_pose)
        if state.held_object == cid:
            state.held_object = None
        if state.retained_on_tool == cid:
            state.retained_on_tool = None

    carried = state.carried()
    if carried is not None and carried in state.object_poses:
        grasp = model.component(carried).grasp_offset
        state.object_poses[carried] = state.robot_pose.compose(grasp.inverse())


def flatten_plans(plans: Plan | list[Plan]) -> list[tuple[Plan, int, ManipulationPrimitive]]:
    if isinstance(plans, Plan):
        plans = [plans]
    flat = []
    for plan in plans:
        for i, mp in enumerate(plan.steps):
            flat.append((plan, i, mp))
    return flat


def interpret(plans: Plan | list[Plan], state: ExecState, model: AssemblyModel,
              executor) -> ExecTrace:
    """Run the plan: decompose each primitive against the live state and feed
    the resulting skill primitives to the executor callback.

    The executor receives (skill_primitive, state) and returns a StepResult;
    state updates are applied after every execution, so later primitives
    decompose against what actually happened.  A reported failure stops the
    run and surfaces its classification.
    """
    trace = ExecTrace()
    flat = flatten_plans(plans)
    for k, (plan, i, mp) in enumerate(flat):
        mp_next = flat[k + 1][2] if k + 1 < len(flat) else None
        aps = decompose(mp, mp_next, state, model,
                        assembly=plan.assembly,
                        direction_hint=plan.direction_hints.get(i))
        for ap in aps:
            result = executor(ap, state)
            apply_effect(ap, state, result, model)
            trace.records.append(TraceRecord(k, mp, plan.assembly, ap, result))
            if not result.ok:
                trace.outcome = "failure"
                trace.error = result.error
                trace.message = result.message
                return trace
    return trace
