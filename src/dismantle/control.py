"""Switching Cartesian velocity controllers and the simulated plant.

Three controllers produce velocity commands: a position controller, an
admittance controller for force tracking (a second-order filter mapping force
error to velocity, run at 50 Hz) and an image-based visual-servoing controller
(P-control on pixel feature error through the interaction-matrix pseudo
inverse, run at 20 Hz; the lower rate models feature-extraction cost).

The plant is a velocity-integrating Cartesian robot over a contact-spring
environment; it reports the contact wrench.  The flange camera is read by the
skill loop, once per visual-servoing tick.  Time is simulated, not measured:
the clock advances in integer units of 10 ms, so 50 Hz and 20 Hz ticks are
exact (2 and 5 units) and per-bucket time sums are exact integer arithmetic.

``run_skill`` keeps its tick state in bare arrays and builds a ``Pose`` only
when a skill ends.  Each job has one array kernel, which the loop calls and
an object-level function wraps: ``_offset``/``_twist`` (``position_step``),
``_filter_step`` (``admittance_step``; the loop runs it on axis 0), and
``geometry.integrate_twist`` with ``_contact_force`` (``plant_step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .camera import CX, CY, FOCAL_PX, camera_pose, project
from .errors import SingularJacobian, SkillTimeout
from .geometry import (Pose, integrate_twist, pose_step, quat_conjugate,
                       quat_multiply, quat_to_rotvec, unit_orientation)
from .skills import (GRIP_ACTION_S, TOOL_SWAP_S, ControlMode, SkillName,
                     SkillPrimitive, StopKind)

CLOCK_UNIT_S = 0.01          # one clock unit = 10 ms
UNITS_PER_POS_TICK = 2       # 50 Hz position / force loop
UNITS_PER_VSC_TICK = 5       # 20 Hz visual-servoing loop

RATE_POS_HZ = 1.0 / (UNITS_PER_POS_TICK * CLOCK_UNIT_S)
RATE_VSC_HZ = 1.0 / (UNITS_PER_VSC_TICK * CLOCK_UNIT_S)

IBVS_GAIN = 0.125            # 1/s feature-error decay rate

V_MAX_LIN = 0.1              # m/s
V_MAX_ANG = 0.5              # rad/s
KP_POS = 4.0                 # 1/s proportional approach gain

# diagonal entries of the admittance filter, the same on every axis
ADM_MASS = 5.0
ADM_DAMPING = 250.0
ADM_STIFFNESS = 500.0

ENV_STIFFNESS = 10_000.0     # N/m default contact spring
RELEASE_DIST = 0.02          # m of travel that frees a retained part
RETENTION_N = 8.0            # N resisting a retained part's extraction

BUCKET_PATH = "path"
BUCKET_VSC = "vsc"
BUCKET_FTC = "ftc"
BUCKET_N = "n"


def units(seconds: float) -> int:
    return int(round(seconds / CLOCK_UNIT_S))


@dataclass(frozen=True)
class AdmittanceParams:
    """Diagonal mass/damping/stiffness of the force-to-velocity filter."""

    mass: np.ndarray = field(default_factory=lambda: np.full(6, ADM_MASS))
    damping: np.ndarray = field(default_factory=lambda: np.full(6, ADM_DAMPING))
    stiffness: np.ndarray = field(default_factory=lambda: np.full(6, ADM_STIFFNESS))
    rate_hz: float = RATE_POS_HZ

    def __post_init__(self):
        for name in ("mass", "damping", "stiffness"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (6,) or np.any(v <= 0.0):
                raise ValueError(f"{name} must be 6 positive diagonal entries")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if self.rate_hz <= 0.0:
            raise ValueError("rate_hz must be positive")


@dataclass(frozen=True)
class Wrench:
    force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    torque: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        f = _finite_force(np.array(self.force, dtype=float))
        t = _finite_force(np.array(self.torque, dtype=float))
        f.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "torque", t)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])


def _check_fields(obj, points: tuple[str, ...], axes: tuple[str, ...],
                  positives: tuple[str, ...]) -> None:
    """Validate and store the named fields of a frozen dataclass: ``points``
    and ``axes`` as read-only copies of finite 3-vectors, each axis within
    1e-6 of unit length and kept unscaled; ``positives`` as finite positive
    floats.  Raises ValueError otherwise."""
    for name in points + axes:
        v = np.array(getattr(obj, name), dtype=float)
        if v.shape != (3,) or not np.isfinite(v).all():
            raise ValueError(f"{name} must be a finite 3-vector, got {v.tolist()}")
        if name in axes and abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise ValueError(f"{name} must be a unit vector, got {v.tolist()}")
        v.flags.writeable = False
        object.__setattr__(obj, name, v)
    for name in positives:
        x = float(getattr(obj, name))
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {x}")
        object.__setattr__(obj, name, x)


@dataclass(frozen=True)
class ContactPlane:
    """One-sided linear spring: pushes along ``normal`` when penetrated."""

    point: np.ndarray
    normal: np.ndarray
    stiffness: float = ENV_STIFFNESS

    def __post_init__(self):
        _check_fields(self, ("point",), ("normal",), ("stiffness",))


@dataclass(frozen=True)
class Retention:
    """Insertion retention: a constant force resists extraction along ``axis``
    until the part has traveled ``release_dist`` from ``anchor``."""

    anchor: np.ndarray
    axis: np.ndarray
    force_n: float = RETENTION_N
    release_dist: float = RELEASE_DIST

    def __post_init__(self):
        _check_fields(self, ("anchor",), ("axis",), ("force_n", "release_dist"))


@dataclass(frozen=True)
class PlantState:
    pose: Pose
    contacts: tuple[ContactPlane, ...] = ()
    retentions: tuple[Retention, ...] = ()
    tracked_points: np.ndarray | None = None  # world points seen by the camera


# ------------------------------------------------------------- controllers

def _filter_step(e, u, ud, mass, damping, stiffness, dt):
    """One explicit-Euler step of M u'' + D u' + C u = e, elementwise: on
    6-vectors or on one axis's scalars alike.  Returns (u, u')."""
    udd = (e - damping * ud - stiffness * u) / mass
    return u + dt * ud, ud + dt * udd


def admittance_step(params: AdmittanceParams, f_des: Wrench, f_act: Wrench,
                    filter_state: tuple[np.ndarray, np.ndarray],
                    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One explicit-Euler step of the admittance filter on all six axes.

    The velocity command u obeys M u'' + D u' + C u = F_des - F_act per axis,
    so a constant force error e settles at u = e / c_i (DC gain 1/c_i) and
    contact buildup drives u back to zero.

    The axes are independent, so ``run_skill``, which commands only the
    contact axis, runs the same kernel, ``_filter_step``, on axis 0's scalars.
    """
    u, ud = filter_state
    u_new, ud_new = _filter_step(f_des.as_vector() - f_act.as_vector(), u, ud,
                                 params.mass, params.damping, params.stiffness,
                                 1.0 / params.rate_hz)
    return u_new, (u_new, ud_new)


def feature_jacobian(pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Stacked 2x6 point-feature interaction matrices in pixel units.

    ``pixels`` holds u, v per feature and ``depths`` one depth in meters per
    feature; there must be at least 3 features, all in front of the camera.
    Rows follow the standard convention (Chaumette & Hutchinson, "Visual
    servo control I", IEEE RAM 2006) for a point at pixel offset (u, v) from
    the principal point and depth Z with focal length f:

        [-f/Z   0    u/Z   u*v/f     -(f^2+u^2)/f   v ]
        [ 0   -f/Z   v/Z   (f^2+v^2)/f   -u*v/f    -u ]
    """
    px = np.asarray(pixels, dtype=float)
    z = np.asarray(depths, dtype=float)
    if px.size != 2 * z.size or z.size < 3:
        raise ValueError("need at least 3 features with matching pixel pairs")
    if np.any(z <= 0.0):
        raise ValueError("feature depths must be positive")
    f = FOCAL_PX
    px = px.reshape(-1, 2)
    du = px[:, 0] - CX
    dv = px[:, 1] - CY
    zero = np.zeros_like(z)
    row_u = np.stack([-f / z, zero, du / z, du * dv / f,
                      -(f * f + du * du) / f, dv], axis=1)
    row_v = np.stack([zero, -f / z, dv / z, (f * f + dv * dv) / f,
                      -du * dv / f, -du], axis=1)
    return np.stack([row_u, row_v], axis=1).reshape(-1, 6)


def ibvs_step(target_px: np.ndarray, pixels: np.ndarray,
              depths: np.ndarray) -> np.ndarray:
    """P-control on the feature error through the left pseudo-inverse.

    u = IBVS_GAIN * (J^T J)^-1 J^T (target_px - pixels), expressed in the
    camera frame.
    """
    jac = feature_jacobian(pixels, depths)
    jtj = jac.T @ jac
    eigvals = np.linalg.eigvalsh(jtj)
    if eigvals[0] <= 1e-9 * max(eigvals[-1], 1.0):
        raise SingularJacobian("feature set is degenerate for servoing")
    err = target_px - pixels
    return IBVS_GAIN * np.linalg.solve(jtj, jac.T @ err)


def _offset(goal_p: np.ndarray, goal_q: np.ndarray, p: np.ndarray,
            q: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Translation and axis-angle rotation from pose (p, q) to the goal, each
    with its norm (``Pose.distance``'s two figures)."""
    dp = goal_p - p
    dr = quat_to_rotvec(quat_multiply(goal_q, quat_conjugate(q)))
    return dp, math.sqrt(dp.dot(dp)), dr, math.sqrt(dr.dot(dr))


def _twist(dp: np.ndarray, dist: float, dr: np.ndarray, ang: float) -> np.ndarray:
    """Saturated proportional twist along an ``_offset``."""
    u = np.zeros(6)
    if dist > 1e-12:
        u[:3] = dp / dist * min(V_MAX_LIN, KP_POS * dist)
    if ang > 1e-12:
        u[3:] = dr / ang * min(V_MAX_ANG, KP_POS * ang)
    return u


def position_step(goal: Pose, current: Pose) -> np.ndarray:
    """Saturated proportional velocity toward the goal pose (world frame)."""
    return _twist(*_offset(goal.position, goal.orientation, current.position,
                           current.orientation))


# ------------------------------------------------------------- plant

_ZERO3 = np.zeros(3)
_ZERO3.flags.writeable = False


def _contact_force(p: np.ndarray, contacts: tuple[ContactPlane, ...],
                   retentions: tuple[Retention, ...]) -> np.ndarray:
    """Spring and retention force on the tool at position ``p``."""
    force = np.zeros(3)
    for c in contacts:
        pen = -(p - c.point) @ c.normal
        if pen > 0.0:
            force += c.stiffness * pen * c.normal
    for r in retentions:
        travel = (p - r.anchor) @ r.axis
        if 0.0 < travel < r.release_dist:
            force -= r.force_n * r.axis
    return force


def _finite_force(force: np.ndarray) -> np.ndarray:
    """``force`` (or a torque), after the finiteness check of ``Wrench``."""
    if not np.isfinite(force).all():
        raise ValueError("wrench entries must be finite")
    return force


def plant_step(state: PlantState, u: np.ndarray, dt: float,
               ) -> tuple[PlantState, Wrench]:
    """Integrate the commanded twist and report the contact wrench there."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    pose = pose_step(state.pose, u[:3], u[3:], dt)
    wrench = Wrench(_contact_force(pose.position, state.contacts, state.retentions))
    return replace(state, pose=pose), wrench


# ------------------------------------------------------------- skill loop

@dataclass
class TickRow:
    t_units: int
    controller: str
    u: np.ndarray
    wrench: np.ndarray
    feat_err_px: float


@dataclass
class StepLog:
    controller: str
    buckets: dict[str, int] = field(default_factory=dict)
    rows: list[TickRow] = field(default_factory=list)
    stopped_by: str = "stop"
    final_wrench: np.ndarray = field(default_factory=lambda: np.zeros(6))
    final_feat_err: float = 0.0

    def total_units(self) -> int:
        return sum(self.buckets.values())


@dataclass
class FaultHook:
    """Per-skill executor-side disturbances used by the fault harness."""

    force_noise_sigma: float = 0.0
    feature_dropout: bool = False
    rng: np.random.Generator | None = None

    def disturb_force(self, force: np.ndarray) -> np.ndarray:
        """The measured force: ``force`` plus one normal draw per axis."""
        if self.force_noise_sigma <= 0.0 or self.rng is None:
            return force
        noise = self.rng.normal(0.0, self.force_noise_sigma, size=3)
        return _finite_force(force + noise)


def _primary_controller(ap: SkillPrimitive) -> str:
    if ControlMode.VSC in ap.hm.control:
        return BUCKET_VSC
    if ControlMode.FTC in ap.hm.control:
        return BUCKET_FTC
    return BUCKET_PATH


def _tool_units(ap: SkillPrimitive) -> int:
    """Non-motion actuation time booked for the tool command, if any."""
    if ap.stop.kind is StopKind.TOOL_DONE and ControlMode.FTC not in ap.hm.control:
        return units(float(ap.stop.target[0]))
    if ap.tool.cmd.value in ("open", "close"):
        if ap.name in (SkillName.GET_TOOL, SkillName.PUT_TOOL):
            return units(TOOL_SWAP_S)
        return units(GRIP_ACTION_S)
    return 0


def _wrench_vector(force: np.ndarray) -> np.ndarray:
    return np.concatenate([force, _ZERO3])


def _pose_at(state: PlantState, p: np.ndarray, q_raw: np.ndarray | None) -> Pose:
    """The loop's pose.  ``Pose`` normalises the last un-normalised
    quaternion, as the tick did; with no motion tick yet (``q_raw`` None) it
    is the caller's pose."""
    return state.pose if q_raw is None else Pose(p, q_raw)


def _state_at(state: PlantState, p: np.ndarray, q_raw: np.ndarray | None,
              ) -> PlantState:
    """``state`` at the loop's pose; the caller's state before any motion tick."""
    return state if q_raw is None else replace(state, pose=_pose_at(state, p, q_raw))


def _abort(exc: Exception, stopped_by: str, state: PlantState, log: StepLog,
           force: np.ndarray, feat_err: float) -> Exception:
    """Attach the partial plant state and accounting to a skill failure."""
    log.stopped_by = stopped_by
    log.final_wrench = _wrench_vector(force)
    log.final_feat_err = feat_err
    exc.state = state
    exc.log = log
    return exc


def run_skill(ap: SkillPrimitive, state: PlantState,
              start_units: int = 0,
              fault: FaultHook | None = None) -> tuple[PlantState, StepLog]:
    """Drive one skill primitive to its stop condition on the simulated plant.

    The controller is selected per the hybrid move's per-axis modes; position
    and force loops run at 50 Hz, visual servoing at 20 Hz.  Tool actuation
    consumes fixed non-motion time booked as non-productive.  Raises
    SkillTimeout if the stop condition never fires within the skill's time
    budget, and SingularJacobian if a tracked point is not in front of the
    camera or the features are degenerate; both carry the partial plant state
    and log.  A pose or contact force that is not finite raises ValueError,
    as ``Pose`` and ``Wrench`` do.

    The tick state is bare arrays: position ``p``, unit quaternion ``q``
    (with ``q_raw``, the product it was normalised from) and contact force
    ``f``; the force loop adds its filter's axis-0 scalars.
    """
    fault = fault or FaultHook()
    controller = _primary_controller(ap)
    log = StepLog(controller=controller)
    log.buckets = {BUCKET_PATH: 0, BUCKET_VSC: 0, BUCKET_FTC: 0, BUCKET_N: 0}

    tick_units = (UNITS_PER_VSC_TICK if controller == BUCKET_VSC
                  else UNITS_PER_POS_TICK)
    dt = tick_units * CLOCK_UNIT_S
    budget = units(ap.stop.timeout_s)

    elapsed = 0
    stop_armed = False
    spin_ticks_left = None
    if ap.stop.kind is StopKind.TOOL_DONE and ControlMode.FTC in ap.hm.control:
        spin_ticks_left = int(round(float(ap.stop.target[0]) / dt))

    # stationary tool actions skip the motion loop entirely
    motion_needed = not (ap.stop.kind is StopKind.TOOL_DONE
                         and ControlMode.FTC not in ap.hm.control)

    # goals and setpoints are fixed for the whole skill
    if ap.stop.kind is StopKind.POSE_REACHED:
        stop_goal = Pose.from_rotvec(ap.stop.target[:3], ap.stop.target[3:])
    if controller == BUCKET_FTC:
        axis = ap.hm.contact_axis
        f_des = float(_finite_force(ap.hm.setpoint[:1])[0])
        # only the orientation of the hold pose is used (the angular command)
        hold_q = Pose.from_rotvec(state.pose.position, ap.hm.setpoint[3:]).orientation
        u_f = ud_f = 0.0  # admittance filter state on the contact axis
    elif controller == BUCKET_PATH and motion_needed:
        goal = Pose.from_rotvec(ap.hm.setpoint[:3], ap.hm.setpoint[3:])
        # a move whose stop pose is its setpoint steers by the stop check's offset
        steer_by_stop = (ap.stop.kind is StopKind.POSE_REACHED
                         and np.array_equal(ap.stop.target, ap.hm.setpoint))
    sighted = state.tracked_points is not None and not fault.feature_dropout

    p, q = state.pose.position, state.pose.orientation
    q_raw = None
    f = _finite_force(_contact_force(p, state.contacts, state.retentions))
    feat_err = 0.0
    while motion_needed:
        if sighted:
            cam = camera_pose(_pose_at(state, p, q_raw))
            px, z = project(state.tracked_points, cam)
            if not np.all(z > 0.0):
                raise _abort(SingularJacobian(
                    f"{ap.name.value}: a tracked feature is not in front of "
                    "the camera"), "singular", _state_at(state, p, q_raw), log,
                    f, feat_err)

        # stop-condition check against the latest observations
        if ap.stop.kind is StopKind.POSE_REACHED:
            stop_offset = _offset(stop_goal.position, stop_goal.orientation, p, q)
            _, dist, _, ang = stop_offset
            if max(dist, 0.1 * ang) <= ap.stop.tolerance:
                break
        elif ap.stop.kind is StopKind.FEATURE_REACHED:
            if sighted:
                feat_err = float(np.max(np.abs(px - ap.stop.target)))
                if feat_err <= ap.stop.tolerance:
                    break
        elif ap.stop.kind is StopKind.FORCE_REACHED:
            assert ap.hm.contact_axis is not None
            measured = -f @ ap.hm.contact_axis
            err = abs(measured - float(ap.stop.target[0]))
            if err > 2.0 * ap.stop.tolerance:
                stop_armed = True
            elif stop_armed and err <= ap.stop.tolerance:
                break
        elif ap.stop.kind is StopKind.TOOL_DONE:
            if spin_ticks_left is not None and spin_ticks_left <= 0:
                break

        if elapsed >= budget:
            raise _abort(SkillTimeout(
                f"{ap.name.value} stop condition {ap.stop.kind.value} "
                f"not met within {ap.stop.timeout_s:.0f} s"),
                "timeout", _state_at(state, p, q_raw), log, f, feat_err)

        # controller command
        if controller == BUCKET_VSC:
            if not sighted:
                u = np.zeros(6)
            else:
                try:
                    u_cam = ibvs_step(ap.stop.target, px, z)
                except SingularJacobian as exc:
                    _abort(exc, "singular", _state_at(state, p, q_raw), log, f,
                           feat_err)
                    raise
                u = np.concatenate([cam.rotate(u_cam[:3]),
                                    cam.rotate(u_cam[3:])])
        elif controller == BUCKET_FTC:
            measured = -f @ axis
            u_f, ud_f = _filter_step(f_des - measured, u_f, ud_f, ADM_MASS,
                                     ADM_DAMPING, ADM_STIFFNESS, dt)
            _, _, dr, ang = _offset(p, hold_q, p, q)  # orientation only
            u = _twist(_ZERO3, 0.0, dr, ang)
            u[:3] = axis * u_f
        elif steer_by_stop:
            u = _twist(*stop_offset)
        else:
            u = _twist(*_offset(goal.position, goal.orientation, p, q))

        # plant: integrate the twist, then read the contact force there
        p, q_raw = integrate_twist(p, q, u[:3], u[3:], dt)
        q = unit_orientation(p, q_raw)
        f = fault.disturb_force(
            _finite_force(_contact_force(p, state.contacts, state.retentions)))
        elapsed += tick_units
        log.buckets[controller] += tick_units
        log.rows.append(TickRow(start_units + elapsed, controller, u,
                                _wrench_vector(f), feat_err))
        if spin_ticks_left is not None:
            spin_ticks_left -= 1

    # tool actuation: fixed non-motion time
    action = _tool_units(ap)
    if action > 0:
        log.buckets[BUCKET_N] += action
        elapsed += action
        log.rows.append(TickRow(start_units + elapsed, BUCKET_N,
                                np.zeros(6), _wrench_vector(f), feat_err))

    log.final_wrench = _wrench_vector(f)
    log.final_feat_err = feat_err
    return _state_at(state, p, q_raw), log
