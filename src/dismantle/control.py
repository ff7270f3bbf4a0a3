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

``run_skill`` keeps the tick state of its position and force loops in
Python floats and builds a ``Pose`` only when a skill ends.  Two layers, as in
``geometry``: each job has one float kernel, which the loop calls and an
object-level function wraps.  ``geometry.pose_offset`` with ``_twist`` steers
(``position_step``), ``_filter_step`` filters force error (``admittance_step``;
the loop runs it on axis 0), and ``geometry.integrate_twist`` with
``_spring_force`` moves the plant (``plant_step``, through ``_contact_force``).
The loop reads the contacts into floats once per skill (``_contact_floats``)
and allocates no array per tick.  Dot products go through ``geometry.vec_dot``
and ``geometry.vec_norm``, whose module docstring says why.  Visual servoing
keeps its array code; only its command joins the float state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .camera import CX, CY, FOCAL_PX, camera_pose, project
from .errors import SingularJacobian, SkillTimeout
from .geometry import (Pose, integrate_twist, pose_error, pose_offset, pose_step,
                       rotation_offset, unit_orientation_f, vec_dot)
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
        f = np.array(self.force, dtype=float)
        t = np.array(self.torque, dtype=float)
        _finite_force(f.flat)
        _finite_force(t.flat)
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


def _saturate(v, norm: float, v_max: float) -> tuple:
    """Proportional velocity along ``v`` (3 floats, of norm ``norm``), capped
    at ``v_max``."""
    if norm > 1e-12:
        s = min(v_max, KP_POS * norm)
        x, y, z = v
        return (x / norm * s, y / norm * s, z / norm * s)
    return (0.0, 0.0, 0.0)


def _twist(dp, dist: float, dr, ang: float) -> tuple:
    """Saturated proportional twist along a ``pose_offset``, as 6 floats."""
    return _saturate(dp, dist, V_MAX_LIN) + _saturate(dr, ang, V_MAX_ANG)


def position_step(goal: Pose, current: Pose) -> np.ndarray:
    """Saturated proportional velocity toward the goal pose (world frame)."""
    return np.array(_twist(*pose_offset(*goal.as_floats(), *current.as_floats())))


# ------------------------------------------------------------- plant

def _contact_floats(contacts: tuple[ContactPlane, ...],
                    retentions: tuple[Retention, ...]) -> tuple[tuple, tuple]:
    """The contact planes and retentions as ``_spring_force`` reads them:
    floats, plus each normal or axis array for the ``ddot``."""
    planes = tuple((*c.point.tolist(), c.normal, c.stiffness, *c.normal.tolist())
                   for c in contacts)
    holds = tuple((*r.anchor.tolist(), r.axis, r.force_n, r.release_dist,
                   *r.axis.tolist()) for r in retentions)
    return planes, holds


def _spring_force(p, planes: tuple, holds: tuple) -> tuple:
    """Spring and retention force, as 3 floats, on the tool at position ``p``,
    from the ``_contact_floats`` of the contacts."""
    x, y, z = p
    fx = fy = fz = 0.0
    for cx, cy, cz, normal, stiffness, nx, ny, nz in planes:
        pen = vec_dot((cx - x, cy - y, cz - z), normal)
        if pen > 0.0:
            k = stiffness * pen
            fx, fy, fz = fx + k * nx, fy + k * ny, fz + k * nz
    for ax, ay, az, axis, force_n, release_dist, ux, uy, uz in holds:
        travel = vec_dot((x - ax, y - ay, z - az), axis)
        if 0.0 < travel < release_dist:
            fx, fy, fz = fx - force_n * ux, fy - force_n * uy, fz - force_n * uz
    return fx, fy, fz


def _contact_force(p, contacts: tuple[ContactPlane, ...],
                   retentions: tuple[Retention, ...]) -> tuple:
    """Spring and retention force, as 3 floats, on the tool at position ``p``."""
    return _spring_force(p, *_contact_floats(contacts, retentions))


def _finite_force(force):
    """``force`` (or a torque; any iterable of floats), after the finiteness
    check of ``Wrench``."""
    if not all(map(math.isfinite, force)):
        raise ValueError("wrench entries must be finite")
    return force


def plant_step(state: PlantState, u: np.ndarray, dt: float,
               ) -> tuple[PlantState, Wrench]:
    """Integrate the commanded twist and report the contact wrench there."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    pose = pose_step(state.pose, u[:3], u[3:], dt)
    wrench = Wrench(_contact_force(pose.position.tolist(), state.contacts,
                                   state.retentions))
    return replace(state, pose=pose), wrench


# ------------------------------------------------------------- skill loop

@dataclass(slots=True)
class TickRow:
    """One tick of a skill, or its tool action (controller ``BUCKET_N``).

    ``u_floats`` is the commanded twist and ``wrench_floats`` the measured
    wrench, 6 floats each; ``u`` and ``wrench`` build them as float64 arrays.
    """

    t_units: int
    controller: str
    u_floats: tuple
    wrench_floats: tuple
    feat_err_px: float

    @property
    def u(self) -> np.ndarray:
        return np.array(self.u_floats)

    @property
    def wrench(self) -> np.ndarray:
        return np.array(self.wrench_floats)


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

    def disturb_force(self, force: tuple) -> tuple:
        """The measured force: ``force`` (3 floats) plus one normal draw per
        axis."""
        if self.force_noise_sigma <= 0.0 or self.rng is None:
            return force
        noise = self.rng.normal(0.0, self.force_noise_sigma, size=3)
        return _finite_force(tuple((force + noise).tolist()))


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


_NO_TORQUE = (0.0, 0.0, 0.0)


def _pose_at(state: PlantState, p, q_raw) -> Pose:
    """The loop's pose.  ``Pose`` normalises the last un-normalised
    quaternion, as the tick did; with no motion tick yet (``q_raw`` None) it
    is the caller's pose."""
    return state.pose if q_raw is None else Pose(p, q_raw)


def _state_at(state: PlantState, p, q_raw) -> PlantState:
    """``state`` at the loop's pose; the caller's state before any motion tick."""
    return state if q_raw is None else replace(state, pose=_pose_at(state, p, q_raw))


def _abort(exc: Exception, stopped_by: str, state: PlantState, log: StepLog,
           force, feat_err: float) -> Exception:
    """Attach the partial plant state and accounting to a skill failure."""
    log.stopped_by = stopped_by
    log.final_wrench = np.array(force + _NO_TORQUE)
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

    The tick state is Python floats: position ``p``, unit quaternion ``q``
    (with ``q_raw``, the product it was normalised from), contact force ``f``
    and the command ``u``; the force loop adds its filter's axis-0 scalars.
    A tick row stores ``u`` and the wrench as 6-float tuples.  The stop
    condition, the contacts and the fault hook are read once, before the loop.
    """
    fault = fault or FaultHook()
    controller = _primary_controller(ap)
    log = StepLog(controller=controller)
    log.buckets = buckets = {BUCKET_PATH: 0, BUCKET_VSC: 0, BUCKET_FTC: 0,
                             BUCKET_N: 0}
    append_row = log.rows.append

    tick_units = (UNITS_PER_VSC_TICK if controller == BUCKET_VSC
                  else UNITS_PER_POS_TICK)
    dt = tick_units * CLOCK_UNIT_S
    stop = ap.stop
    stop_kind, tolerance = stop.kind, stop.tolerance
    # the stop kind as flags: reading an enum member costs 0.1 us
    pose_stop, feature_stop, force_stop, done_stop = (
        stop_kind is kind for kind in (StopKind.POSE_REACHED, StopKind.FEATURE_REACHED,
                                       StopKind.FORCE_REACHED, StopKind.TOOL_DONE))
    budget = units(stop.timeout_s)

    elapsed = 0
    stop_armed = False
    spin_ticks_left = None
    if done_stop and ControlMode.FTC in ap.hm.control:
        spin_ticks_left = int(round(float(stop.target[0]) / dt))

    # stationary tool actions skip the motion loop entirely
    motion_needed = not (done_stop and ControlMode.FTC not in ap.hm.control)

    # goals, setpoints and contacts are fixed for the whole skill
    if pose_stop:
        stop_p, stop_q = Pose.from_rotvec(stop.target[:3],
                                          stop.target[3:]).as_floats()
    elif force_stop:
        stop_force = float(stop.target[0])
    press_axis = ap.hm.contact_axis  # declared by every force-guarded move
    if controller == BUCKET_FTC:
        ax, ay, az = press_axis.tolist()
        f_des = float(_finite_force(ap.hm.setpoint[:1])[0])
        # only the orientation of the hold pose is used (the angular command)
        hold_q = Pose.from_rotvec(state.pose.position,
                                  ap.hm.setpoint[3:]).orientation.tolist()
        u_f = ud_f = 0.0  # admittance filter state on the contact axis
    elif controller == BUCKET_PATH and motion_needed:
        goal_p, goal_q = Pose.from_rotvec(ap.hm.setpoint[:3],
                                          ap.hm.setpoint[3:]).as_floats()
        # a move whose stop pose is its setpoint steers by the stop check's offset
        steer_by_stop = pose_stop and np.array_equal(stop.target, ap.hm.setpoint)
    sighted = state.tracked_points is not None and not fault.feature_dropout
    planes, holds = _contact_floats(state.contacts, state.retentions)
    disturb_force = fault.disturb_force

    p, q = state.pose.as_floats()
    q_raw = None
    f = _finite_force(_spring_force(p, planes, holds))
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
        if press_axis is not None:  # the force the tool presses with: -f . axis
            pressed = -vec_dot(f, press_axis)

        # stop-condition check against the latest observations
        if pose_stop:
            stop_offset = pose_offset(stop_p, stop_q, p, q)
            _, dist, _, ang = stop_offset
            if pose_error(dist, ang) <= tolerance:
                break
        elif feature_stop:
            if sighted:
                feat_err = float(np.max(np.abs(px - stop.target)))
                if feat_err <= tolerance:
                    break
        elif force_stop:
            assert press_axis is not None
            err = abs(pressed - stop_force)
            if err > 2.0 * tolerance:
                stop_armed = True
            elif stop_armed and err <= tolerance:
                break
        elif done_stop:
            if spin_ticks_left is not None and spin_ticks_left <= 0:
                break

        if elapsed >= budget:
            raise _abort(SkillTimeout(
                f"{ap.name.value} stop condition {stop_kind.value} "
                f"not met within {stop.timeout_s:.0f} s"),
                "timeout", _state_at(state, p, q_raw), log, f, feat_err)

        # controller command
        if controller == BUCKET_VSC:
            if not sighted:
                u = (0.0,) * 6
            else:
                try:
                    u_cam = ibvs_step(stop.target, px, z)
                except SingularJacobian as exc:
                    _abort(exc, "singular", _state_at(state, p, q_raw), log, f,
                           feat_err)
                    raise
                u = (*cam.rotate(u_cam[:3]).tolist(),
                     *cam.rotate(u_cam[3:]).tolist())
        elif controller == BUCKET_FTC:
            u_f, ud_f = _filter_step(f_des - pressed, u_f, ud_f,
                                     ADM_MASS, ADM_DAMPING, ADM_STIFFNESS, dt)
            u = (ax * u_f, ay * u_f, az * u_f) + _saturate(
                *rotation_offset(hold_q, q), V_MAX_ANG)
        elif steer_by_stop:
            u = _twist(*stop_offset)
        else:
            u = _twist(*pose_offset(goal_p, goal_q, p, q))

        # plant: integrate the twist, then read the contact force there
        p, q_raw = integrate_twist(p, q, u[:3], u[3:], dt)
        q = unit_orientation_f(p, q_raw)
        f = disturb_force(_finite_force(_spring_force(p, planes, holds)))
        elapsed += tick_units
        buckets[controller] += tick_units
        append_row(TickRow(start_units + elapsed, controller, u, f + _NO_TORQUE,
                           feat_err))
        if spin_ticks_left is not None:
            spin_ticks_left -= 1

    # tool actuation: fixed non-motion time
    action = _tool_units(ap)
    if action > 0:
        buckets[BUCKET_N] += action
        elapsed += action
        append_row(TickRow(start_units + elapsed, BUCKET_N, (0.0,) * 6,
                           f + _NO_TORQUE, feat_err))

    log.final_wrench = np.array(f + _NO_TORQUE)
    log.final_feat_err = feat_err
    return _state_at(state, p, q_raw), log
