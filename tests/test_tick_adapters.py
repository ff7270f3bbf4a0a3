"""The object-level adapters reproduce ``run_skill``'s ticks bit for bit.

``position_step``, ``admittance_step``, ``pose_step`` and ``plant_step`` wrap
the float kernels the position and force loops run.  Chaining them tick by
tick must give every row's command and wrench, and the end pose, as the same
raw float64 bytes as ``run_skill``: the loop and the adapters compose the
kernels the same way.

``Pose`` and ``Rotation`` call ``geometry``'s float cores directly; the array
expressions they replaced are kept here as an oracle, and the methods must
give its bits.  The oracles sum every short dot product left to right, as
``vec_norm`` and ``vec_dot`` do, so no oracle depends on the BLAS kernel that
numpy loaded.
"""

import math
import operator
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dismantle.control import (CLOCK_UNIT_S, UNITS_PER_POS_TICK, AdmittanceParams,
                               ContactPlane, PlantState, Wrench, admittance_step,
                               plant_step, position_step, run_skill)
from dismantle.errors import SkillTimeout
from dismantle.geometry import (Pose, Rotation, pose_step, quat_apply,
                                quat_from_rotvec_f, quat_multiply_f, quat_to_rotvec_f,
                                vec_dot, vec_norm)
from dismantle.model import Tool
from dismantle.skills import (IDLE_TOOL, ControlMode, HybridMove, SkillName,
                              SkillPrimitive, StopCondition, StopKind, TaskFrame,
                              ToolCmd, ToolCommand)

TICKS = 3
DT = UNITS_PER_POS_TICK * CLOCK_UNIT_S
EXAMPLES = settings(derandomize=True, database=None, max_examples=60, deadline=None)

vec3 = st.tuples(*[st.floats(-0.5, 0.5)] * 3).map(np.array)
rotvec = st.tuples(*[st.floats(-2.0, 2.0)] * 3).map(np.array)
unit = (st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v)))
gap = st.floats(-0.003, 0.01)  # start height over the plane; negative: penetrating
# rotation vectors of any angle up to 2*sqrt(3) rad, or near the small-angle series
any_rotvec = st.one_of(rotvec, st.tuples(*[st.floats(-1e-3, 1e-3)] * 3).map(np.array))
pose = st.builds(Pose.from_rotvec, vec3, any_rotvec)
# raw unit quaternions, w < 0 included, so Pose's sign flip is exercised
quat = (st.tuples(*[st.floats(-1.0, 1.0)] * 4).map(np.array)
        .filter(lambda q: np.linalg.norm(q) > 0.1).map(lambda q: q / np.linalg.norm(q)))
magnitude = st.floats(1e-150, 1e150)
entry = st.one_of(magnitude, magnitude.map(operator.neg))
mantissa = st.one_of(st.floats(0.5, 1.0), st.floats(-1.0, -0.5))


def _entries(n: int):
    """n floats from 1e-150 to 1e150 in magnitude: either each of its own
    size, or all of one binary scale, so that their products are alike in
    size and the order of their sum shows in its rounding."""
    alike = st.integers(-490, 497).flatmap(
        lambda e: st.tuples(*[mantissa.map(lambda m: math.ldexp(m, e))] * n))
    return st.one_of(st.tuples(*[entry] * n), alike)


def _oracle_dot(v, w) -> float:
    """v . w of two float sequences, summed left to right: x*a + y*b + z*c."""
    return reduce(operator.add, map(operator.mul, v, w))


def _oracle_norm(v) -> float:
    return math.sqrt(_oracle_dot(v, v))


def _run_to_end(ap: SkillPrimitive, state: PlantState):
    """(state, log) of run_skill, also when the skill times out."""
    try:
        return run_skill(ap, state)
    except SkillTimeout as exc:
        return exc.state, exc.log


def _assert_same_pose(a: Pose, b: Pose):
    assert a.position.tobytes() == b.position.tobytes()
    assert a.orientation.tobytes() == b.orientation.tobytes()


@EXAMPLES
@given(p0=vec3, rv0=rotvec, offset=vec3, goal_rv=rotvec, normal=unit, height=gap)
def test_path_ticks_equal_position_and_plant_steps(p0, rv0, offset, goal_rv, normal,
                                                   height):
    plane = ContactPlane(point=p0 - height * normal, normal=normal)
    vec = np.concatenate([p0 + offset, goal_rv])
    # a stop band no pose reaches, so the move runs TICKS ticks and times out
    hm = HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6, vec)
    ap = SkillPrimitive(SkillName.ROUGH_POS, hm, IDLE_TOOL,
                        StopCondition(StopKind.POSE_REACHED, vec, 1e-300,
                                      timeout_s=TICKS * DT))
    state = PlantState(pose=Pose.from_rotvec(p0, rv0), contacts=(plane,))
    end, log = _run_to_end(ap, state)
    goal = Pose.from_rotvec(vec[:3], vec[3:])
    for row in log.rows:
        u = position_step(goal, state.pose)
        assert np.array(row.u_floats).tobytes() == u.tobytes()
        stepped = pose_step(state.pose, u[:3], u[3:], DT)
        state, wrench = plant_step(state, u, DT)
        _assert_same_pose(stepped, state.pose)
        assert np.array(row.wrench_floats).tobytes() == wrench.as_vector().tobytes()
    _assert_same_pose(end.pose, state.pose)


@EXAMPLES
@given(p0=vec3, rv0=rotvec, twist=st.tuples(vec3, rotvec), hold_rv=rotvec, normal=unit,
       height=gap, f_des=st.floats(0.0, 30.0))
def test_force_ticks_equal_admittance_and_plant_steps(p0, rv0, twist, hold_rv, normal,
                                                      height, f_des):
    plane = ContactPlane(point=p0 - height * normal, normal=normal)
    # a plant step into the start, so its wrench is the first observation
    state, wrench = plant_step(PlantState(pose=Pose.from_rotvec(p0, rv0),
                                          contacts=(plane,)),
                               np.concatenate(twist) * 0.1, DT)
    hm = HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                    np.concatenate([[f_des, 0.0, 0.0], hold_rv]), contact_axis=-normal)
    axis = hm.contact_axis  # stored normalised
    ap = SkillPrimitive(SkillName.PROCESS_OBJ, hm,
                        ToolCommand(Tool.SCREWDRIVER, ToolCmd.SPIN_CCW),
                        StopCondition(StopKind.TOOL_DONE, np.array([TICKS * DT]), 1e-9),
                        component="c", process="unscrew")
    end, log = run_skill(ap, state)
    assert len(log.rows) == TICKS
    params = AdmittanceParams()
    filt = (np.zeros(6), np.zeros(6))
    for row in log.rows:
        measured = -_oracle_dot(wrench.force.tolist(), axis.tolist())
        u6, filt = admittance_step(params, Wrench(np.array([f_des, 0.0, 0.0])),
                                   Wrench(np.array([measured, 0.0, 0.0])), filt)
        # the angular command holds the orientation, as a position step does
        hold = position_step(Pose.from_rotvec(state.pose.position, hold_rv), state.pose)
        u = np.concatenate([axis * u6[0], hold[3:]])
        assert np.array(row.u_floats).tobytes() == u.tobytes()
        state, wrench = plant_step(state, u, DT)
        assert np.array(row.wrench_floats).tobytes() == wrench.as_vector().tobytes()
    _assert_same_pose(end.pose, state.pose)


# ------------------------------------------------------------- pose oracle

_CONJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def _quat_multiply(a, b):
    return np.array(quat_multiply_f(a.tolist(), b.tolist()))


def _quat_conjugate(q):
    return q * _CONJUGATE_SIGNS


def _quat_from_rotvec(rv):
    return np.array(quat_from_rotvec_f(np.asarray(rv, dtype=float).tolist()))


def _quat_to_rotvec(q):
    return np.array(quat_to_rotvec_f(q.tolist()))


def _oracle_compose(a: Pose, b: Pose) -> Pose:
    return Pose(a.apply(b.position), _quat_multiply(a.orientation, b.orientation))


def _oracle_inverse(a: Pose) -> Pose:
    q_inv = _quat_conjugate(a.orientation)
    return Pose(-quat_apply(q_inv, a.position), q_inv)


def _oracle_distance(a: Pose, b: Pose) -> np.ndarray:
    rotation = _quat_multiply(b.orientation, _quat_conjugate(a.orientation))
    return np.array([_oracle_norm((b.position - a.position).tolist()),
                     _oracle_norm(_quat_to_rotvec(rotation).tolist())])


def _oracle_orientation(q) -> np.ndarray:
    """q / |q| as ``Pose`` stores it, negated if w < 0."""
    unit = np.array(q) / _oracle_norm(q)
    return -unit if unit[0] < 0.0 else unit


@EXAMPLES
@given(a=pose, b=pose, p=vec3, q=quat, rv=any_rotvec)
def test_pose_methods_equal_array_oracle(a, b, p, q, rv):
    raw = Pose(p, q)
    for x, y in ((a, b), (b, a), (raw, a), (a, raw)):
        _assert_same_pose(x.compose(y), _oracle_compose(x, y))
        _assert_same_pose(x.inverse(), _oracle_inverse(x))
        assert x.rotvec().tobytes() == _quat_to_rotvec(x.orientation).tobytes()
        assert np.array(x.distance(y)).tobytes() == _oracle_distance(x, y).tobytes()
        product = x.rotation * y.rotation
        assert isinstance(product, Rotation)
        assert product.quat.tobytes() == _quat_multiply(x.orientation,
                                                        y.orientation).tobytes()
        assert product.as_rotvec().tobytes() == _quat_to_rotvec(product.quat).tobytes()
    _assert_same_pose(Pose.from_rotvec(p, rv), Pose(p, _quat_from_rotvec(rv)))


@EXAMPLES
@given(v=_entries(4), w=_entries(3), p=vec3)
def test_short_dot_products_equal_left_to_right_sums(v, w, p):
    for x in (v[:3], v):
        assert np.float64(vec_norm(x)).tobytes() == np.float64(_oracle_norm(x)).tobytes()
    assert (np.float64(vec_dot(v[:3], w)).tobytes()
            == np.float64(_oracle_dot(v[:3], w)).tobytes())
    q = (np.array(v) / np.linalg.norm(v)).tolist()  # unit to within a few ulps
    assert Pose(p, q).orientation.tobytes() == _oracle_orientation(q).tobytes()
