import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import (flange_project, oracle_camera_pose, oracle_feature_jacobian,
                      oracle_ibvs_step, oracle_project)

from dismantle import control
from dismantle.camera import CX, CY, FOCAL_PX, camera_orientation, project
from dismantle.control import (AdmittanceParams, ContactPlane, PlantState,
                               Retention, Wrench, _feature_rows, _ibvs_twist,
                               admittance_step, plant_step, position_step,
                               run_skill, units, IBVS_GAIN, RATE_VSC_HZ,
                               UNITS_PER_POS_TICK, UNITS_PER_VSC_TICK)
from dismantle.errors import SingularJacobian, SkillTimeout
from dismantle.geometry import Pose, pose_step, rotate_f, rotation_offset
from dismantle.model import Tool
from dismantle.skills import (AP_TIMEOUT_S, GRIP_ACTION_S, IDLE_TOOL,
                              ControlMode, HybridMove, SkillName,
                              SkillPrimitive, StopCondition, StopKind,
                              TaskFrame, ToolCmd, ToolCommand)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# ------------------------------------------------------------- admittance

def test_admittance_params_are_fixed():
    # the filter the skill loop runs, on all six axes; nothing sets another
    params = AdmittanceParams()
    for value, entry in ((params.mass, control.ADM_MASS),
                         (params.damping, control.ADM_DAMPING),
                         (params.stiffness, control.ADM_STIFFNESS)):
        np.testing.assert_array_equal(value, np.full(6, entry))
        assert not value.flags.writeable
    assert params.rate_hz == control.RATE_POS_HZ
    with pytest.raises(TypeError):
        AdmittanceParams(mass=np.full(6, 2.0))


def test_admittance_zero_error_converges_to_zero():
    params = AdmittanceParams()
    filt = (np.full(6, 0.05), np.zeros(6))  # disturbed start, zero input
    u = filt[0]
    for _ in range(500):
        u, filt = admittance_step(params, Wrench(), Wrench(), filt)
    assert np.all(np.abs(u) < 1e-6)


def test_admittance_dc_gain_per_axis():
    params = AdmittanceParams()
    filt = (np.zeros(6), np.zeros(6))
    f_des = Wrench(np.array([10.0, -4.0, 2.0]), np.array([1.0, 0.5, -0.25]))
    for _ in range(units(5.0) // UNITS_PER_POS_TICK):
        u, filt = admittance_step(params, f_des, Wrench(), filt)
    expected = f_des.as_vector() / params.stiffness
    assert np.all(np.abs(u - expected) <= np.abs(expected) * 0.01 + 1e-12)


def test_admittance_bounded_under_bounded_random_input():
    params = AdmittanceParams()
    rng = np.random.default_rng(0)
    filt = (np.zeros(6), np.zeros(6))
    peak = 0.0
    for _ in range(2000):
        f = Wrench(rng.uniform(-50, 50, 3), rng.uniform(-5, 5, 3))
        u, filt = admittance_step(params, f, Wrench(), filt)
        peak = max(peak, float(np.max(np.abs(u))))
    assert peak < 1.0  # 50 N through DC gain 1/500 plus transient headroom


def test_admittance_force_tracking_against_spring():
    # velocity-integrating axis against a 10 kN/m wall at the start position
    params = AdmittanceParams()
    dt = 1.0 / params.rate_hz
    for f_des in (10.0, 20.0, 30.0):
        x, filt = 0.0, (np.zeros(6), np.zeros(6))
        u6 = np.zeros(6)
        for _ in range(int(10.0 / dt)):
            f_act = 10_000.0 * max(0.0, x)
            u6, filt = admittance_step(params,
                                       Wrench(np.array([f_des, 0, 0])),
                                       Wrench(np.array([f_act, 0, 0])), filt)
            x += u6[0] * dt
        f_act = 10_000.0 * max(0.0, x)
        assert abs(f_act - f_des) <= 0.02 * f_des
        assert abs(u6[0]) < 1e-4


# ------------------------------------------------------------- jacobian

def _jacobian(pixels, depths) -> np.ndarray:
    """``control._feature_rows`` of arrays, as a (2k, 6) array."""
    return np.array(list(_feature_rows(np.asarray(pixels, dtype=float).tolist(),
                                       np.asarray(depths, dtype=float).tolist())))


def test_jacobian_center_row():
    jac = _jacobian(np.array([CX, CY, CX + 40, CY, CX, CY + 40]),
                    np.array([1.0, 1.0, 1.0]))
    f = FOCAL_PX
    np.testing.assert_allclose(jac[0], [-f, 0, 0, 0, -f * (1 + 0), 0], atol=1e-9)
    np.testing.assert_allclose(jac[1], [0, -f, 0, f, 0, 0], atol=1e-9)


def test_jacobian_four_features_shape():
    jac = _jacobian(np.arange(8, dtype=float) * 30 + 200,
                    np.array([0.5, 0.6, 0.7, 0.8]))
    assert jac.shape == (8, 6)


def test_jacobian_zero_motion_predicts_zero_flow():
    jac = _jacobian(np.array([100.0, 120, 500, 130, 300, 400]),
                    np.array([0.5, 0.6, 0.7]))
    np.testing.assert_allclose(jac @ np.zeros(6), np.zeros(6), atol=0)


@pytest.mark.parametrize("pixels, depths, message", [
    (np.arange(4, dtype=float), np.ones(2), "at least 3 features"),
    (np.arange(7, dtype=float), np.ones(3), "matching pixel pairs"),
    (np.arange(6, dtype=float), np.array([1.0, 0.0, 1.0]), "depths must be positive"),
    (np.arange(6, dtype=float), np.array([1.0, 1.0, -0.5]), "depths must be positive"),
    # four features and a target for three, which zip would cut short
    (np.arange(6, dtype=float), np.ones(4), "matching pixel pairs"),
])
def test_jacobian_rejects_bad_features(pixels, depths, message):
    if message == "depths must be positive":  # checked on every command
        with pytest.raises(ValueError, match=message):
            _jacobian(pixels, depths)
        with pytest.raises(ValueError, match=message):
            _ibvs_twist([0.0] * pixels.size, pixels.tolist(), depths.tolist())
    else:  # run_skill checks the feature count once per skill, before any tick
        pts = np.column_stack([np.linspace(0.25, 0.35, depths.size),
                               np.zeros(depths.size), FINE_GOAL.position[2] - depths])
        with pytest.raises(ValueError, match=message):
            run_skill(_fine_pos_toward(pixels), PlantState(pose=FINE_GOAL,
                                                           tracked_points=pts))


def _jacobian_rows_loop(pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Per-feature closed form of the interaction matrix, row by row."""
    f = FOCAL_PX
    rows = []
    for (u, v), z in zip(pixels.reshape(-1, 2), depths):
        du = u - CX
        dv = v - CY
        rows.append([-f / z, 0.0, du / z, du * dv / f,
                     -(f * f + du * du) / f, dv])
        rows.append([0.0, -f / z, dv / z, (f * f + dv * dv) / f,
                     -du * dv / f, -du])
    return np.asarray(rows)


def test_jacobian_equals_per_row_closed_form_exactly():
    # the float rows, the loop above and the array oracle make the same
    # per-element operations, so all three agree bit for bit
    rng = np.random.default_rng(7)
    for k in (3, 4, 7):
        for _ in range(50):
            feats = (rng.uniform(-200, 900, size=2 * k),
                     rng.uniform(0.05, 3.0, size=k))
            jac = _jacobian(*feats)
            assert jac.shape == (2 * k, 6)
            assert np.array_equal(jac, _jacobian_rows_loop(*feats))
            assert np.array_equal(jac, oracle_feature_jacobian(*feats))
    # features on the principal point give signed zeros in the same places
    feats = (np.array([CX, CY, CX, CY + 40, CX + 40, CY]), np.array([0.5, 1.0, 2.0]))
    assert np.array_equal(np.signbit(_jacobian(*feats)),
                          np.signbit(_jacobian_rows_loop(*feats)))
    assert np.array_equal(np.signbit(_jacobian(*feats)),
                          np.signbit(oracle_feature_jacobian(*feats)))


def test_pseudo_inverse_exactness_random_features():
    # _ibvs_twist / IBVS_GAIN is the left pseudo-inverse: it takes the flow
    # J e_i of each unit twist e_i back to e_i, so column by column
    # pinv(J) @ J = I
    rng = np.random.default_rng(1)
    for _ in range(20):
        px, z = rng.uniform(100, 500, size=8), rng.uniform(0.3, 1.5, size=4)
        jac = _jacobian(px, z)
        jtj = jac.T @ jac
        if np.linalg.eigvalsh(jtj)[0] < 1e-6:
            continue
        pinv_jac = np.array([_ibvs_twist((px + col).tolist(), px.tolist(), z.tolist())
                             for col in jac.T]).T / IBVS_GAIN
        np.testing.assert_allclose(pinv_jac, np.eye(6), atol=1e-9)


# ------------------------------------------------------------- ibvs

def _ibvs(target_px, pixels, depths) -> np.ndarray:
    """``control._ibvs_twist`` of arrays, as an array."""
    return np.array(_ibvs_twist(*(np.asarray(a, dtype=float).tolist()
                                  for a in (target_px, pixels, depths))))


def test_ibvs_zero_error_zero_command():
    px = np.array([100.0, 120, 500, 130, 300, 400])
    u = _ibvs(px, px, np.array([0.5, 0.6, 0.7]))
    np.testing.assert_allclose(u, np.zeros(6), atol=1e-12)


def test_ibvs_singular_features_raise():
    # collinear points: column space collapses
    px = np.array([100.0, 100, 200, 100, 300, 100])
    with pytest.raises(SingularJacobian):
        _ibvs(px + 5.0, px, np.array([0.5, 0.5, 0.5]))


def test_ibvs_non_positive_pivot_raises(monkeypatch):
    # three features on the principal point leave J's third column zero, so
    # the Cholesky factorisation meets a zero pivot once eigvalsh is told the
    # matrix is well conditioned
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.ones(6))
    px = np.array([CX, CY] * 3)
    with pytest.raises(SingularJacobian, match="degenerate for servoing"):
        _ibvs(px + 5.0, px, np.ones(3))


def test_ibvs_feature_error_decays_exponentially():
    goal = Pose(np.array([0.3, 0.0, 0.20]))
    pts = np.array([[0.35, 0.05, 0.02], [0.25, 0.05, 0.02],
                    [0.25, -0.05, 0.02], [0.35, -0.05, 0.035]])
    f_des, z = flange_project(pts, goal)
    start = Pose(goal.position + np.array([0.05, 0.0, 0.0]))
    feats, _ = flange_project(pts, start)
    dt = 1.0 / RATE_VSC_HZ
    e0 = np.linalg.norm(feats - f_des)
    worst = 0.0
    for i in range(int(10.0 / dt) + 1):
        t = i * dt
        err = np.linalg.norm(feats - f_des)
        ideal = e0 * np.exp(-IBVS_GAIN * t)
        worst = max(worst, abs(err - ideal) / ideal)
        jac = _jacobian(feats, z)
        u = _ibvs(f_des, feats, z)
        feats = feats + jac @ u * dt  # ideal plant: feature flow = J u
    assert worst <= 0.05


def test_ibvs_closed_loop_cartesian_accuracy():
    goal = Pose(np.array([0.3, 0.0, 0.20]))
    pts = np.array([[0.35, 0.05, 0.02], [0.25, 0.05, 0.02],
                    [0.25, -0.05, 0.02], [0.35, -0.05, 0.035]])
    f_des, _ = flange_project(pts, goal)
    dt = 1.0 / RATE_VSC_HZ
    offsets = [np.array([0.05, 0, 0]), np.array([0, 0.05, 0]),
               np.array([0, 0, 0.05]), np.array([0, 0, -0.05]),
               np.array([-0.035, 0.035, 0.0])]
    for off in offsets:
        pose = Pose(goal.position + off)
        for _ in range(int(60.0 / dt)):
            p, q = pose.as_floats()
            q_cam = camera_orientation(p, q)
            px, z = project(pts.tolist(), p, q_cam)
            if np.max(np.abs(np.array(px) - f_des)) <= 0.5:
                break
            u_cam = _ibvs_twist(f_des.tolist(), px, z)
            pose = pose_step(pose, rotate_f(q_cam, u_cam[:3]),
                             rotate_f(q_cam, u_cam[3:]), dt)
        err = np.linalg.norm(pose.position - goal.position)
        assert err <= 0.0012, off


def test_ibvs_float_cores_within_bound_of_array_oracle():
    """The tick's float cores against the array oracle they replaced, on
    flange poses around a fine positioning goal.

    The oracle's BLAS products and LAPACK solve round differently, so the two
    agree within a bound, fixed before measuring: 1e-12 of the largest pixel
    for the projection, 1e-9 of the largest command entry for the twist (the
    singularity test admits J^T J with an eigenvalue ratio down to 1e-9).
    Measured: at most 1.1e-15 and 4.1e-13.
    """
    pts = np.array([[0.35, 0.05, 0.02], [0.25, 0.05, 0.02],
                    [0.25, -0.05, 0.02], [0.35, -0.05, 0.035]])
    goal = Pose(np.array([0.3, 0.0, 0.20]))
    f_des, _ = flange_project(pts, goal)
    rng = np.random.default_rng(5)
    worst_px = worst_u = 0.0
    for _ in range(200):
        pose = Pose.from_rotvec(goal.position + rng.uniform(-0.05, 0.05, 3),
                                rng.uniform(-0.3, 0.3, 3))
        p, q = pose.as_floats()
        q_cam = camera_orientation(p, q)
        cam = oracle_camera_pose(pose)
        assert list(q_cam) == cam.orientation.tolist()
        px, z = project(pts.tolist(), p, q_cam)
        px_oracle, z_oracle = oracle_project(pts, cam)
        worst_px = max(worst_px, np.max(np.abs(np.array(px) - px_oracle))
                       / np.max(np.abs(px_oracle)))
        np.testing.assert_allclose(z, z_oracle, rtol=1e-12)
        u_cam = _ibvs_twist(f_des.tolist(), px, z)
        u = rotate_f(q_cam, u_cam[:3]) + rotate_f(q_cam, u_cam[3:])
        u_oracle = oracle_ibvs_step(f_des, np.array(px), np.array(z))
        u_oracle = np.concatenate([cam.rotate(u_oracle[:3]), cam.rotate(u_oracle[3:])])
        worst_u = max(worst_u, np.max(np.abs(np.array(u) - u_oracle))
                      / np.max(np.abs(u_oracle)))
    assert worst_px <= 1e-12
    assert worst_u <= 1e-9
    print(f"float cores against the array oracle: pixels {worst_px:.2g}, "
          f"twist {worst_u:.2g} of the largest entry")


# ------------------------------------------------------------- position

def test_position_at_goal_zero():
    goal = Pose(np.array([0.2, 0.1, 0.3]))
    np.testing.assert_allclose(position_step(goal, goal), np.zeros(6))


def test_position_travel_time_lower_bound():
    goal = Pose(np.array([1.0, 0.0, 0.0]))
    pose = Pose(np.zeros(3))
    dt = 0.02
    t = 0.0
    while max(pose.distance(goal)) > 1e-3 and t < 30.0:
        u = position_step(goal, pose)
        pose = pose_step(pose, u[:3], u[3:], dt)
        t += dt
    assert t >= 10.0  # 1 m at 0.1 m/s cap


def test_position_orientation_only_pure_angular():
    goal = Pose.from_rotvec(np.zeros(3), np.array([0.0, 0.0, 0.4]))
    u = position_step(goal, Pose(np.zeros(3)))
    np.testing.assert_allclose(u[:3], np.zeros(3), atol=1e-12)
    assert np.linalg.norm(u[3:]) > 0.0


# ------------------------------------------------------------- plant

def test_plant_zero_command_static():
    state = PlantState(pose=Pose(np.array([0.1, 0.0, 0.2])))
    new, wrench = plant_step(state, np.zeros(6), 0.02)
    assert new.pose.approx_equal(state.pose)
    np.testing.assert_allclose(wrench.as_vector(), np.zeros(6))


def test_plant_free_space_zero_force():
    state = PlantState(pose=Pose(np.zeros(3)))
    new, wrench = plant_step(state, np.array([0.05, 0, 0, 0, 0, 0.2]), 0.02)
    np.testing.assert_allclose(wrench.as_vector(), np.zeros(6))


def test_plant_hooke_contact_force():
    plane = ContactPlane(point=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]))
    state = PlantState(pose=Pose(np.array([0.0, 0.0, -0.0009])), contacts=(plane,))
    # integrate a tiny step down to exactly 1 mm penetration
    new, wrench = plant_step(state, np.array([0, 0, -0.005, 0, 0, 0]), 0.02)
    assert abs(new.pose.position[2] + 0.001) < 1e-12
    np.testing.assert_allclose(wrench.force, [0, 0, 10.0], atol=1e-9)


def test_contact_force_continuous_and_one_sided():
    plane = ContactPlane(point=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]))
    above = control._contact_force(np.array([0, 0, 0.001]), (plane,), ())
    at = control._contact_force(np.zeros(3), (plane,), ())
    below = control._contact_force(np.array([0, 0, -1e-9]), (plane,), ())
    np.testing.assert_allclose(above, np.zeros(3))
    np.testing.assert_allclose(at, np.zeros(3))
    assert np.linalg.norm(below) < 1e-4  # continuous through contact


def test_retention_releases_after_travel():
    ret = Retention(anchor=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]))
    seated = control._contact_force(np.array([0, 0, 0.01]), (), (ret,))
    np.testing.assert_allclose(seated, [0, 0, -8.0])
    released = control._contact_force(np.array([0, 0, 0.03]), (), (ret,))
    np.testing.assert_allclose(released, np.zeros(3))


# ------------------------------------------------------------- run_skill

def _rough_pos(goal: Pose, tol=1e-3) -> SkillPrimitive:
    vec = goal.as_vector()
    hm = HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6, vec)
    return SkillPrimitive(SkillName.ROUGH_POS, hm, IDLE_TOOL,
                          StopCondition(StopKind.POSE_REACHED, vec, tol))


def test_run_skill_instant_when_at_goal():
    pose = Pose(np.array([0.3, 0.0, 0.2]))
    state = PlantState(pose=pose)
    new, log = run_skill(_rough_pos(pose), state)
    assert log.total_units() == 0
    assert new.pose.approx_equal(pose)


def test_run_skill_pose_reached_and_path_bucket():
    start = Pose(np.array([0.0, 0.0, 0.2]))
    goal = Pose(np.array([0.2, 0.0, 0.2]))
    state = PlantState(pose=start)
    new, log = run_skill(_rough_pos(goal), state)
    assert max(new.pose.distance(goal)) <= 1e-3
    assert log.buckets["path"] > 0
    assert log.buckets["vsc"] == log.buckets["ftc"] == log.buckets["n"] == 0


def test_run_skill_offsets_once_per_path_tick(monkeypatch):
    calls = []
    offset = control.pose_offset

    def counting_offset(*args):
        calls.append(args)
        return offset(*args)

    monkeypatch.setattr(control, "pose_offset", counting_offset)
    start = Pose(np.array([0.0, 0.0, 0.2]))
    goal = Pose.from_rotvec(np.array([0.2, 0.0, 0.2]), np.array([0.3, 0.0, 0.0]))
    _, log = run_skill(_rough_pos(goal), PlantState(pose=start))
    ticks = log.buckets["path"] // UNITS_PER_POS_TICK
    assert ticks > 10 and len(log.rows) == ticks
    # one offset per commanded tick plus the final stop check
    assert len(calls) == ticks + 1


def test_run_skill_rate_fidelity():
    start = Pose(np.array([0.0, 0.0, 0.2]))
    goal = Pose(np.array([0.05, 0.0, 0.2]))
    _, log = run_skill(_rough_pos(goal), PlantState(pose=start))
    ts = [row.t_units for row in log.rows]
    assert all(t % UNITS_PER_POS_TICK == 0 for t in ts)
    deltas = {b - a for a, b in zip(ts, ts[1:])}
    assert deltas == {UNITS_PER_POS_TICK}


def test_run_skill_force_approach_band():
    press = np.array([0.0, 0.0, -1.0])
    start = Pose(np.array([0.3, 0.0, 0.005]))
    wall = ContactPlane(point=np.array([0.3, 0.0, 0.0]),
                        normal=np.array([0.0, 0.0, 1.0]))
    hm = HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                    np.array([10.0, 0, 0, 0, 0, 0]), contact_axis=press)
    ap = SkillPrimitive(SkillName.PROCESS_OBJ, hm, IDLE_TOOL,
                        StopCondition(StopKind.FORCE_REACHED,
                                      np.array([10.0]), 0.2),
                        component="c", process="press")
    state = PlantState(pose=start, contacts=(wall,))
    new, log = run_skill(ap, state)
    measured = -log.final_wrench[:3] @ press
    assert abs(measured - 10.0) <= 0.2
    assert log.buckets["ftc"] > 0 and log.buckets["path"] == 0


def test_run_skill_force_spin_returns_to_hold_orientation():
    # a 4 s force-held spin that starts 0.2 rad off its hold orientation
    press = np.array([0.0, 0.0, -1.0])
    hold_rv = np.array([0.0, 0.0, 0.5])
    hold = Pose.from_rotvec(np.zeros(3), hold_rv)
    tilt = Pose.from_rotvec(np.zeros(3), np.array([0.2, 0.0, 0.0]))
    start = Pose(np.array([0.3, 0.0, -0.00095]),  # 9.5 N into the wall
                 tilt.compose(hold).orientation)
    wall = ContactPlane(point=np.array([0.3, 0.0, 0.0]),
                        normal=np.array([0.0, 0.0, 1.0]))
    hm = HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                    np.concatenate([[10.0, 0.0, 0.0], hold_rv]), contact_axis=press)
    ap = SkillPrimitive(SkillName.PROCESS_OBJ, hm,
                        ToolCommand(Tool.SCREWDRIVER, ToolCmd.SPIN_CCW),
                        StopCondition(StopKind.TOOL_DONE, np.array([4.0]), 1e-9),
                        component="c", process="unscrew")
    new, log = run_skill(ap, PlantState(pose=start, contacts=(wall,)))
    assert log.buckets == {"path": 0, "vsc": 0, "ftc": units(4.0), "n": 0}
    assert np.linalg.norm(log.rows[0].u_floats[3:]) == pytest.approx(0.5)  # saturated
    to_hold, _ = rotation_offset(hold.orientation.tolist(), new.pose.orientation.tolist())
    assert to_hold == pytest.approx(np.zeros(3), abs=1e-6)
    np.testing.assert_array_equal(new.pose.position[:2], start.position[:2])
    forces = np.array([-press @ row.wrench_floats[:3] for row in log.rows])
    assert np.all(np.abs(forces - 10.0) <= 0.5)


FINE_POINTS = np.array([[0.35, 0.05, 0.02], [0.25, 0.05, 0.02],
                        [0.25, -0.05, 0.02], [0.35, -0.05, 0.035]])
FINE_GOAL = Pose(np.array([0.3, 0.0, 0.20]))


def _fine_pos(goal: Pose = FINE_GOAL, pts: np.ndarray = FINE_POINTS,
              timeout_s: float = AP_TIMEOUT_S) -> SkillPrimitive:
    return _fine_pos_toward(flange_project(pts, goal)[0], timeout_s)


def _fine_pos_toward(f_des: np.ndarray, timeout_s: float = AP_TIMEOUT_S,
                     ) -> SkillPrimitive:
    hm = HybridMove(TaskFrame.RGBD, (ControlMode.VSC,) * f_des.size, f_des)
    return SkillPrimitive(SkillName.FINE_POS, hm, IDLE_TOOL,
                          StopCondition(StopKind.FEATURE_REACHED, f_des, 0.5,
                                        timeout_s=timeout_s),
                          component="c")


def test_run_skill_fine_pos_accuracy():
    goal = FINE_GOAL
    start = Pose(goal.position + np.array([0.05, 0.0, 0.0]))
    state = PlantState(pose=start, tracked_points=FINE_POINTS)
    new, log = run_skill(_fine_pos(), state)
    assert np.linalg.norm(new.pose.position - goal.position) <= 0.0012
    assert log.buckets["vsc"] > 0
    ts = [row.t_units for row in log.rows]
    assert all(t % UNITS_PER_VSC_TICK == 0 for t in ts)


def test_run_skill_projects_once_per_vsc_tick(monkeypatch):
    calls = []

    def counting_project(points, p, q_cam):
        calls.append(q_cam)
        return project(points, p, q_cam)

    monkeypatch.setattr(control, "project", counting_project)
    start = Pose(FINE_GOAL.position + np.array([0.05, 0.0, 0.0]))
    _, log = run_skill(_fine_pos(), PlantState(pose=start,
                                               tracked_points=FINE_POINTS))
    ticks = log.buckets["vsc"] // UNITS_PER_VSC_TICK
    assert ticks > 100 and len(log.rows) == ticks
    # one projection per commanded tick plus the final stop check
    assert len(calls) == ticks + 1


def test_run_skill_feature_behind_camera_raises_singular_with_log():
    # a goal below a raised point: servoing walks the camera past it
    pts = FINE_POINTS.copy()
    pts[3, 2] = 0.12
    ap = _fine_pos(Pose(np.array([0.3, 0.0, 0.08])), pts)
    start = Pose(np.array([0.3, 0.0, 0.2]))
    with pytest.raises(SingularJacobian, match="not in front of the camera") as exc:
        run_skill(ap, PlantState(pose=start, tracked_points=pts), start_units=40)
    log, state = exc.value.log, exc.value.state
    assert log.stopped_by == "singular"
    assert log.buckets["vsc"] > 0
    assert log.buckets["vsc"] == len(log.rows) * UNITS_PER_VSC_TICK
    assert log.rows[-1].t_units == 40 + log.buckets["vsc"]
    _, z = flange_project(pts, state.pose)
    assert z[3] <= 0.0 < np.min(z[:3])


def test_run_skill_degenerate_features_raise_singular_with_log():
    # three coincident points in front of the camera: J^T J is rank 2, so the
    # first tick's _ibvs_twist cannot servo toward a target 5 px off
    pts = np.array([[0.3, 0.0, 0.02]] * 3)
    start = Pose(np.array([0.3, 0.0, 0.2]))
    seen, z = flange_project(pts, start)
    assert np.all(z > 0.0)
    f_des = seen + np.array([5.0, 0.0] * 3)
    hm = HybridMove(TaskFrame.RGBD, (ControlMode.VSC,) * 6, f_des)
    ap = SkillPrimitive(SkillName.FINE_POS, hm, IDLE_TOOL,
                        StopCondition(StopKind.FEATURE_REACHED, f_des, 0.5),
                        component="c")
    with pytest.raises(SingularJacobian, match="degenerate for servoing") as exc:
        run_skill(ap, PlantState(pose=start, tracked_points=pts))
    log = exc.value.log
    assert log.stopped_by == "singular"
    assert exc.value.state.pose is start
    assert log.rows == [] and log.total_units() == 0
    assert log.final_feat_err == pytest.approx(5.0)


def test_run_skill_timeout_raises():
    goal = Pose(np.array([5.0, 0.0, 0.2]))  # unreachable within 1 s
    vec = goal.as_vector()
    hm = HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6, vec)
    ap = SkillPrimitive(SkillName.ROUGH_POS, hm, IDLE_TOOL,
                        StopCondition(StopKind.POSE_REACHED, vec, 1e-3,
                                      timeout_s=1.0))
    with pytest.raises(SkillTimeout) as exc:
        run_skill(ap, PlantState(pose=Pose(np.zeros(3))))
    assert exc.value.log.buckets["path"] == units(1.0)


def test_run_skill_tool_action_books_nonproductive_time():
    pose = Pose(np.array([0.3, 0.0, 0.2]))
    vec = pose.as_vector()
    hm = HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6, vec)
    ap = SkillPrimitive(SkillName.PUT_OBJ, hm,
                        ToolCommand(Tool.GRIPPER, ToolCmd.OPEN),
                        StopCondition(StopKind.TOOL_DONE,
                                      np.array([GRIP_ACTION_S]), 1e-9),
                        component="c")
    _, log = run_skill(ap, PlantState(pose=pose))
    assert log.buckets["n"] == units(GRIP_ACTION_S)
    assert log.buckets["path"] == 0


def _ftc_press(press: np.ndarray, timeout_s: float = 60.0) -> SkillPrimitive:
    hm = HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                    np.array([10.0, 0, 0, 0, 0, 0]), contact_axis=press)
    return SkillPrimitive(SkillName.PROCESS_OBJ, hm, IDLE_TOOL,
                          StopCondition(StopKind.FORCE_REACHED, np.array([10.0]),
                                        0.2, timeout_s=timeout_s),
                          component="c", process="press")


def _overflowing_wall(start):
    # 1e306 m deep: the spring force (ENV_STIFFNESS times the depth)
    # overflows to inf at the first observation
    return PlantState(pose=start, contacts=(ContactPlane(
        point=start.position + [0.0, 0.0, 1e306], normal=np.array([0.0, 0.0, 1.0])),))


def _infinite_sensor(start):
    # the true force is zero; the sensor's first reading is not finite
    return PlantState(pose=start, force_noise=lambda f: (float("inf"), 0.0, 0.0))


@pytest.mark.parametrize("plant", [_overflowing_wall, _infinite_sensor],
                         ids=["spring", "sensor"])
def test_run_skill_rejects_non_finite_contact_force(plant):
    press = np.array([0.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        run_skill(_ftc_press(press, timeout_s=1.0),
                  plant(Pose(np.array([0.3, 0.0, 0.0]))))


def test_run_skill_fine_pos_without_tracked_points_starves_until_timeout():
    # a plant with no tracked points: the camera sees nothing to servo on
    start = Pose(FINE_GOAL.position + np.array([0.05, 0.0, 0.0]))
    with pytest.raises(SkillTimeout) as exc:
        run_skill(_fine_pos(timeout_s=2.0), PlantState(pose=start), start_units=40)
    log, pose = exc.value.log, exc.value.state.pose
    assert log.stopped_by == "timeout"
    assert log.buckets == {"path": 0, "vsc": units(2.0), "ftc": 0, "n": 0}
    assert len(log.rows) == units(2.0) // UNITS_PER_VSC_TICK
    assert all(row.u_floats == (0.0,) * 6 for row in log.rows)
    assert log.rows[-1].t_units == 40 + units(2.0)
    np.testing.assert_array_equal(pose.position, start.position)
    np.testing.assert_array_equal(pose.orientation, start.orientation)


def test_run_skill_force_noise_is_the_measured_force():
    # free space, so the true force is zero and the loop sees only the sensor
    press = np.array([0.0, 0.0, -1.0])
    true_forces, measured = [], []

    def force_noise(force):
        true_forces.append(force)
        pressed = 3.0 if len(true_forces) < 5 else 10.0  # 3 N, then the stop force
        measured.append((0.1 * len(true_forces), 0.0, pressed))
        return measured[-1]

    _, log = run_skill(_ftc_press(press), PlantState(pose=Pose(np.zeros(3)),
                                                     force_noise=force_noise))
    assert true_forces == [(0.0, 0.0, 0.0)] * 5 and len(log.rows) == 5
    assert [row.wrench_floats for row in log.rows] == [
        f + (0.0, 0.0, 0.0) for f in measured]
    # the admittance filter reacts to the reading before each tick: the true
    # force before the first, then the measured ones
    u_f = ud_f = 0.0
    for row, f in zip(log.rows, [(0.0, 0.0, 0.0)] + measured):
        u_f, ud_f = control._filter_step(10.0 - f[2], u_f, ud_f, control.ADM_MASS,
                                         control.ADM_DAMPING, control.ADM_STIFFNESS,
                                         UNITS_PER_POS_TICK * control.CLOCK_UNIT_S)
        assert row.u_floats[:3] == tuple((press * u_f).tolist())
    with pytest.raises(ValueError, match="finite"):
        run_skill(_ftc_press(press), PlantState(
            pose=Pose(np.zeros(3)), force_noise=lambda f: (float("nan"), 0.0, 0.0)))


def _huge_path_move():
    # the offset overflows to -inf, so the command and then the pose are NaN
    return _rough_pos(Pose(np.array([-1e308, 0.0, 0.2]))), Pose(np.array([1e308, 0.0, 0.2]))


def _huge_press():
    # a 1e308 N setpoint drives the second tick's position past the float range
    hm = HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                    np.array([1e308, 0, 0, 0, 0, 0]), contact_axis=np.array([1.0, 0, 0]))
    ap = SkillPrimitive(SkillName.PROCESS_OBJ, hm, IDLE_TOOL,
                        StopCondition(StopKind.FORCE_REACHED, np.array([10.0]), 0.2,
                                      timeout_s=1.0),
                        component="c", process="press")
    return ap, Pose(np.array([np.finfo(float).max, 0.0, 0.0]))


@pytest.mark.parametrize("build", [_huge_path_move, _huge_press], ids=["path", "ftc"])
def test_run_skill_rejects_non_finite_pose(build):
    ap, start = build()
    with pytest.raises(ValueError, match="pose entries must be finite"):
        run_skill(ap, PlantState(pose=start))


_UP = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("build", [
    lambda: ContactPlane(np.array([0.0, np.nan, 0.0]), _UP),
    lambda: ContactPlane(np.zeros(3), np.zeros(3)),
    lambda: ContactPlane(np.zeros(3), np.array([0.0, 0.0, 1.0 + 2e-6])),
    lambda: ContactPlane(np.zeros(3), np.array([0.0, np.inf, 1.0])),
    lambda: ContactPlane(np.zeros(3), np.ones(2)),
    lambda: Retention(np.array([np.inf, 0.0, 0.0]), _UP),
    lambda: Retention(np.zeros(3), 2.0 * _UP),
], ids=["plane.point", "plane.normal_zero", "plane.normal_long", "plane.normal_inf",
        "plane.normal_shape", "retention.anchor", "retention.axis"])
def test_contact_plane_and_retention_reject_bad_values(build):
    with pytest.raises(ValueError):
        build()


def test_contact_plane_and_retention_store_read_only_unscaled_copies():
    normal = np.array([0.0, 0.0, 1.0 + 9e-7])
    wall = ContactPlane(np.zeros(3), normal)
    ret = Retention(np.zeros(3), normal)
    for stored in (wall.point, wall.normal, ret.anchor, ret.axis):
        assert not stored.flags.writeable
    assert wall.normal is not normal and wall.normal.tobytes() == normal.tobytes()
    assert ret.axis.tobytes() == normal.tobytes()


def test_run_skill_leaves_caller_arrays_unchanged():
    press = np.array([0.0, 0.0, -1.0])
    wall = ContactPlane(point=np.array([0.3, 0.0, 0.0]),
                        normal=np.array([0.0, 0.0, 1.0]))
    ret = Retention(anchor=np.array([0.3, 0.0, 0.005]), axis=np.array([0.0, 0.0, 1.0]))
    start = Pose.from_rotvec(np.array([0.3, 0.0, 0.005]), np.array([0.1, -0.2, 0.3]))
    state = PlantState(pose=start, contacts=(wall,), retentions=(ret,))
    pts = FINE_POINTS.copy()
    sighted = PlantState(pose=Pose(FINE_GOAL.position + [0.02, 0.0, 0.0]),
                         tracked_points=pts)
    arrays = [start.position, start.orientation, wall.point, wall.normal,
              ret.anchor, ret.axis, pts, sighted.pose.position]
    before = [a.copy() for a in arrays]
    run_skill(_ftc_press(press), state)
    run_skill(_rough_pos(Pose(np.array([0.3, 0.05, 0.1]))), state)
    run_skill(_fine_pos(), sighted)
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()
    assert state.pose is start and sighted.tracked_points is pts


def test_run_skill_grip_returns_start_pose_bits():
    pose = Pose.from_rotvec(np.array([0.3, 0.0, 0.2]), np.array([0.3, -0.7, 1.1]))
    ap = SkillPrimitive(SkillName.PROCESS_OBJ,
                        HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6,
                                   pose.as_vector()),
                        ToolCommand(Tool.GRIPPER, ToolCmd.CLOSE),
                        StopCondition(StopKind.TOOL_DONE,
                                      np.array([GRIP_ACTION_S]), 1e-9),
                        component="c", process="grip")
    new, log = run_skill(ap, PlantState(pose=pose))
    assert log.rows and all(row.controller == "n" for row in log.rows)
    assert new.pose.position.tobytes() == pose.position.tobytes()
    assert new.pose.orientation.tobytes() == pose.orientation.tobytes()


def _spin_and_path_skills():
    """A force spin (400 ticks) and a path move (about 300 ticks), each against
    a contact plane that it penetrates."""
    press = np.array([0.0, 0.0, -1.0])
    hold_rv = np.array([0.0, 0.0, 0.5])
    wall = ContactPlane(point=np.array([0.3, 0.0, 0.0]),
                        normal=np.array([0.0, 0.0, 1.0]))
    hm = HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                    np.concatenate([[10.0, 0.0, 0.0], hold_rv]), contact_axis=press)
    spin = SkillPrimitive(SkillName.PROCESS_OBJ, hm,
                          ToolCommand(Tool.SCREWDRIVER, ToolCmd.SPIN_CCW),
                          StopCondition(StopKind.TOOL_DONE, np.array([8.0]), 1e-9),
                          component="c", process="unscrew")
    spin_start = Pose.from_rotvec(np.array([0.3, 0.0, -0.0005]), np.array([0.2, 0.0, 0.0]))
    ceiling = ContactPlane(point=np.array([0.0, 0.0, 0.2005]),
                           normal=np.array([0.0, 0.0, 1.0]))
    goal = Pose.from_rotvec(np.array([0.5, 0.1, 0.19]), np.array([0.0, 0.4, 0.2]))
    return [(spin, PlantState(pose=spin_start, contacts=(wall,))),
            (_rough_pos(goal), PlantState(pose=Pose(np.array([0.0, 0.0, 0.2])),
                                          contacts=(ceiling,)))]


def _run_bytes(ap, state):
    """Every row of a skill and its end pose, as raw bytes."""
    new, log = run_skill(ap, state)
    return ([(row.t_units, row.controller, np.array(row.u_floats).tobytes(),
              np.array(row.wrench_floats).tobytes(), row.feat_err_px)
             for row in log.rows],
            new.pose.position.tobytes() + new.pose.orientation.tobytes())


def test_path_and_force_ticks_do_not_depend_on_the_blas_kernel():
    """The skills of ``_spin_and_path_skills`` give the same bytes in a
    process that forces OpenBLAS's Nehalem kernels as in this one.

    ``OPENBLAS_CORETYPE`` picks the kernel set of an OpenBLAS that chooses
    its kernels at run time (a DYNAMIC_ARCH build, as numpy's wheels ship);
    Nehalem is within numpy's x86-64-v2 baseline, so those kernels can run
    on any CPU numpy runs on.  Where numpy's BLAS is not such an OpenBLAS,
    the variable is ignored and both runs use the same kernels.
    """
    code = ("import pickle, sys, test_control as t; sys.stdout.buffer.write("
            "pickle.dumps([t._run_bytes(*s) for s in t._spin_and_path_skills()]))")
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem", PYTHONPATH=os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert pickle.loads(proc.stdout) == [_run_bytes(ap, state)
                                         for ap, state in _spin_and_path_skills()]


def test_run_skill_in_two_threads_equals_serial_runs():
    # a skill's ticks must read no per-call state that another thread's skill
    # can change midway
    skills = _spin_and_path_skills()
    serial = [_run_bytes(ap, state) for ap, state in skills]
    assert len(serial[0][0]) == 400 and len(serial[1][0]) > 250
    assert {row[3] for row in serial[0][0]} != {serial[0][0][0][3]}  # forces vary
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
    try:
        for _ in range(3):
            results = [None, None]
            start = threading.Barrier(2)

            def run(i):
                start.wait()
                results[i] = _run_bytes(*skills[i])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == serial
    finally:
        sys.setswitchinterval(switch)
