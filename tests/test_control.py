import numpy as np
import pytest

from dismantle.camera import DEFAULT_CAMERA
from dismantle.control import (AdmittanceParams, ContactPlane, FeatureVector,
                               IbvsParams, PlantState, Retention, Wrench,
                               admittance_step, contact_wrench,
                               feature_jacobian, ibvs_step, plant_step,
                               position_step, run_skill, units,
                               UNITS_PER_POS_TICK, UNITS_PER_VSC_TICK)
from dismantle.errors import SingularJacobian, SkillTimeout
from dismantle.geometry import Pose, pose_step
from dismantle.model import Tool
from dismantle.skills import (GRIP_ACTION_S, IDLE_TOOL, ControlMode,
                              HybridMove, SkillName, SkillPrimitive,
                              StopCondition, StopKind, TaskFrame, ToolCmd,
                              ToolCommand)


# ------------------------------------------------------------- admittance

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

def test_jacobian_center_row():
    cam = DEFAULT_CAMERA
    feats = FeatureVector(np.array([cam.cx, cam.cy, cam.cx + 40, cam.cy,
                                    cam.cx, cam.cy + 40]),
                          np.array([1.0, 1.0, 1.0]))
    jac = feature_jacobian(feats, cam)
    f = cam.focal
    np.testing.assert_allclose(jac[0], [-f, 0, 0, 0, -f * (1 + 0), 0], atol=1e-9)
    np.testing.assert_allclose(jac[1], [0, -f, 0, f, 0, 0], atol=1e-9)


def test_jacobian_four_features_shape():
    feats = FeatureVector(np.arange(8, dtype=float) * 30 + 200,
                          np.array([0.5, 0.6, 0.7, 0.8]))
    assert feature_jacobian(feats).shape == (8, 6)


def test_jacobian_zero_motion_predicts_zero_flow():
    feats = FeatureVector(np.array([100.0, 120, 500, 130, 300, 400]),
                          np.array([0.5, 0.6, 0.7]))
    jac = feature_jacobian(feats)
    np.testing.assert_allclose(jac @ np.zeros(6), np.zeros(6), atol=0)


def test_pseudo_inverse_exactness_random_features():
    rng = np.random.default_rng(1)
    params = IbvsParams(gain=1.0)
    for _ in range(20):
        feats = FeatureVector(rng.uniform(100, 500, size=8),
                              rng.uniform(0.3, 1.5, size=4))
        jac = feature_jacobian(feats)
        jtj = jac.T @ jac
        if np.linalg.eigvalsh(jtj)[0] < 1e-6:
            continue
        pinv = np.linalg.solve(jtj, jac.T)
        np.testing.assert_allclose(pinv @ jac, np.eye(6), atol=1e-9)


# ------------------------------------------------------------- ibvs

def test_ibvs_zero_error_zero_command():
    feats = FeatureVector(np.array([100.0, 120, 500, 130, 300, 400]),
                          np.array([0.5, 0.6, 0.7]))
    u = ibvs_step(IbvsParams(), feats, feats)
    np.testing.assert_allclose(u, np.zeros(6), atol=1e-12)


def test_ibvs_singular_features_raise():
    # collinear points: column space collapses
    px = np.array([100.0, 100, 200, 100, 300, 100])
    feats = FeatureVector(px, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(SingularJacobian):
        ibvs_step(IbvsParams(), FeatureVector(px + 5.0, feats.depths), feats)


def test_ibvs_feature_error_decays_exponentially():
    cam = DEFAULT_CAMERA
    params = IbvsParams()
    goal = Pose(np.array([0.3, 0.0, 0.20]))
    pts = np.array([[0.35, 0.05, 0.02], [0.25, 0.05, 0.02],
                    [0.25, -0.05, 0.02], [0.35, -0.05, 0.035]])
    f_des, z = cam.project(pts, goal)
    start = Pose(goal.position + np.array([0.05, 0.0, 0.0]))
    feats, _ = cam.project(pts, start)
    dt = 1.0 / params.rate_hz
    e0 = np.linalg.norm(feats - f_des)
    worst = 0.0
    for i in range(int(10.0 / dt) + 1):
        t = i * dt
        err = np.linalg.norm(feats - f_des)
        ideal = e0 * np.exp(-params.gain * t)
        worst = max(worst, abs(err - ideal) / ideal)
        jac = feature_jacobian(FeatureVector(feats, z), cam)
        u = ibvs_step(params, FeatureVector(f_des, z), FeatureVector(feats, z))
        feats = feats + jac @ u * dt  # ideal plant: feature flow = J u
    assert worst <= 0.05


def test_ibvs_closed_loop_cartesian_accuracy():
    cam = DEFAULT_CAMERA
    params = IbvsParams()
    goal = Pose(np.array([0.3, 0.0, 0.20]))
    pts = np.array([[0.35, 0.05, 0.02], [0.25, 0.05, 0.02],
                    [0.25, -0.05, 0.02], [0.35, -0.05, 0.035]])
    f_des, _ = cam.project(pts, goal)
    dt = 1.0 / params.rate_hz
    offsets = [np.array([0.05, 0, 0]), np.array([0, 0.05, 0]),
               np.array([0, 0, 0.05]), np.array([0, 0, -0.05]),
               np.array([-0.035, 0.035, 0.0])]
    for off in offsets:
        pose = Pose(goal.position + off)
        for _ in range(int(60.0 / dt)):
            px, z = cam.project(pts, pose)
            if np.max(np.abs(px - f_des)) <= 0.5:
                break
            u_cam = ibvs_step(params, FeatureVector(f_des, z),
                              FeatureVector(px, z))
            rot = cam.camera_pose(pose).rotation
            pose = pose_step(pose, rot.apply(u_cam[:3]), rot.apply(u_cam[3:]), dt)
        err = np.linalg.norm(pose.position - goal.position)
        assert err <= 0.0012, off


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
        u = position_step(goal, pose, v_max=0.1)
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
    new, (wrench, feats) = plant_step(state, np.zeros(6), 0.02)
    assert new.pose.approx_equal(state.pose)
    np.testing.assert_allclose(wrench.as_vector(), np.zeros(6))
    assert feats is None


def test_plant_free_space_zero_force():
    state = PlantState(pose=Pose(np.zeros(3)))
    new, (wrench, _) = plant_step(state, np.array([0.05, 0, 0, 0, 0, 0.2]), 0.02)
    np.testing.assert_allclose(wrench.as_vector(), np.zeros(6))


def test_plant_hooke_contact_force():
    plane = ContactPlane(point=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]),
                         stiffness=10_000.0)
    state = PlantState(pose=Pose(np.array([0.0, 0.0, -0.0009])), contacts=(plane,))
    # integrate a tiny step down to exactly 1 mm penetration
    new, (wrench, _) = plant_step(state, np.array([0, 0, -0.005, 0, 0, 0]), 0.02)
    assert abs(new.pose.position[2] + 0.001) < 1e-12
    np.testing.assert_allclose(wrench.force, [0, 0, 10.0], atol=1e-9)


def test_contact_force_continuous_and_one_sided():
    plane = ContactPlane(point=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]))
    above = contact_wrench(Pose(np.array([0, 0, 0.001])), (plane,), ())
    at = contact_wrench(Pose(np.zeros(3)), (plane,), ())
    below = contact_wrench(Pose(np.array([0, 0, -1e-9])), (plane,), ())
    np.testing.assert_allclose(above.force, np.zeros(3))
    np.testing.assert_allclose(at.force, np.zeros(3))
    assert np.linalg.norm(below.force) < 1e-4  # continuous through contact


def test_retention_releases_after_travel():
    ret = Retention(anchor=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]),
                    force_n=8.0, release_dist=0.02)
    seated = contact_wrench(Pose(np.array([0, 0, 0.01])), (), (ret,))
    np.testing.assert_allclose(seated.force, [0, 0, -8.0])
    released = contact_wrench(Pose(np.array([0, 0, 0.03])), (), (ret,))
    np.testing.assert_allclose(released.force, np.zeros(3))


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
    assert np.linalg.norm(log.rows[0].u[3:]) == pytest.approx(0.5)  # saturated
    assert new.pose.rotation_to(hold) == pytest.approx(np.zeros(3), abs=1e-6)
    np.testing.assert_array_equal(new.pose.position[:2], start.position[:2])
    forces = np.array([-row.wrench[:3] @ press for row in log.rows])
    assert np.all(np.abs(forces - 10.0) <= 0.5)


def test_run_skill_fine_pos_accuracy():
    cam = DEFAULT_CAMERA
    goal = Pose(np.array([0.3, 0.0, 0.20]))
    pts = np.array([[0.35, 0.05, 0.02], [0.25, 0.05, 0.02],
                    [0.25, -0.05, 0.02], [0.35, -0.05, 0.035]])
    f_des, _ = cam.project(pts, goal)
    hm = HybridMove(TaskFrame.RGBD, (ControlMode.VSC,) * 8, f_des)
    ap = SkillPrimitive(SkillName.FINE_POS, hm, IDLE_TOOL,
                        StopCondition(StopKind.FEATURE_REACHED, f_des, 0.5),
                        component="c")
    start = Pose(goal.position + np.array([0.05, 0.0, 0.0]))
    state = PlantState(pose=start, tracked_points=pts)
    new, log = run_skill(ap, state)
    assert np.linalg.norm(new.pose.position - goal.position) <= 0.0012
    assert log.buckets["vsc"] > 0
    ts = [row.t_units for row in log.rows]
    assert all(t % UNITS_PER_VSC_TICK == 0 for t in ts)


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
