"""Per-layer probes: fixed-input timings of each layer's entry points.

Every traced run makes the same probes, whatever its workload, so each
per-layer timing is measured on every workload.  Inputs are fixed and sized
like the workloads': poses in the robot workspace, a 20 ms control step, a
0.15 m positioning move, a 4 s force-held spin and 1M-direction spheres.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BUDGET_S = 0.3
MIN_BATCHES = 5


def _per_call(fn, batch: int) -> float:
    """Median seconds per call over batches of `batch` calls."""
    fn()  # warm up
    samples = []
    end = time.perf_counter() + BUDGET_S
    while time.perf_counter() < end or len(samples) < MIN_BATCHES:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def _per_tick(run) -> float:
    """Median seconds per control tick of a run_skill call."""
    run()  # warm up
    samples = []
    end = time.perf_counter() + BUDGET_S
    while time.perf_counter() < end or len(samples) < MIN_BATCHES:
        t0 = time.perf_counter()
        ticks = run()
        samples.append((time.perf_counter() - t0) / ticks)
    return statistics.median(samples)


def run_probes() -> dict[str, float]:
    from dismantle import control, dspace, skills
    from dismantle.geometry import Pose, pose_step
    from dismantle.model import (AssemblyModel, Component, FeatureGeometry,
                                 GeometryKind, RelationKind, Semantic,
                                 SpatialRelation, Tool)

    position = np.array([0.3, 0.0, 0.25])
    orientation = np.array([0.96, 0.2, -0.1, 0.156])
    orientation /= np.linalg.norm(orientation)
    rotvec = np.array([0.02, -0.01, 0.3])
    flange = Pose.from_rotvec(position, rotvec)
    goal = Pose.from_rotvec(position + [0.1, 0.1, -0.05], [0.0, 0.2, 0.5])
    linear = np.array([0.02, -0.01, 0.005])
    angular = np.array([0.0, 0.01, 0.05])
    twist = np.concatenate([linear, angular])
    params = control.AdmittanceParams()
    f_des = control.Wrench(np.array([10.0, 0.0, 0.0]))
    f_act = control.Wrench(np.array([9.5, 0.0, 0.0]))
    filt = (np.zeros(6), np.zeros(6))
    plant = control.PlantState(pose=flange)

    vec = goal.as_vector()
    move = skills.SkillPrimitive(
        skills.SkillName.ROUGH_POS,
        skills.HybridMove(skills.TaskFrame.WORLD, (skills.ControlMode.POS,) * 6, vec),
        skills.IDLE_TOOL, skills.StopCondition(skills.StopKind.POSE_REACHED, vec, 1e-3))
    press = np.array([0.0, 0.0, -1.0])
    spin = skills.SkillPrimitive(
        skills.SkillName.PROCESS_OBJ,
        skills.HybridMove(skills.TaskFrame.TCP,
                          (skills.ControlMode.FTC,) * 3 + (skills.ControlMode.POS,) * 3,
                          np.concatenate([[10.0, 0.0, 0.0], rotvec]), contact_axis=press),
        skills.ToolCommand(Tool.SCREWDRIVER, skills.ToolCmd.SPIN_CCW),
        skills.StopCondition(skills.StopKind.TOOL_DONE, np.array([4.0]), 1e-9),
        component="screw", process="unscrew")
    wall = control.ContactPlane(point=position + [0.0, 0.0, -0.001],
                                normal=np.array([0.0, 0.0, 1.0]))

    def ticks_of(ap, state):
        _, log = control.run_skill(ap, state)
        return sum(1 for r in log.rows if r.controller != "n")

    up = np.array([0.0, 0.0, 1.0])
    east = np.array([1.0, 0.0, 0.0])
    dirs = dspace.sample_sphere(1_000_000, 0)
    up_idx = dspace.admissible_indices(RelationKind.PLANE_CONTACT, up, dirs)
    east_idx = dspace.admissible_indices(RelationKind.PLANE_CONTACT, east, dirs)

    def rel(kind, geo, d):
        return SpatialRelation(kind=kind, components=("c", "base"),
                               geometry=FeatureGeometry(kind=geo, direction=d),
                               direction=d.copy())

    fit = [rel(RelationKind.CONCENTRIC, GeometryKind.CYLINDER, up),
           rel(RelationKind.PLANE_CONTACT, GeometryKind.PLANE, up)]
    fit_space = dspace.space_from_contacts([(r.kind, r.direction) for r in fit], dirs)
    model = AssemblyModel(
        components=(Component(id="base", semantic=Semantic.BASE),
                    *(Component(id=f"c{i}", semantic=Semantic.GENERIC_GRASPABLE)
                      for i in range(6))),
        relations=tuple(SpatialRelation(
            kind=RelationKind.PLANE_CONTACT, components=(f"c{i}", f"c{i - 1}" if i else "base"),
            geometry=FeatureGeometry(kind=GeometryKind.PLANE, direction=up),
            direction=up.copy()) for i in range(6)),
        tool_stations={})

    us, ms = 1e6, 1e3
    return {
        "geometry.pose_new_us": _per_call(lambda: Pose(position, orientation), 200) * us,
        "geometry.rotation_us": _per_call(lambda: flange.rotation, 200) * us,
        "geometry.from_rotvec_us": _per_call(
            lambda: Pose.from_rotvec(position, rotvec), 200) * us,
        "geometry.pose_step_us": _per_call(
            lambda: pose_step(flange, linear, angular, 0.02), 200) * us,
        "control.position_step_us": _per_call(
            lambda: control.position_step(goal, flange), 200) * us,
        "control.admittance_step_us": _per_call(
            lambda: control.admittance_step(params, f_des, f_act, filt), 200) * us,
        "control.plant_step_us": _per_call(
            lambda: control.plant_step(plant, twist, 0.02), 200) * us,
        "control.tick_us.path": _per_tick(
            lambda: ticks_of(move, control.PlantState(pose=flange))) * us,
        "control.tick_us.ftc": _per_tick(
            lambda: ticks_of(spin, control.PlantState(pose=flange, contacts=(wall,)))) * us,
        "dspace.sample_sphere_ms": _per_call(
            lambda: dspace.sample_sphere(1_000_000, 1), 1) * ms,
        "dspace.admissible_ms": _per_call(
            lambda: dspace.admissible_indices(RelationKind.PLANE_CONTACT, up, dirs), 1) * ms,
        "dspace.intersect_ms": _per_call(
            lambda: dspace.intersect_spaces([up_idx, east_idx], dirs), 1) * ms,
        "dspace.classify_ms": _per_call(
            lambda: dspace.classify_sdof(fit_space, fit), 1) * ms,
        "model.validate_us": _per_call(model.validate, 200) * us,
    }
