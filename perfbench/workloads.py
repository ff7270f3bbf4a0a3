"""The two benchmark workloads.

Each workload is built from the workload seed alone.  `setup()` does the
untimed preparation, `op(i)` performs op number i (its inputs depend only on
the seed and i), times the calls into the program itself and returns the
wall time and the output-check problems found.  An op that raises has
failed; an op that returns problems ran but produced wrong output.

The seed only orients the inputs: every op of every seed does the same
amount of work (same distances, angles, joint styles and sample count), so
timings compare across seeds.

Both workloads build their inputs in memory.  With scipy 1.17, `load_model`
fails on every bundled scenario that has a spatial relation (see
`scenario_status`), so ops that load `scenarios/*.json` would all fail.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

CLOCK_UNIT_S = 0.01  # the simulator's integer clock unit


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def orthogonal(axis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random unit vector orthogonal to `axis`."""
    v = rng.normal(size=3)
    return unit(v - (v @ axis) * axis)


def scenario_status() -> str:
    """One line saying whether the bundled valve scenario loads."""
    from dismantle import model
    try:
        model.load_model(ROOT / "scenarios" / "valve.json")
    except Exception as exc:  # reported, not fatal: no workload loads it
        return f"load_model(scenarios/valve.json) fails: {type(exc).__name__}: {exc}"
    return "load_model(scenarios/valve.json) ok"


# ------------------------------------------------------------------ tick-loop

class TickLoop:
    """One unscrew cycle per op, run skill by skill on the simulated plant.

    A cycle is: a 0.15 m rough positioning move with a 0.4 rad turn (position
    loop), a force-guarded press onto a contact plane 5 mm away (force loop),
    a 4 s unscrewing spin held at 10 N (force loop), the retract move back
    (position loop) and a gripper close (tool time, no ticks).  The seed picks
    the start pose, the move direction, the turn axis and the press axis.
    """

    name = "tick-loop"
    BLOCK = 8          # ops cycle over this many seeded cycles
    MOVE_M = 0.15
    TURN_RAD = 0.4
    PRESS_GAP_M = 0.005
    PRESS_N = 10.0
    SPIN_S = 4.0
    POS_TOL = 1e-5     # rough positioning stop band (m; 0.1 m per rad)
    FORCE_TOL = 0.2    # press stop band (N)

    def __init__(self, seed: int):
        self.seed = seed
        self.cycles: list[dict] | None = None
        self.first: dict[int, tuple] = {}

    def setup(self) -> None:
        if self.cycles is not None:
            return
        from dismantle import control, skills
        from dismantle.geometry import Pose
        from dismantle.model import Tool

        rng = np.random.default_rng([self.seed, 1])
        cycles = []
        for _ in range(self.BLOCK):
            start = Pose.from_rotvec(rng.uniform([0.2, -0.2, 0.25], [0.4, 0.2, 0.35]),
                                     rng.uniform(-0.3, 0.3, size=3))
            move = unit(rng.normal(size=3) * [1.0, 1.0, 0.3])
            turn = unit(rng.normal(size=3)) * self.TURN_RAD
            hover = Pose.from_rotvec(start.position + self.MOVE_M * move,
                                     (Pose.from_rotvec(np.zeros(3), turn).rotation
                                      * start.rotation).as_rotvec())
            press = -unit(np.array([0.0, 0.0, 1.0]) + 0.3 * rng.normal(size=3))
            plane = control.ContactPlane(
                point=hover.position + self.PRESS_GAP_M * press, normal=-press)
            hold = np.concatenate([[self.PRESS_N, 0.0, 0.0], hover.rotvec()])
            ftc = (skills.ControlMode.FTC,) * 3 + (skills.ControlMode.POS,) * 3
            hm = skills.HybridMove(skills.TaskFrame.TCP, ftc, hold, contact_axis=press)
            pressing = skills.SkillPrimitive(
                skills.SkillName.PROCESS_OBJ, hm, skills.IDLE_TOOL,
                skills.StopCondition(skills.StopKind.FORCE_REACHED,
                                     np.array([self.PRESS_N]), self.FORCE_TOL),
                component="screw", process="press")
            spinning = skills.SkillPrimitive(
                skills.SkillName.PROCESS_OBJ, hm,
                skills.ToolCommand(Tool.SCREWDRIVER, skills.ToolCmd.SPIN_CCW),
                skills.StopCondition(skills.StopKind.TOOL_DONE,
                                     np.array([self.SPIN_S]), 1e-9),
                component="screw", process="unscrew")
            grip = skills.SkillPrimitive(
                skills.SkillName.PROCESS_OBJ,
                skills.HybridMove(skills.TaskFrame.WORLD, (skills.ControlMode.POS,) * 6,
                                  start.as_vector()),
                skills.ToolCommand(Tool.GRIPPER, skills.ToolCmd.CLOSE),
                skills.StopCondition(skills.StopKind.TOOL_DONE,
                                     np.array([skills.GRIP_ACTION_S]), 1e-9),
                component="screw", process="grip")
            cycles.append({
                "start": start, "plane": plane,
                "steps": [("approach", self._move(skills, hover), hover),
                          ("press", pressing, None),
                          ("unscrew", spinning, None),
                          ("retract", self._move(skills, start), start),
                          ("grip", grip, None)]})
        self.cycles = cycles

    def _move(self, skills, goal):
        vec = goal.as_vector()
        return skills.SkillPrimitive(
            skills.SkillName.ROUGH_POS,
            skills.HybridMove(skills.TaskFrame.WORLD, (skills.ControlMode.POS,) * 6, vec),
            skills.IDLE_TOOL,
            skills.StopCondition(skills.StopKind.POSE_REACHED, vec, self.POS_TOL))

    def op(self, i: int) -> dict:
        from dismantle import control
        self.setup()
        k = i % self.BLOCK
        cycle = self.cycles[k]
        state = control.PlantState(pose=cycle["start"], contacts=(cycle["plane"],))
        t_units = 0
        results = []
        wall = 0.0
        for name, ap, _ in cycle["steps"]:
            t0 = time.perf_counter()
            # looked up at call time, so a traced run records it
            state, log = control.run_skill(ap, state, start_units=t_units)
            wall += time.perf_counter() - t0
            t_units += log.total_units()
            results.append((name, state, log))
        problems = self._check(cycle, results)
        buckets = {b: sum(log.buckets[b] for _, _, log in results)
                   for b in ("path", "vsc", "ftc", "n")}
        fingerprint = (tuple(buckets.values()), state.pose.position.tobytes(),
                       state.pose.orientation.tobytes())
        first = self.first.setdefault(k, fingerprint)
        if first != fingerprint:
            problems.append(f"cycle {k} not reproducible: units {first[0]} "
                            f"then {fingerprint[0]}")
        return {"wall": wall, "problems": problems}

    def _check(self, cycle: dict, results) -> list[str]:
        problems = []
        t_prev = 0
        for name, state, log in results:
            rows = [r.t_units for r in log.rows]
            total = log.total_units()
            if any(v < 0 for v in log.buckets.values()):
                problems.append(f"{name}: negative bucket units {log.buckets}")
            if rows and rows[-1] != t_prev + total:
                problems.append(f"{name}: bucket units sum to {total}, tick log "
                                f"ends {rows[-1] - t_prev} units after the start")
            ticks = [r.t_units for r in log.rows if r.controller != "n"]
            steps = {b - a for a, b in zip([t_prev] + ticks, ticks)}
            if not steps <= {2}:
                problems.append(f"{name}: tick spacing {sorted(steps)} units, "
                                "expected 2 (50 Hz)")
            t_prev += total
            goal = next(g for n, _, g in cycle["steps"] if n == name)
            if goal is not None:
                dist = np.linalg.norm(state.pose.position - goal.position)
                dot = min(1.0, abs(float(state.pose.orientation @ goal.orientation)))
                ang = 2.0 * np.arccos(dot)
                if max(dist, 0.1 * ang) > self.POS_TOL * (1 + 1e-9):
                    problems.append(f"{name}: stopped {dist:.2e} m, {ang:.2e} rad "
                                    "from its goal")
            if name == "press":
                plane = cycle["plane"]
                pen = -(state.pose.position - plane.point) @ plane.normal
                force = plane.stiffness * max(pen, 0.0)
                if abs(force - self.PRESS_N) > self.FORCE_TOL:
                    problems.append(f"press: contact force {force:.3f} N, "
                                    f"expected {self.PRESS_N} +- {self.FORCE_TOL}")
            if name == "unscrew" and log.buckets["ftc"] != round(self.SPIN_S / CLOCK_UNIT_S):
                problems.append(f"unscrew: {log.buckets['ftc']} force-loop units, "
                                f"expected {round(self.SPIN_S / CLOCK_UNIT_S)}")
            if name == "grip" and log.buckets != {"path": 0, "vsc": 0, "ftc": 0, "n": 100}:
                problems.append(f"grip: buckets {log.buckets}, expected 100 tool "
                                "units (1 s) and no motion")
        return problems


# ------------------------------------------------------------------ dspace-1m

# Joint styles of the stacked parts: (semantic, [(relation kind, direction)])
# with directions "axis" (the stack's separation axis) or "side" (a wall
# normal), and the mobility label build_graph must give the joint.
STYLES = {
    "screw": ("screw", [("screwed", "axis")], "fix"),
    "plate": ("generic_graspable", [("plane_contact", "axis")], "agpp"),
    "hose": ("hose", [("concentric", "axis"), ("plane_contact", "axis")], "fits"),
    "bracket": ("generic_graspable", [("plane_contact", "axis"),
                                      ("plane_contact", "side")], "agpp"),
    "cover": ("cover", [("congruent", "axis")], "agpp"),
    "pin": ("plug", [("concentric", "axis")], "fits"),
}


class Dspace1M:
    """Extraction spaces and the mobility graph of a stacked assembly.

    Each op samples a fresh 1M-direction sphere, computes every component's
    disassembly space and builds the mobility graph.  The assembly is a stack
    of six parts on a base, one of each joint style in a seeded order, along
    a seeded axis tilted up to 30 degrees from vertical.
    """

    name = "dspace-1m"
    BLOCK = 4          # ops cycle over this many seeded assemblies
    SAMPLES = 1_000_000
    CHUNK = 1 << 17    # directions per chunk of the brute-force check
    AXIS_TOL = np.cos(np.deg2rad(5.0))

    def __init__(self, seed: int):
        self.seed = seed
        self.models: list | None = None

    def setup(self) -> None:
        if self.models is not None:
            return
        from dismantle.geometry import Pose
        from dismantle.model import (AssemblyModel, Component, FeatureGeometry,
                                     GeometryKind, RelationKind, Semantic,
                                     SpatialRelation)

        rng = np.random.default_rng([self.seed, 2])
        models = []
        for _ in range(self.BLOCK):
            axis = unit(np.array([0.0, 0.0, 1.0]) + 0.4 * orthogonal(
                np.array([0.0, 0.0, 1.0]), rng) * rng.uniform(0.0, 1.0))
            side = orthogonal(axis, rng)
            order = list(STYLES)
            rng.shuffle(order)
            components = [Component(id="base", semantic=Semantic.BASE)]
            relations, expect = [], {}
            below = "base"
            for j, style in enumerate(order):
                cid = f"p{j}_{style}"
                semantic, joints, label = STYLES[style]
                components.append(Component(id=cid, semantic=Semantic(semantic),
                                            pose=Pose(0.04 * (j + 1) * axis)))
                for kind, which in joints:
                    kind = RelationKind(kind)
                    d = axis if which == "axis" else side
                    geo = (GeometryKind.PLANE if kind in (RelationKind.PLANE_CONTACT,
                                                          RelationKind.CONGRUENT)
                           else GeometryKind.CYLINDER)
                    relations.append(SpatialRelation(
                        kind=kind, components=(cid, below),
                        geometry=FeatureGeometry(kind=geo, direction=d),
                        direction=d.copy()))
                expect[tuple(sorted((cid, below)))] = label
                below = cid
            model = AssemblyModel(components=tuple(components),
                                  relations=tuple(relations), tool_stations={})
            model.validate()
            models.append((model, axis, expect))
        self.models = models

    def op(self, i: int) -> dict:
        from dismantle import dspace
        self.setup()
        model, axis, expect = self.models[i % self.BLOCK]
        t0 = time.perf_counter()
        # looked up at call time, so a traced run records them
        dirs = dspace.sample_sphere(self.SAMPLES, (self.seed * 1_000_003 + i) % 2**63)
        spaces = {c.id: dspace.disassembly_space(model, c.id, dirs)
                  for c in model.components}
        graph = dspace.build_graph(model, dirs)
        wall = time.perf_counter() - t0
        return {"wall": wall, "problems": self._check(model, axis, expect, dirs,
                                                      spaces, graph)}

    def _check(self, model, axis, expect, dirs, spaces, graph) -> list[str]:
        from dismantle.dspace import EPS_ANG, EPS_CONE
        problems = []
        d = np.asarray(dirs.directions)
        if d.shape != (self.SAMPLES, 3) or not np.allclose(
                np.einsum("ij,ij->i", d, d), 1.0):
            return [f"sphere sample has shape {d.shape} or rows off unit length"]
        for cid, space in spaces.items():
            want = np.ones(self.SAMPLES, dtype=bool)
            for rel in model.relations:
                if cid not in rel.components:
                    continue
                sd = rel.direction if cid == rel.components[0] else -rel.direction
                kind = rel.kind.value
                for lo in range(0, self.SAMPLES, self.CHUNK):
                    scores = d[lo:lo + self.CHUNK] @ sd
                    part = want[lo:lo + self.CHUNK]
                    if kind == "screwed":
                        part[:] = False
                    elif kind in ("plane_contact", "congruent"):
                        part &= scores >= -EPS_ANG
                    else:
                        part &= np.abs(scores) >= np.cos(EPS_CONE)
            if not np.array_equal(np.asarray(space.mask), want):
                problems.append(f"space of {cid} differs from the brute-force "
                                f"space in {np.count_nonzero(space.mask != want)} "
                                "directions")
        if len(graph.edges) != 2 * len(expect):
            problems.append(f"graph has {len(graph.edges)} directed edges, "
                            f"expected {2 * len(expect)}")
        for (a, b), label in expect.items():
            got = graph.edges.get((a, b))
            if got is None or got.value.value != label:
                problems.append(f"edge {a}-{b} labelled "
                                f"{None if got is None else got.value.value}, "
                                f"expected {label}")
            elif label == "fits" and abs(float(unit(got.axis) @ axis)) < self.AXIS_TOL:
                problems.append(f"edge {a}-{b}: fits axis {got.axis} is off the "
                                f"joint axis {axis}")
            elif label == "fix" and abs(float(unit(got.rot_axis) @ axis)) < self.AXIS_TOL:
                problems.append(f"edge {a}-{b}: rotation axis {got.rot_axis} is "
                                f"off the screw axis {axis}")
        return problems


WORKLOADS = {w.name: w for w in (TickLoop, Dspace1M)}
