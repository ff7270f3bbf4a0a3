"""Execution harness: runs interpreted plans on the simulated plant, buckets
time by active controller, injects faults and aggregates repetitions.

Per repetition, every clock unit lands in exactly one bucket (position /
visual servoing / force control / non-productive), so the total execution
time equals the bucket sum exactly.  Repetitions are aggregated with means
and population standard deviations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .control import (BUCKET_FTC, BUCKET_N, BUCKET_PATH, BUCKET_VSC,
                      CLOCK_UNIT_S, RELEASE_DIST, ContactPlane, FaultHook,
                      PlantState, Retention, TickRow, run_skill)
from .errors import (ErrorType, InapplicablePrimitive, SingularJacobian,
                     SkillTimeout, UnresolvableGoal)
from .model import AssemblyModel
from .planner import Plan
from .skills import (ControlMode, ExecState, SkillName, SkillPrimitive,
                     StepResult, flatten_plans, interpret)

BUCKETS = (BUCKET_PATH, BUCKET_VSC, BUCKET_FTC, BUCKET_N)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    kind: tool_slip (device: the part is not retained by the tool during its
    process step), force_noise (sense_and_control: noisy force readings fire
    guard conditions early) or feature_dropout (sense_and_control: features
    unavailable, servoing starves until timeout).  ``repetition`` selects the
    run; ``ap_index`` optionally pins the fault to the n-th affected skill
    primitive of that run (default: the first eligible one).
    """

    kind: str
    repetition: int
    ap_index: int | None = None
    sigma: float = 6.0

    def __post_init__(self):
        if self.kind not in ("tool_slip", "force_noise", "feature_dropout"):
            raise ValueError(f"unknown fault kind: {self.kind}")
        if type(self.repetition) is not int or self.repetition < 0:
            raise ValueError(f"repetition must be an int >= 0: {self.repetition!r}")
        if self.ap_index is not None and (type(self.ap_index) is not int
                                          or self.ap_index < 0):
            raise ValueError(f"ap_index must be null or an int >= 0: {self.ap_index!r}")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive: {self.sigma!r}")


def load_fault_specs(path) -> list[FaultSpec]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [FaultSpec(kind=f["kind"], repetition=f["repetition"],
                      ap_index=f.get("ap_index"),
                      sigma=float(f.get("sigma", 6.0)))
            for f in doc.get("faults", [])]


def detection_offsets(model: AssemblyModel, seed: int,
                      repetition: int) -> dict[str, np.ndarray]:
    """Deterministic per-component object-detection error for one run.

    The offset magnitude is the scenario's vision_noise; the direction is
    drawn from the (seed, repetition) stream, so reruns are bit-identical.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, repetition]))
    offsets = {}
    for comp in model.components:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n == 0.0:
            v, n = np.array([1.0, 0.0, 0.0]), 1.0
        offsets[comp.id] = v / n * model.vision_noise
    return offsets


_PROCESS_FAULT_TARGETS = {"unscrew", "screw_in"}


class _Executor:
    """Binds the simulated plant to the interpreter callback."""

    def __init__(self, model: AssemblyModel, seed: int, repetition: int,
                 faults: list[FaultSpec], collect_rows: bool = False):
        self.model = model
        self.plant = PlantState(pose=model.robot_start)
        self.clock_units = 0
        self.faults = [f for f in faults if f.repetition == repetition]
        self.noise_rng = np.random.default_rng(
            np.random.SeedSequence([seed, repetition, 7]))
        self.collect_rows = collect_rows
        self.rows: list[TickRow] = []
        self._eligible_seen: dict[str, int] = {}

    def _fault_for(self, kinds: tuple[str, ...], ap: SkillPrimitive) -> FaultSpec | None:
        for fault in self.faults:
            if fault.kind not in kinds:
                continue
            seen = self._eligible_seen.get(fault.kind, 0)
            if fault.ap_index is None:
                # sensor-level faults disturb the whole repetition; a slip
                # without an index hits the first eligible process step
                if fault.kind == "tool_slip" and seen != 0:
                    continue
                return fault
            if seen == fault.ap_index:
                return fault
        return None

    def _mark_eligible(self, kind: str):
        self._eligible_seen[kind] = self._eligible_seen.get(kind, 0) + 1

    def _environment(self, ap: SkillPrimitive, state: ExecState) -> PlantState:
        contacts: list[ContactPlane] = []
        retentions: list[Retention] = []
        tracked = None
        pos = self.plant.pose.position
        if ap.name is SkillName.FINE_POS and ap.component is not None:
            comp = self.model.component(ap.component)
            obj_pose = state.object_poses.get(comp.id, comp.pose)
            tracked = obj_pose.apply(comp.visual_features)
        if ap.process in ("unscrew", "screw_in", "seat"):
            press = ap.hm.contact_axis
            contacts.append(ContactPlane(point=pos + press * 0.001,
                                         normal=-press))
        if ap.process == "extract":
            retentions.append(Retention(anchor=pos.copy(),
                                        axis=ap.hm.contact_axis))
        return PlantState(pose=self.plant.pose, contacts=tuple(contacts),
                          retentions=tuple(retentions), tracked_points=tracked)

    def __call__(self, ap: SkillPrimitive, state: ExecState) -> StepResult:
        plant = self._environment(ap, state)
        start_pos = plant.pose.position.copy()

        hook = FaultHook()
        active_fault = None
        if ControlMode.FTC in ap.hm.control:
            fault = self._fault_for(("force_noise",), ap)
            if fault is not None:
                hook = FaultHook(force_noise_sigma=fault.sigma, rng=self.noise_rng)
                active_fault = fault
            self._mark_eligible("force_noise")
        if ap.name is SkillName.FINE_POS:
            fault = self._fault_for(("feature_dropout",), ap)
            if fault is not None:
                hook = FaultHook(feature_dropout=True)
                active_fault = fault
            self._mark_eligible("feature_dropout")
        slip_fault = None
        if ap.process in _PROCESS_FAULT_TARGETS:
            slip_fault = self._fault_for(("tool_slip",), ap)
            self._mark_eligible("tool_slip")

        try:
            plant, log = run_skill(ap, plant, start_units=self.clock_units,
                                   fault=hook)
        except (SkillTimeout, SingularJacobian) as exc:
            self._absorb(exc.log)
            self.plant = PlantState(pose=exc.state.pose)
            return StepResult(ok=False, end_pose=exc.state.pose,
                              buckets=dict(exc.log.buckets),
                              error=ErrorType.SENSE_AND_CONTROL,
                              message=str(exc))

        self._absorb(log)
        self.plant = PlantState(pose=plant.pose)
        end_pose = plant.pose

        if slip_fault is not None:
            return StepResult(ok=False, end_pose=end_pose,
                              buckets=dict(log.buckets), error=ErrorType.DEVICE,
                              message=f"{ap.component} not retained by the tool "
                                      f"during {ap.process}")

        if ap.process == "extract":
            travel = (end_pose.position - start_pos) @ ap.hm.contact_axis
            if travel < RELEASE_DIST - 1e-6:
                err = (ErrorType.SENSE_AND_CONTROL
                       if active_fault is not None else ErrorType.DEVICE)
                return StepResult(ok=False, end_pose=end_pose,
                                  buckets=dict(log.buckets), error=err,
                                  message="extraction ended before release "
                                          "travel was reached")

        return StepResult(ok=True, end_pose=end_pose, buckets=dict(log.buckets))

    def _absorb(self, log) -> None:
        self.clock_units += log.total_units()
        if self.collect_rows:
            self.rows.extend(log.rows)


@dataclass
class RunResult:
    repetition: int
    buckets: dict[str, int]
    outcome: str
    error: ErrorType | None
    message: str
    trace: object = None
    rows: list = field(default_factory=list)

    @property
    def total_units(self) -> int:
        return sum(self.buckets.values())

    def to_json(self) -> dict:
        return {
            "repetition": self.repetition,
            "buckets": dict(self.buckets),
            "outcome": self.outcome,
            "error": None if self.error is None else self.error.value,
            "message": self.message,
        }


def execute_once(plans: Plan | list[Plan], model: AssemblyModel, seed: int = 0,
                 repetition: int = 0, faults: list[FaultSpec] | None = None,
                 collect_rows: bool = False) -> RunResult:
    """One full execution of the task on a fresh plant.

    Failures are results, not exceptions: the outcome carries the error class.
    """
    faults = faults or []
    offsets = detection_offsets(model, seed, repetition)
    state = ExecState.initial(model, detection_noise=offsets)
    executor = _Executor(model, seed, repetition, faults,
                         collect_rows=collect_rows)
    buckets = {b: 0 for b in BUCKETS}
    try:
        trace = interpret(plans, state, model, executor)
    except (UnresolvableGoal, InapplicablePrimitive) as exc:
        return RunResult(repetition, buckets, "failure", ErrorType.PLANNING,
                         str(exc), rows=executor.rows)
    for record in trace.records:
        for name, units_spent in record.result.buckets.items():
            buckets[name] += units_spent
    if trace.outcome == "success":
        return RunResult(repetition, buckets, "success", None, "",
                         trace=trace, rows=executor.rows)
    return RunResult(repetition, buckets, "failure", trace.error,
                     trace.message, trace=trace, rows=executor.rows)


@dataclass
class MetricsReport:
    """Aggregated execution metrics over repetitions."""

    repetitions: int
    mp_count: int
    t_exe: float
    t_path: float
    t_vsc: float
    t_ftc: float
    t_n: float
    sigma_exe: float
    sigma_path: float
    sigma_vsc: float
    sigma_ftc: float
    sigma_n: float
    success_rate: float
    failures: list[tuple[int, ErrorType]]
    per_rep: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "repetitions": self.repetitions,
            "|MP|": self.mp_count,
            "t_exe": self.t_exe,
            "t_path": self.t_path,
            "t_vsc": self.t_vsc,
            "t_ftc": self.t_ftc,
            "t_n": self.t_n,
            "sigma_exe": self.sigma_exe,
            "sigma_path": self.sigma_path,
            "sigma_vsc": self.sigma_vsc,
            "sigma_ftc": self.sigma_ftc,
            "sigma_n": self.sigma_n,
            "S": self.success_rate,
            "failures": [[rep, err.value] for rep, err in self.failures],
            "per_rep": self.per_rep,
        }

    def format_table(self) -> str:
        rows = [
            ("t_exe in [s]", self.t_exe),
            ("t_path in [s]", self.t_path),
            ("t_vsc in [s]", self.t_vsc),
            ("t_ftc in [s]", self.t_ftc),
            ("t_n in [s]", self.t_n),
            ("sigma_exe in [s]", self.sigma_exe),
            ("sigma_path in [s]", self.sigma_path),
            ("sigma_vsc in [s]", self.sigma_vsc),
            ("sigma_ftc in [s]", self.sigma_ftc),
            ("sigma_n in [s]", self.sigma_n),
        ]
        width = max(len(r[0]) for r in rows) + 2
        lines = [f"{label:<{width}}{value:>10.3f}" for label, value in rows]
        lines.append(f"{'|MP|':<{width}}{self.mp_count:>10d}")
        lines.append(f"{'S':<{width}}{self.success_rate:>10.2f}")
        if self.failures:
            detail = ", ".join(f"rep {rep}: {err.value}"
                               for rep, err in self.failures)
            lines.append(f"{'failures':<{width}}{detail}")
        return "\n".join(lines)


def aggregate(results: list[RunResult], mp_count: int) -> MetricsReport:
    """Order-independent aggregation of per-repetition results."""
    results = sorted(results, key=lambda r: r.repetition)
    n = len(results)
    series = {b: np.array([r.buckets[b] for r in results], dtype=float)
              * CLOCK_UNIT_S for b in BUCKETS}
    total = np.array([r.total_units for r in results], dtype=float) * CLOCK_UNIT_S
    successes = sum(1 for r in results if r.outcome == "success")
    failures = [(r.repetition, r.error) for r in results
                if r.outcome != "success"]
    return MetricsReport(
        repetitions=n,
        mp_count=mp_count,
        t_exe=float(np.mean(total)),
        t_path=float(np.mean(series[BUCKET_PATH])),
        t_vsc=float(np.mean(series[BUCKET_VSC])),
        t_ftc=float(np.mean(series[BUCKET_FTC])),
        t_n=float(np.mean(series[BUCKET_N])),
        sigma_exe=float(np.std(total)),
        sigma_path=float(np.std(series[BUCKET_PATH])),
        sigma_vsc=float(np.std(series[BUCKET_VSC])),
        sigma_ftc=float(np.std(series[BUCKET_FTC])),
        sigma_n=float(np.std(series[BUCKET_N])),
        success_rate=successes / n,
        failures=failures,
        per_rep=[r.to_json() for r in results],
    )


def run_experiment(plans: Plan | list[Plan], model: AssemblyModel,
                   repetitions: int = 5, faults: list[FaultSpec] | None = None,
                   seed: int = 0, collect_rows: bool = False,
                   ) -> tuple[MetricsReport, list[RunResult]]:
    """Repeat the execution and aggregate the metric vector."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    mp_count = len(flatten_plans(plans))
    results = [execute_once(plans, model, seed=seed, repetition=rep,
                            faults=faults, collect_rows=collect_rows)
               for rep in range(repetitions)]
    return aggregate(results, mp_count), results


def write_tick_csv(rows: list[TickRow], path) -> None:
    """Per-tick log: t, controller, commanded twist, wrench, feature error."""
    header = ("t,controller,ux,uy,uz,wx,wy,wz,Fx,Fy,Fz,Tx,Ty,Tz,feat_err_px")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            vals = [f"{row.t_units * CLOCK_UNIT_S:.2f}", row.controller]
            vals += [f"{x:.9f}" for x in row.u]
            vals += [f"{x:.6f}" for x in row.wrench]
            vals.append(f"{row.feat_err_px:.6f}")
            fh.write(",".join(vals) + "\n")
