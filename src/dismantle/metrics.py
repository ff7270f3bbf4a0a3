"""Execution harness: runs interpreted plans on the simulated plant, buckets
time by active controller, injects faults and aggregates repetitions.

Per repetition, every clock unit lands in exactly one bucket (position /
visual servoing / force control / non-productive), so the total execution
time equals the bucket sum exactly.  Repetitions are aggregated with means
and population standard deviations.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .control import (BUCKET_FTC, BUCKET_N, BUCKET_PATH, BUCKET_VSC,
                      CLOCK_UNIT_S, RELEASE_DIST, ContactPlane, PlantState,
                      Retention, TickRow, run_skill)
from .errors import (ErrorType, InapplicablePrimitive, ParseError,
                     SingularJacobian, SkillTimeout, UnresolvableGoal)
from .model import AssemblyModel, check_keys, read_json
from .planner import Plan
from .skills import (ControlMode, ExecState, SkillName, SkillPrimitive,
                     StepResult, flatten_plans, interpret)

BUCKETS = (BUCKET_PATH, BUCKET_VSC, BUCKET_FTC, BUCKET_N)

# each fault kind and the skill primitives it can hit
_FAULT_ELIGIBLE = {
    "force_noise": lambda ap: ControlMode.FTC in ap.hm.control,
    "feature_dropout": lambda ap: ap.name is SkillName.FINE_POS,
    "tool_slip": lambda ap: ap.process in ("unscrew", "screw_in"),
}


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    kind: tool_slip (device: the part is not retained by the tool during its
    process step), force_noise (sense_and_control: noisy force readings fire
    guard conditions early) or feature_dropout (sense_and_control: features
    unavailable, servoing starves until timeout).  ``repetition`` selects the
    run; ``ap_index`` optionally pins the fault to the n-th eligible skill
    primitive of that run.  Without it a slip hits the first eligible one, and
    noise or dropout every eligible one.
    """

    kind: str
    repetition: int
    ap_index: int | None = None
    sigma: float = 6.0

    def __post_init__(self):
        if self.kind not in _FAULT_ELIGIBLE:
            raise ValueError(f"unknown fault kind: {self.kind}")
        if type(self.repetition) is not int or self.repetition < 0:
            raise ValueError(f"repetition must be an int >= 0: {self.repetition!r}")
        if self.ap_index is not None and (type(self.ap_index) is not int
                                          or self.ap_index < 0):
            raise ValueError(f"ap_index must be null or an int >= 0: {self.ap_index!r}")
        # bounded by the largest float, so that an int sigma converts
        if (isinstance(self.sigma, bool) or not isinstance(self.sigma, (int, float))
                or not 0.0 < self.sigma <= sys.float_info.max):
            raise ValueError(f"sigma must be a finite positive number: {self.sigma!r}")
        object.__setattr__(self, "sigma", float(self.sigma))


def load_fault_specs(path) -> list[FaultSpec]:
    """The faults of a fault file.  Raises ParseError, with one line, if the
    file is unreadable, is not JSON or holds anything but valid faults, an
    unknown key included."""
    doc = read_json(path, "bad fault specification")
    try:
        if not isinstance(doc, dict):
            raise ValueError("fault file must hold a JSON object")
        check_keys(doc, ("faults",))
        faults = doc.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError(f"faults must be a list of fault entries: {faults!r:.40}")
        specs = []
        for i, f in enumerate(faults):
            if not isinstance(f, dict):
                raise ValueError(f"fault entry {f!r:.40} is not an object")
            check_keys(f, ("kind", "repetition", "ap_index", "sigma"), f"faults[{i}]")
            for key in ("kind", "repetition"):
                if key not in f:
                    raise ValueError(f"fault entry has no '{key}'")
            specs.append(FaultSpec(**f))
    except (TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"bad fault specification: {exc}") from None
    return specs


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


def _hits(fault: FaultSpec, seen: int) -> bool:
    """Whether the fault hits the eligible primitive with ``seen`` eligible
    predecessors of its kind in this repetition."""
    if fault.ap_index is not None:
        return fault.ap_index == seen
    # sensor-level faults disturb the whole repetition; a slip without an
    # index hits the first eligible process step
    return fault.kind != "tool_slip" or seen == 0


class _Executor:
    """Binds the simulated plant to the interpreter callback and keeps the
    repetition's per-bucket tally of clock units.  It alone knows what a fault
    does: a slip fails its step, a feature dropout leaves the camera nothing to
    track, and force noise adds one normal draw per axis to each measured force."""

    def __init__(self, model: AssemblyModel, seed: int, repetition: int,
                 faults: list[FaultSpec], collect_rows: bool = False):
        self.model = model
        self.buckets = {b: 0 for b in BUCKETS}
        self.faults = [f for f in faults if f.repetition == repetition]
        self.noise_rng = np.random.default_rng(
            np.random.SeedSequence([seed, repetition, 7]))
        self.collect_rows = collect_rows
        self.rows: list[TickRow] = []
        self._eligible_seen = {kind: 0 for kind in _FAULT_ELIGIBLE}

    def _faults_for(self, ap: SkillPrimitive) -> dict[str, FaultSpec]:
        """The first matching fault of each kind that hits this primitive."""
        hits = {}
        for kind, eligible in _FAULT_ELIGIBLE.items():
            if not eligible(ap):
                continue
            seen = self._eligible_seen[kind]
            self._eligible_seen[kind] = seen + 1
            fault = next((f for f in self.faults
                          if f.kind == kind and _hits(f, seen)), None)
            if fault is not None:
                hits[kind] = fault
        return hits

    def _environment(self, ap: SkillPrimitive, state: ExecState,
                     hits: dict[str, FaultSpec]) -> PlantState:
        contacts: list[ContactPlane] = []
        retentions: list[Retention] = []
        tracked = force_noise = None
        pos = state.robot_pose.position
        if (ap.name is SkillName.FINE_POS and ap.component is not None
                and "feature_dropout" not in hits):
            comp = self.model.component(ap.component)
            tracked = state.pose_of(comp).apply(comp.visual_features)
        if ap.process in ("unscrew", "screw_in", "seat"):
            press = ap.hm.contact_axis
            contacts.append(ContactPlane(point=pos + press * 0.001,
                                         normal=-press))
        if ap.process == "extract":
            retentions.append(Retention(anchor=pos.copy(),
                                        axis=ap.hm.contact_axis))
        if "force_noise" in hits:
            sigma, rng = hits["force_noise"].sigma, self.noise_rng

            def force_noise(force: tuple) -> tuple:
                return tuple((force + rng.normal(0.0, sigma, size=3)).tolist())
        return PlantState(pose=state.robot_pose, contacts=tuple(contacts),
                          retentions=tuple(retentions), tracked_points=tracked,
                          force_noise=force_noise)

    def __call__(self, ap: SkillPrimitive, state: ExecState) -> StepResult:
        hits = self._faults_for(ap)
        try:
            plant, log = run_skill(ap, self._environment(ap, state, hits),
                                   start_units=sum(self.buckets.values()))
        except (SkillTimeout, SingularJacobian) as exc:
            self._absorb(exc.log)
            return StepResult(ok=False, end_pose=exc.state.pose,
                              error=ErrorType.SENSE_AND_CONTROL,
                              message=str(exc))
        self._absorb(log)
        end_pose = plant.pose

        if "tool_slip" in hits:
            return StepResult(ok=False, end_pose=end_pose, error=ErrorType.DEVICE,
                              message=f"{ap.component} not retained by the tool "
                                      f"during {ap.process}")

        if ap.process == "extract":
            travel = ((end_pose.position - state.robot_pose.position)
                      @ ap.hm.contact_axis)
            if travel < RELEASE_DIST - 1e-6:
                # a slip returned above, so any hit here is a sensor fault
                return StepResult(ok=False, end_pose=end_pose,
                                  error=(ErrorType.SENSE_AND_CONTROL if hits
                                         else ErrorType.DEVICE),
                                  message="extraction ended before release "
                                          "travel was reached")

        return StepResult(ok=True, end_pose=end_pose)

    def _absorb(self, log) -> None:
        for bucket, spent in log.buckets.items():
            self.buckets[bucket] += spent
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

    @classmethod
    def from_json(cls, doc, field_name: str) -> "RunResult":
        """Inverse of ``to_json``; raises ValueError unless ``doc`` is a run
        entry with exactly the four buckets, or a ParseError naming
        ``field_name`` if it has a key ``to_json`` does not write."""
        if not isinstance(doc, dict):
            raise ValueError(f"run entry {doc!r:.40} is not an object")
        check_keys(doc, ("repetition", "buckets", "outcome", "error", "message"),
                   field_name)
        buckets = doc.get("buckets")
        if not isinstance(buckets, dict) or set(buckets) != set(BUCKETS):
            raise ValueError(f"run buckets must be exactly {', '.join(BUCKETS)}")
        if not all(type(n) is int and n >= 0
                   for n in (doc.get("repetition"), *buckets.values())):
            raise ValueError("repetition and bucket units must be ints >= 0")
        outcome, error = doc.get("outcome"), doc.get("error")
        message = doc.get("message", "")
        if ((outcome, error is None) not in (("success", True), ("failure", False))
                or not isinstance(message, str)):
            raise ValueError("a run is a success without error or a failure "
                             "with one, and its message is a string")
        return cls(doc["repetition"], {b: buckets[b] for b in BUCKETS}, outcome,
                   None if error is None else ErrorType(error), message)


def execute_once(plans: Plan | list[Plan], model: AssemblyModel, seed: int = 0,
                 repetition: int = 0, faults: list[FaultSpec] | None = None,
                 collect_rows: bool = False) -> RunResult:
    """One full execution of the task on a fresh plant.

    Failures are results, not exceptions: the outcome carries the error class,
    and the buckets hold the time of every skill primitive that ran.
    """
    offsets = detection_offsets(model, seed, repetition)
    state = ExecState.initial(model, detection_noise=offsets)
    executor = _Executor(model, seed, repetition, faults or [],
                         collect_rows=collect_rows)
    try:
        trace = interpret(plans, state, model, executor)
        outcome, error, message = trace.outcome, trace.error, trace.message
    except (UnresolvableGoal, InapplicablePrimitive) as exc:
        trace, outcome, error, message = None, "failure", ErrorType.PLANNING, str(exc)
    return RunResult(repetition, executor.buckets, outcome, error, message,
                     trace=trace, rows=executor.rows)


# report columns: the total execution time, then one per bucket
REPORT_KEYS = ("exe",) + BUCKETS


@dataclass
class MetricsReport:
    """Aggregated execution metrics over repetitions.

    ``t`` and ``sigma`` hold the mean and population standard deviation in
    seconds, keyed by ``REPORT_KEYS``.
    """

    repetitions: int
    mp_count: int
    t: dict[str, float]
    sigma: dict[str, float]
    success_rate: float
    failures: list[tuple[int, ErrorType]]
    per_rep: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "repetitions": self.repetitions,
            "|MP|": self.mp_count,
            **{f"t_{k}": self.t[k] for k in REPORT_KEYS},
            **{f"sigma_{k}": self.sigma[k] for k in REPORT_KEYS},
            "S": self.success_rate,
            "failures": [[rep, err.value] for rep, err in self.failures],
            "per_rep": self.per_rep,
        }

    def format_table(self) -> str:
        rows = ([(f"t_{k} in [s]", self.t[k]) for k in REPORT_KEYS]
                + [(f"sigma_{k} in [s]", self.sigma[k]) for k in REPORT_KEYS])
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
    if not results:
        raise ValueError("no repetitions to aggregate")
    results = sorted(results, key=lambda r: r.repetition)
    for a, b in zip(results, results[1:]):
        if a.repetition == b.repetition:
            raise ValueError(f"repetition {a.repetition} is listed more than once")
    units = {"exe": [r.total_units for r in results],
             **{b: [r.buckets[b] for r in results] for b in BUCKETS}}
    seconds = {k: np.array(v, dtype=float) * CLOCK_UNIT_S for k, v in units.items()}
    successes = sum(1 for r in results if r.outcome == "success")
    return MetricsReport(
        repetitions=len(results),
        mp_count=mp_count,
        t={k: float(np.mean(seconds[k])) for k in REPORT_KEYS},
        sigma={k: float(np.std(seconds[k])) for k in REPORT_KEYS},
        success_rate=successes / len(results),
        failures=[(r.repetition, r.error) for r in results
                  if r.outcome != "success"],
        per_rep=[r.to_json() for r in results],
    )


def run_experiment(plans: Plan | list[Plan], model: AssemblyModel,
                   repetitions: int = 5, faults: list[FaultSpec] | None = None,
                   seed: int = 0, collect_rows: bool = False,
                   ) -> tuple[MetricsReport, list[RunResult]]:
    """Repeat the execution and aggregate the metric vector."""
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
            vals += [f"{x:.9f}" for x in row.u_floats]
            vals += [f"{x:.6f}" for x in row.wrench_floats]
            vals.append(f"{row.feat_err_px:.6f}")
            fh.write(",".join(vals) + "\n")
