"""Symbolic task planning: manipulation primitives over the mobility state.

The planner removes one component at a time (linear, monotone plans).  A
screwed component is handled by a single twist primitive, whose execution
unscrews, extracts and stores it; every other extraction is a pull (grasp and
withdraw) followed by a put that releases the part at its storage pose.
Assembly plans are the exact inverse of disassembly plans with move and put
roles exchanged.

The symbolic state holds what planning decides with: the removed components
and the live relations.  A component is removable when its extraction space
toward its present neighbours is nonempty.  Mobility labels take no part in
planning; the mobility graph of a task comes from ``dspace.build_graph``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dspace import (DirectionSet, EPS_CONE, admissible_indices,
                     intersect_spaces, oriented_direction)
from .errors import InapplicablePrimitive, PlanInfeasible, UnknownComponent
from .model import AssemblyModel, RelationKind, SpatialRelation, Tool

TOOL_CHANGE_PENALTY = 0.5  # meters of equivalent travel per tool swap


class MPKind(str, Enum):
    MOVE = "move"
    TWIST = "twist"
    PUT = "put"
    PULL = "pull"


# twist and pull carry a process phase and expand through the full grammar;
# move and put decompose to positioning / release subsets only
PROCESS_KINDS = (MPKind.TWIST, MPKind.PULL)


@dataclass(frozen=True)
class ManipulationPrimitive:
    kind: MPKind
    component: str
    tool: Tool

    def to_json(self, direction=None) -> dict:
        return {
            "kind": self.kind.value,
            "component": self.component,
            "tool": self.tool.value,
            "direction": None if direction is None else [float(x) for x in direction],
        }

    def __str__(self):
        return f"{self.kind.value}({self.tool.value}, {self.component})"


@dataclass(frozen=True)
class Plan:
    """Linear primitive sequence plus chosen extraction directions.

    ``assembly`` flags the execution direction; it decides the getObj rule
    during decomposition and the replay semantics of the transitions.
    """

    steps: tuple[ManipulationPrimitive, ...]
    direction_hints: dict[int, np.ndarray] = field(default_factory=dict)
    assembly: bool = False

    def __len__(self):
        return len(self.steps)

    def to_json(self) -> list[dict]:
        return [mp.to_json(self.direction_hints.get(i))
                for i, mp in enumerate(self.steps)]


@dataclass(frozen=True)
class LiveRelation:
    """A relation in the evolving symbolic state.

    ``unscrewed`` marks a screwed joint converted by a twist: the thread no
    longer blocks and the joint admits translation along its axis.
    """

    relation: SpatialRelation
    unscrewed: bool = False

    @property
    def effective_kind(self) -> RelationKind:
        if self.unscrewed and self.relation.kind is RelationKind.SCREWED:
            return RelationKind.CONCENTRIC
        return self.relation.kind


@dataclass(frozen=True)
class SymbolicState:
    removed: frozenset[str]
    live: tuple[LiveRelation, ...]


def _live_contacts(state: SymbolicState, component_id: str) -> list[LiveRelation]:
    out = []
    for lr in state.live:
        if component_id in lr.relation.components:
            if lr.relation.other(component_id) not in state.removed:
                out.append(lr)
    return out


def _component_space(state: SymbolicState, component_id: str,
                     dirs: DirectionSet) -> DirectionSet:
    contacts = _live_contacts(state, component_id)
    sets = [admissible_indices(lr.effective_kind,
                               oriented_direction(lr.relation, component_id), dirs)
            for lr in contacts]
    return intersect_spaces(sets, dirs)


def initial_state(model: AssemblyModel) -> SymbolicState:
    return SymbolicState(removed=frozenset(),
                         live=tuple(LiveRelation(r) for r in model.relations))


NEAR_TIE_MARGIN = 1e-3  # below lattice resolution at the default sample count


def _best_direction(state: SymbolicState, component_id: str,
                    dirs: DirectionSet) -> np.ndarray | None:
    """Extraction direction maximizing the minimum clearance margin.

    Margin per contact: distance of the direction score from the admissibility
    boundary.  Candidates whose margins differ by less than the lattice
    resolution count as tied; ties prefer the direction best aligned with the
    contacts' oriented separation directions, then the lowest sample index.
    """
    space = _component_space(state, component_id, dirs)
    if space.is_empty():
        return None
    idx = np.flatnonzero(space.mask)
    contacts = _live_contacts(state, component_id)
    if not contacts:
        return dirs.directions[idx[0]].copy()
    margins = np.full(idx.size, np.inf)
    cand = dirs.directions[idx]
    outward = np.zeros(3)
    for lr in contacts:
        d = oriented_direction(lr.relation, component_id)
        outward += d
        scores = cand @ d
        kind = lr.effective_kind
        if kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT):
            margins = np.minimum(margins, scores)
        elif kind is RelationKind.CONCENTRIC:
            margins = np.minimum(margins, np.abs(scores) - np.cos(EPS_CONE))
    near = margins >= margins.max() - NEAR_TIE_MARGIN
    pool = np.flatnonzero(near)
    if np.linalg.norm(outward) > 1e-12:
        align = cand[pool] @ (outward / np.linalg.norm(outward))
        best = pool[int(np.argmax(align))]  # first (lowest) index wins exact ties
    else:
        best = pool[0]
    return cand[best].copy()


def removable(state: SymbolicState, component_id: str,
              dirs: DirectionSet) -> tuple[bool, np.ndarray | None]:
    """Whether the aggregate space toward non-removed neighbors is nonempty."""
    if component_id in state.removed:
        raise InapplicablePrimitive(f"removable({component_id})",
                                    "component already removed")
    direction = _best_direction(state, component_id, dirs)
    return direction is not None, direction


def _has_screwed(state: SymbolicState, component_id: str) -> bool:
    return any(lr.relation.kind is RelationKind.SCREWED and not lr.unscrewed
               for lr in _live_contacts(state, component_id))


def _unscrew(state: SymbolicState, component_id: str) -> SymbolicState:
    live = []
    for lr in state.live:
        if (component_id in lr.relation.components
                and lr.relation.kind is RelationKind.SCREWED and not lr.unscrewed):
            live.append(replace(lr, unscrewed=True))
        else:
            live.append(lr)
    return replace(state, live=tuple(live))


def _drop_component(state: SymbolicState, component_id: str) -> SymbolicState:
    live = tuple(lr for lr in state.live
                 if component_id not in lr.relation.components)
    return replace(state, live=live, removed=state.removed | {component_id})


def _restore_component(state: SymbolicState, model: AssemblyModel,
                       component_id: str, tightened: bool) -> SymbolicState:
    """Re-add a component: restore its relations to already-present partners."""
    removed = state.removed - {component_id}
    restored = list(state.live)
    for r in model.relations:
        if component_id in r.components and r.other(component_id) not in removed:
            unscrewed = r.kind is RelationKind.SCREWED and not tightened
            restored.append(LiveRelation(r, unscrewed=unscrewed))
    return replace(state, live=tuple(restored), removed=removed)


def _neighbors(model: AssemblyModel, component_id: str) -> set[str]:
    out = set()
    for r in model.relations:
        if component_id in r.components:
            out.add(r.other(component_id))
    return out


def transition(state: SymbolicState, mp: ManipulationPrimitive,
               model: AssemblyModel, dirs: DirectionSet,
               assembly: bool = False) -> SymbolicState:
    """Apply one primitive to the symbolic state.

    A twist converts the component's screwed joints and, when the unscrewed
    extraction space is nonempty, removes the part; a pull or move removes a
    part whose extraction space is nonempty, deleting its relations; a put
    only checks that the part is out.  In assembly direction the pull and
    the twist restore the part's relations to the present components.
    """
    c = mp.component
    if not model.has_component(c):
        raise UnknownComponent(c)

    if assembly:
        return _transition_assembly(state, mp, model)

    if mp.kind is MPKind.TWIST:
        if c in state.removed:
            raise InapplicablePrimitive(str(mp), "component already removed")
        if not _has_screwed(state, c):
            raise InapplicablePrimitive(str(mp), "no live screwed relation")
        state = _unscrew(state, c)
        # the twist primitive's executable form extracts and stores the part;
        # symbolically that completes when the unscrewed space is nonempty
        if not _component_space(state, c, dirs).is_empty():
            state = _drop_component(state, c)
        return state

    if mp.kind in (MPKind.MOVE, MPKind.PULL):
        if c in state.removed:
            raise InapplicablePrimitive(str(mp), "component already removed")
        if _component_space(state, c, dirs).is_empty():
            raise InapplicablePrimitive(str(mp), "extraction space is empty")
        return _drop_component(state, c)

    if mp.kind is MPKind.PUT:
        if c not in state.removed:
            raise InapplicablePrimitive(str(mp), "component not in hand")
        return state

    raise InapplicablePrimitive(str(mp), "unknown primitive kind")


def _transition_assembly(state, mp, model):
    c = mp.component
    if mp.kind is MPKind.MOVE or mp.kind is MPKind.PUT:
        return state
    if mp.kind is MPKind.PULL:
        if c not in state.removed:
            raise InapplicablePrimitive(str(mp), "component already installed")
        return _restore_component(state, model, c, tightened=False)
    if mp.kind is MPKind.TWIST:
        if c in state.removed:
            return _restore_component(state, model, c, tightened=True)
        live = tuple(replace(lr, unscrewed=False)
                     if c in lr.relation.components else lr
                     for lr in state.live)
        return replace(state, live=live)
    raise InapplicablePrimitive(str(mp), "unknown primitive kind")


# ------------------------------------------------------------- planning

def _engage_position(model: AssemblyModel, component_id: str) -> np.ndarray:
    return model.component(component_id).grasp_pose().position


def _rest_position(model: AssemblyModel, component_id: str) -> np.ndarray:
    comp = model.component(component_id)
    if comp.put_pose is not None:
        return comp.put_pose.position
    return comp.grasp_pose().position


@dataclass
class _Candidate:
    component: str
    twist: bool
    direction: np.ndarray
    cost: float
    order: int


def _candidate_for(state: SymbolicState, model: AssemblyModel,
                   dirs: DirectionSet, cid: str, robot_pos: np.ndarray,
                   held: Tool, order: int) -> _Candidate | None:
    twist = _has_screwed(state, cid)
    direction = _best_direction(_unscrew(state, cid) if twist else state, cid, dirs)
    if direction is None:
        return None
    tool = model.tool_for(cid)
    cost = float(np.linalg.norm(robot_pos - _engage_position(model, cid)))
    if tool != held:
        cost += TOOL_CHANGE_PENALTY
    return _Candidate(cid, twist, direction, cost, order)


def _target_cone(model: AssemblyModel, target: str) -> set[str]:
    """Components reachable from the target without passing through the base."""
    base = model.base_id
    seen = {target}
    frontier = [target]
    while frontier:
        cur = frontier.pop()
        if cur == base:
            continue
        for nb in _neighbors(model, cur):
            if nb != base and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    seen.discard(base)
    return seen


def plan_disassembly(model: AssemblyModel, dirs: DirectionSet) -> Plan:
    """Greedy nearest-neighbor disassembly plan.

    Without a target every non-base component is removed; with a target the
    search is restricted to components that can influence it and stops as soon
    as the target is out.  Ordering is nearest-neighbor over workspace
    positions with a fixed tool-change penalty; tie-breaks follow file order.
    """
    state = initial_state(model)
    base = model.base_id
    target = model.target
    if target is not None and not model.has_component(target):
        raise UnknownComponent(target)
    if target == base:
        return Plan(steps=())

    cone = _target_cone(model, target) if target else None
    order_index = {c.id: i for i, c in enumerate(model.components)}
    robot_pos = model.robot_start.position.copy()
    held = Tool.NONE

    steps: list[ManipulationPrimitive] = []
    hints: dict[int, np.ndarray] = {}

    while True:
        if target is not None:
            if target in state.removed:
                break
        else:
            if all(c.id in state.removed or c.id == base
                   for c in model.components):
                break

        pool = [c.id for c in model.components
                if c.id != base and c.id not in state.removed
                and (cone is None or c.id in cone)]
        candidates = [cand for cid in pool
                      if (cand := _candidate_for(state, model, dirs, cid,
                                                 robot_pos, held,
                                                 order_index[cid])) is not None]
        if not candidates:
            blocking = [lr.relation for lr in state.live
                        if any(cid in lr.relation.components for cid in pool)]
            what = f"target '{target}'" if target else "full disassembly"
            raise PlanInfeasible(f"{what} cannot be completed", blocking)

        if target is not None:
            tiers = [
                [c for c in candidates if c.component == target],
                [c for c in candidates
                 if c.component in _neighbors(model, target)],
                candidates,
            ]
            for tier in tiers:
                if tier:
                    candidates = tier
                    break
        chosen = min(candidates, key=lambda c: (c.cost, c.order))

        cid = chosen.component
        tool = model.tool_for(cid)
        hints[len(steps)] = chosen.direction
        # a twist extracts and stores the part; a pull needs a separate put
        kinds = (MPKind.TWIST,) if chosen.twist else (MPKind.PULL, MPKind.PUT)
        for kind in kinds:
            mp = ManipulationPrimitive(kind, cid, tool)
            steps.append(mp)
            state = transition(state, mp, model, dirs)
        robot_pos = _rest_position(model, cid)
        held = tool

    return Plan(steps=tuple(steps), direction_hints=hints, assembly=False)


_INVERSE_KIND = {
    MPKind.MOVE: MPKind.PUT,
    MPKind.PUT: MPKind.MOVE,
    MPKind.TWIST: MPKind.TWIST,
    MPKind.PULL: MPKind.PULL,
}


def invert_plan(plan: Plan) -> Plan:
    """Reverse the step order, exchange move/put roles and flip directions."""
    n = len(plan.steps)
    steps = tuple(
        ManipulationPrimitive(_INVERSE_KIND[mp.kind], mp.component, mp.tool)
        for mp in reversed(plan.steps))
    hints = {n - 1 - i: -d for i, d in plan.direction_hints.items()}
    return Plan(steps=steps, direction_hints=hints, assembly=not plan.assembly)


def plan_task(model: AssemblyModel, dirs: DirectionSet) -> list[Plan]:
    """Disassembly plan, plus the inverse assembly plan for exchange tasks."""
    disassembly = plan_disassembly(model, dirs)
    plans = [disassembly]
    if model.reassemble:
        plans.append(invert_plan(disassembly))
    return plans


def replay(model: AssemblyModel, dirs: DirectionSet, plan: Plan) -> SymbolicState:
    """Run a plan through the transition function; raises on invalid steps."""
    state = initial_state(model)
    for mp in plan.steps:
        state = transition(state, mp, model, dirs, assembly=plan.assembly)
    return state
