"""Symbolic task planning: manipulation primitives over the mobility state.

The planner removes one component at a time (linear, monotone plans).  A
screwed component is handled by a single twist primitive, whose execution
unscrews, extracts and stores it; every other extraction is a pull (grasp and
withdraw) followed by a put that releases the part at its storage pose.
Assembly plans are the exact inverse of disassembly plans with move and put
roles exchanged and each pull's or twist's direction negated.

The symbolic state is two sets over the model's relations: the removed
components and the loose relations, screwed joints a twist has loosened.  A
relation is live while neither of its components is removed, and a loose one
constrains as a concentric fit.  A component is removable when its extraction
space toward its live contacts is nonempty, and ``dspace.best_direction``, not
the planner, chooses the direction it leaves in, which the pull or twist that
removes it carries as its ``direction``.  Mobility labels take no part
in planning; the mobility graph of a task comes from ``dspace.build_graph``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dspace import (DirectionSet, best_direction, oriented_direction,
                     space_from_contacts)
from .errors import InapplicablePrimitive, PlanInfeasible, UnknownComponent
from .model import AssemblyModel, RelationKind, SpatialRelation, Tool

TOOL_CHANGE_PENALTY = 0.5  # meters of equivalent travel per tool swap


class MPKind(str, Enum):
    MOVE = "move"
    TWIST = "twist"
    PUT = "put"
    PULL = "pull"


@dataclass(frozen=True)
class ManipulationPrimitive:
    """One plan step.  ``direction`` is the extraction direction chosen for a
    pull or twist (3 floats), ``None`` on a move or put; equality ignores it."""

    kind: MPKind
    component: str
    tool: Tool
    direction: tuple[float, float, float] | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "component": self.component,
            "tool": self.tool.value,
            "direction": None if self.direction is None else list(self.direction),
        }

    def __str__(self):
        return f"{self.kind.value}({self.tool.value}, {self.component})"


@dataclass(frozen=True)
class Plan:
    """Linear primitive sequence; each pull or twist carries its direction.

    ``assembly`` flags the execution direction; it decides the getObj rule
    during decomposition and the replay semantics of the transitions.
    """

    steps: tuple[ManipulationPrimitive, ...]
    assembly: bool = False

    def __len__(self):
        return len(self.steps)

    def to_json(self) -> list[dict]:
        return [mp.to_json() for mp in self.steps]


@dataclass(frozen=True)
class SymbolicState:
    """Which components are out and which screwed joints a twist loosened.

    A relation is live while neither of its components is removed, so a
    removed component has no live contacts.  ``loose`` holds indices into
    ``relations`` of screwed joints whose thread no longer blocks: a loose
    joint constrains as ``concentric``, admitting translation along its axis.
    """

    relations: tuple[SpatialRelation, ...]
    removed: frozenset[str]
    loose: frozenset[int]

    def contacts(self, component_id: str) -> list[tuple[SpatialRelation, RelationKind]]:
        """The component's live relations with their effective kinds, in model order."""
        if component_id in self.removed:
            return []
        return [(r, RelationKind.CONCENTRIC if i in self.loose else r.kind)
                for i, r in enumerate(self.relations)
                if component_id in r.components
                and r.other(component_id) not in self.removed]


def _oriented(state: SymbolicState, component_id: str) -> list:
    """The component's live contacts as (effective kind, oriented direction)."""
    return [(kind, oriented_direction(r, component_id))
            for r, kind in state.contacts(component_id)]


def initial_state(model: AssemblyModel) -> SymbolicState:
    return SymbolicState(model.relations, removed=frozenset(), loose=frozenset())


def removable(state: SymbolicState, component_id: str,
              dirs: DirectionSet) -> tuple[bool, np.ndarray | None]:
    """Whether the aggregate space toward non-removed neighbors is nonempty."""
    if component_id in state.removed:
        raise InapplicablePrimitive(f"removable({component_id})",
                                    "component already removed")
    direction = best_direction(_oriented(state, component_id), dirs)
    return direction is not None, direction


def _has_screwed(state: SymbolicState, component_id: str) -> bool:
    return any(kind is RelationKind.SCREWED
               for _, kind in state.contacts(component_id))


def _screws(state: SymbolicState, component_id: str) -> frozenset[int]:
    """Indices of the component's screwed relations, live or not."""
    return frozenset(i for i, r in enumerate(state.relations)
                     if r.kind is RelationKind.SCREWED
                     and component_id in r.components)


def _unscrew(state: SymbolicState, component_id: str) -> SymbolicState:
    return replace(state, loose=state.loose | _screws(state, component_id))


def transition(state: SymbolicState, mp: ManipulationPrimitive,
               model: AssemblyModel, dirs: DirectionSet,
               assembly: bool = False) -> SymbolicState:
    """Apply one primitive to the symbolic state.

    A twist loosens the component's screwed joints and, when the loosened
    extraction space is nonempty, removes the part; a pull or move removes a
    part whose extraction space is nonempty; a put only checks that the part
    is out.  In assembly direction a pull puts the part back with its screws
    loose, a twist puts it back if it is out and tightens its screws, and a
    move or put changes nothing.
    """
    c = mp.component
    if not model.has_component(c):
        raise UnknownComponent(c)

    if assembly:
        # putting a part back sets every one of its screwed joints, so a loose
        # index left on a relation while it was not live never shows
        if mp.kind is MPKind.PULL:
            if c not in state.removed:
                raise InapplicablePrimitive(str(mp), "component already installed")
            return replace(state, removed=state.removed - {c},
                           loose=state.loose | _screws(state, c))
        if mp.kind is MPKind.TWIST:
            return replace(state, removed=state.removed - {c},
                           loose=state.loose - _screws(state, c))
        return state

    if mp.kind is MPKind.PUT:
        if c not in state.removed:
            raise InapplicablePrimitive(str(mp), "component not in hand")
        return state
    if c in state.removed:
        raise InapplicablePrimitive(str(mp), "component already removed")
    if mp.kind is MPKind.TWIST:
        if not _has_screwed(state, c):
            raise InapplicablePrimitive(str(mp), "no live screwed relation")
        state = _unscrew(state, c)
        # the twist primitive's executable form extracts and stores the part;
        # symbolically that completes when the loosened space is nonempty
        if space_from_contacts(_oriented(state, c), dirs).is_empty():
            return state
    elif space_from_contacts(_oriented(state, c), dirs).is_empty():
        raise InapplicablePrimitive(str(mp), "extraction space is empty")
    return replace(state, removed=state.removed | {c})


# ------------------------------------------------------------- planning

def _rest_position(model: AssemblyModel, component_id: str) -> np.ndarray:
    comp = model.component(component_id)
    return (comp.grasp_pose() if comp.put_pose is None else comp.put_pose).position


@dataclass
class _Candidate:
    component: str
    twist: bool
    direction: np.ndarray
    cost: float


def _candidate_for(state: SymbolicState, model: AssemblyModel,
                   dirs: DirectionSet, cid: str, robot_pos: np.ndarray,
                   held: Tool) -> _Candidate | None:
    twist = _has_screwed(state, cid)
    direction = best_direction(
        _oriented(_unscrew(state, cid) if twist else state, cid), dirs)
    if direction is None:
        return None
    tool = model.tool_for(cid)
    engage = model.component(cid).grasp_pose().position
    cost = float(np.linalg.norm(robot_pos - engage))
    if tool != held:
        cost += TOOL_CHANGE_PENALTY
    return _Candidate(cid, twist, direction, cost)


def plan_disassembly(model: AssemblyModel, dirs: DirectionSet) -> Plan:
    """Greedy nearest-neighbor disassembly plan.

    Without a target every non-base component is removed; with a target the
    search is restricted to components that can influence it and stops as soon
    as the target is out.  Each step takes the target if it can go, else a
    neighbor of the target, else any candidate, and among those the nearest
    in workspace positions with a fixed tool-change penalty; ``min`` keeps
    the first in file order on a tie.
    """
    state = initial_state(model)
    base = model.base_id
    target = model.target
    if target is not None and not model.has_component(target):
        raise UnknownComponent(target)
    if target == base:
        return Plan(steps=())

    cone = model.reachable(target, barrier=base) if target else None
    neighbours_of_target = model.neighbors(target)  # empty without a target
    robot_pos = model.robot_start.position.copy()
    held = Tool.NONE

    steps: list[ManipulationPrimitive] = []

    while target not in state.removed:
        pool = [c.id for c in model.components
                if c.id != base and c.id not in state.removed
                and (cone is None or c.id in cone)]
        if not pool:
            break
        candidates = [cand for cid in pool
                      if (cand := _candidate_for(state, model, dirs, cid,
                                                 robot_pos, held)) is not None]
        if not candidates:
            blocking = [r for r in model.relations
                        if state.removed.isdisjoint(r.components)
                        and not set(pool).isdisjoint(r.components)]
            what = f"target '{target}'" if target else "full disassembly"
            raise PlanInfeasible(f"{what} cannot be completed", blocking)

        chosen = min(candidates, key=lambda c: (
            c.component != target, c.component not in neighbours_of_target,
            c.cost))

        cid = chosen.component
        tool = model.tool_for(cid)
        direction = tuple(chosen.direction.tolist())
        # a twist extracts and stores the part; a pull needs a separate put
        kinds = (MPKind.TWIST,) if chosen.twist else (MPKind.PULL, MPKind.PUT)
        for kind in kinds:
            mp = ManipulationPrimitive(kind, cid, tool,
                                       None if kind is MPKind.PUT else direction)
            steps.append(mp)
            state = transition(state, mp, model, dirs)
        robot_pos = _rest_position(model, cid)
        held = tool

    return Plan(steps=tuple(steps), assembly=False)


_INVERSE_KIND = {
    MPKind.MOVE: MPKind.PUT,
    MPKind.PUT: MPKind.MOVE,
    MPKind.TWIST: MPKind.TWIST,
    MPKind.PULL: MPKind.PULL,
}


def invert_plan(plan: Plan) -> Plan:
    """Reverse the step order, exchange move/put roles and flip directions."""
    steps = tuple(
        ManipulationPrimitive(_INVERSE_KIND[mp.kind], mp.component, mp.tool,
                              None if mp.direction is None
                              else tuple(-x for x in mp.direction))
        for mp in reversed(plan.steps))
    return Plan(steps=steps, assembly=not plan.assembly)


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
