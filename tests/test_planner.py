from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import STATIONS, random_contact_model, random_feasible_model

from dismantle.dspace import (EPS_CONE, best_direction, oriented_direction,
                              sample_sphere, space_from_contacts)
from dismantle.errors import (DismantleError, InapplicablePrimitive,
                              PlanInfeasible, UnknownComponent)
from dismantle.geometry import Pose
from dismantle.model import (AssemblyModel, Component, FeatureGeometry,
                             GeometryKind, RelationKind, Semantic,
                             SpatialRelation, Tool)
from dismantle.planner import (ManipulationPrimitive, MPKind, Plan,
                               SymbolicState, _oriented, initial_state,
                               invert_plan, plan_disassembly, plan_task,
                               removable, replay, transition)


def _kinds(plan):
    return [(s.kind.value, s.component) for s in plan.steps]


# ------------------------------------------------------------- removability

def test_screw_not_removable_while_screwed(valve_model, dirs2k):
    state = initial_state(valve_model)
    ok, _ = removable(state, "screw_1", dirs2k)
    assert not ok


def test_valve_blocked_by_screws(valve_model, dirs2k):
    state = initial_state(valve_model)
    ok, _ = removable(state, "valve_body", dirs2k)
    assert not ok


def test_hose_removable_along_axis(valve_model, dirs2k):
    state = initial_state(valve_model)
    ok, direction = removable(state, "hose", dirs2k)
    assert ok
    assert direction[2] > 0.99  # out of the fit, away from the valve


def test_component_with_removed_neighbor_is_free(valve_model, dirs2k):
    state = initial_state(valve_model)
    for cid in ("screw_1", "screw_2"):
        mp = ManipulationPrimitive(MPKind.TWIST, cid, Tool.SCREWDRIVER)
        state = transition(state, mp, valve_model, dirs2k)
    state = transition(state, ManipulationPrimitive(MPKind.PULL, "valve_body",
                                                    Tool.GRIPPER),
                       valve_model, dirs2k)
    # the hose's only neighbor is gone: anything goes
    ok, direction = removable(state, "hose", dirs2k)
    assert ok and direction is not None


# ------------------------------------------------------------- transitions

def test_twist_converts_and_extracts_screw(valve_model, dirs2k):
    state = initial_state(valve_model)
    mp = ManipulationPrimitive(MPKind.TWIST, "screw_1", Tool.SCREWDRIVER)
    after = transition(state, mp, valve_model, dirs2k)
    assert "screw_1" in after.removed
    # a live relation of screw_1 would be one of its contacts
    assert after.contacts("screw_1") == []


def test_twist_requires_live_screwed_relation(valve_model, dirs2k):
    state = initial_state(valve_model)
    with pytest.raises(InapplicablePrimitive):
        transition(state, ManipulationPrimitive(MPKind.TWIST, "hose",
                                                Tool.SCREWDRIVER),
                   valve_model, dirs2k)


def test_unscrewed_joint_becomes_linear_axis(dirs2k):
    # a screw seated against an opposing pair of planes stays trapped after
    # twisting, which exposes the rule-based edge conversion to lin
    from conftest import STATIONS
    from dismantle.geometry import Pose
    from dismantle.model import (AssemblyModel, Component, FeatureGeometry,
                                 GeometryKind, Semantic, SpatialRelation)
    comps = (Component(id="base", semantic=Semantic.BASE),
             Component(id="s", semantic=Semantic.SCREW,
                       pose=Pose(np.array([0.2, 0.0, 0.02]))))
    mk = lambda kind, geo, d: SpatialRelation(
        kind=kind, components=("s", "base"),
        geometry=FeatureGeometry(kind=geo, direction=np.asarray(d, float)),
        direction=np.asarray(d, float))
    rels = (mk(RelationKind.SCREWED, GeometryKind.CYLINDER, [0, 0, 1]),
            mk(RelationKind.PLANE_CONTACT, GeometryKind.PLANE, [1, 0, 0]),
            mk(RelationKind.PLANE_CONTACT, GeometryKind.PLANE, [-1, 0, 0]))
    model = AssemblyModel(components=comps, relations=rels,
                          tool_stations=dict(STATIONS))
    state = initial_state(model)
    mp = ManipulationPrimitive(MPKind.TWIST, "s", Tool.SCREWDRIVER)
    after = transition(state, mp, model, dirs2k)
    # the side planes leave only an equatorial band: still trapped, not removed
    assert "s" not in after.removed
    live = [kind for r, kind in after.contacts("s")
            if r.kind is RelationKind.SCREWED]
    assert live and all(kind is RelationKind.CONCENTRIC for kind in live)


def test_move_on_removed_component_inapplicable(valve_model, dirs2k):
    state = initial_state(valve_model)
    state = transition(state, ManipulationPrimitive(MPKind.TWIST, "screw_1",
                                                    Tool.SCREWDRIVER),
                       valve_model, dirs2k)
    with pytest.raises(InapplicablePrimitive):
        transition(state, ManipulationPrimitive(MPKind.MOVE, "screw_1",
                                                Tool.GRIPPER),
                   valve_model, dirs2k)


def test_valve_removable_after_screws_and_hose(valve_model, dirs2k):
    state = initial_state(valve_model)
    for mp in (ManipulationPrimitive(MPKind.TWIST, "screw_1", Tool.SCREWDRIVER),
               ManipulationPrimitive(MPKind.TWIST, "screw_2", Tool.SCREWDRIVER),
               ManipulationPrimitive(MPKind.PULL, "hose", Tool.GRIPPER),
               ManipulationPrimitive(MPKind.PUT, "hose", Tool.GRIPPER)):
        state = transition(state, mp, valve_model, dirs2k)
    ok, _ = removable(state, "valve_body", dirs2k)
    assert ok


def test_pull_blocked_by_live_screws_inapplicable(valve_model, dirs2k):
    state = initial_state(valve_model)
    pull = ManipulationPrimitive(MPKind.PULL, "valve_body", Tool.GRIPPER)
    with pytest.raises(InapplicablePrimitive, match="extraction space is empty"):
        transition(state, pull, valve_model, dirs2k)


def test_put_requires_prior_removal(valve_model, dirs2k):
    state = initial_state(valve_model)
    with pytest.raises(InapplicablePrimitive):
        transition(state, ManipulationPrimitive(MPKind.PUT, "hose", Tool.GRIPPER),
                   valve_model, dirs2k)


# ------------------------------------------------------------- planning

def test_single_screw_plan_is_one_twist(single_screw_model, dirs2k):
    plan = plan_disassembly(single_screw_model, dirs2k)
    assert _kinds(plan) == [("twist", "screw_1")]
    assert plan.steps[0].direction[2] > 0.99  # extraction points up


def test_valve_plan_structure_and_count(valve_model, dirs2k):
    plans = plan_task(valve_model, dirs2k)
    assert len(plans) == 2
    dis, asm = plans
    assert _kinds(dis) == [("twist", "screw_1"), ("twist", "screw_2"),
                           ("pull", "hose"), ("put", "hose"),
                           ("pull", "valve_body"), ("put", "valve_body")]
    assert _kinds(asm) == [("move", "valve_body"), ("pull", "valve_body"),
                           ("move", "hose"), ("pull", "hose"),
                           ("twist", "screw_2"), ("twist", "screw_1")]
    assert sum(len(p) for p in plans) == 12


def test_unknown_target_raises(valve_model, dirs2k):
    import dataclasses
    from dismantle.errors import UnknownComponent
    bad = dataclasses.replace(valve_model, target="ghost")
    with pytest.raises(UnknownComponent):
        plan_disassembly(bad, dirs2k)


def test_base_target_empty_plan(valve_model, dirs2k):
    # the base is never extracted, so a plan for it has nothing to remove
    plan = plan_disassembly(replace(valve_model, target=valve_model.base_id), dirs2k)
    assert plan.steps == () and not plan.assembly


def test_empty_model_empty_plan(dirs2k):
    from dismantle.model import load_model
    from conftest import SCENARIOS
    m = load_model(SCENARIOS / "empty_target.json")
    assert len(plan_disassembly(m, dirs2k)) == 0


def test_blocked_pair_infeasible(dirs2k):
    from dismantle.model import load_model
    from conftest import SCENARIOS
    m = load_model(SCENARIOS / "blocked.json")
    with pytest.raises(PlanInfeasible) as exc:
        plan_disassembly(m, dirs2k)
    assert len(exc.value.blocking_relations) >= 2


@pytest.mark.parametrize("samples", [2_000, 10_000, 100_000, 1_000_000])
def test_blocked_infeasible_at_every_sample_count(samples):
    # the opposing plane contacts leave only a zero-measure equator band,
    # which no sample count may turn into an extraction direction
    from dismantle.model import load_model
    from conftest import SCENARIOS
    m = load_model(SCENARIOS / "blocked.json")
    with pytest.raises(PlanInfeasible):
        plan_task(m, sample_sphere(samples, 0))


def test_valve_plan_same_at_10k_and_1m(valve_model):
    coarse = plan_task(valve_model, sample_sphere(10_000, 0))
    fine = plan_task(valve_model, sample_sphere(1_000_000, 0))
    assert [(p.steps, p.assembly) for p in coarse] == [(p.steps, p.assembly) for p in fine]
    for a, b in zip(coarse, fine):
        assert ([mp.direction is None for mp in a.steps]
                == [mp.direction is None for mp in b.steps])
        for mp_a, mp_b in zip(a.steps, b.steps):
            if mp_a.direction is None:
                continue
            # directions are sampled: equal up to the 10k lattice spacing
            assert np.dot(mp_a.direction, mp_b.direction) >= np.cos(np.deg2rad(2.0))


def test_plan_replays_cleanly(valve_model, single_screw_model, dirs2k):
    for model in (valve_model, single_screw_model):
        plan = plan_disassembly(model, dirs2k)
        end = replay(model, dirs2k, plan)
        if model.target is not None:
            assert model.target in end.removed


def test_plan_monotone_linearity(valve_model, dirs2k):
    plan = plan_disassembly(valve_model, dirs2k)
    extracting = [s.component for s in plan.steps
                  if s.kind in (MPKind.MOVE, MPKind.PULL, MPKind.TWIST)]
    assert len(extracting) == len(set(extracting))


def test_plan_deterministic(valve_model):
    a = plan_disassembly(valve_model, sample_sphere(3000, 9))
    b = plan_disassembly(valve_model, sample_sphere(3000, 9))
    assert a.steps == b.steps
    assert [x.direction for x in a.steps] == [y.direction for y in b.steps]


def test_twist_tool_respects_inference_map(valve_model, dirs2k):
    plan = plan_disassembly(valve_model, dirs2k)
    for step in plan.steps:
        if step.kind is MPKind.TWIST:
            assert step.tool is Tool.SCREWDRIVER


def _plate_model(parts, contacts, target=None):
    """Gripper parts at the given positions, all grasped from 0.1 m above,
    joined to each other and to ``base`` by ``(child, parent, normal)``
    plane contacts; the normal is the child's separation direction."""
    comps = [Component(id="base", semantic=Semantic.BASE)]
    comps += [Component(id=cid, semantic=Semantic.GENERIC_GRASPABLE,
                        pose=Pose(np.asarray(p, float)),
                        grasp_offset=Pose(np.array([0.0, 0.0, 0.1])))
              for cid, p in parts]
    rels = [SpatialRelation(
        kind=RelationKind.PLANE_CONTACT, components=(child, parent),
        geometry=FeatureGeometry(kind=GeometryKind.PLANE,
                                 direction=np.asarray(n, float)),
        direction=np.asarray(n, float)) for child, parent, n in contacts]
    model = AssemblyModel(components=tuple(comps), relations=tuple(rels),
                          tool_stations=dict(STATIONS), target=target,
                          robot_start=Pose(np.array([0.0, 0.0, 0.3])))
    model.validate()
    return model


def test_neighbor_of_target_beats_nearer_non_neighbor(dirs2k):
    # "lid" sits on the target and blocks it; "clip" holds the lid from the
    # side and is nearer the robot, but touches only the lid
    model = _plate_model(
        [("target", [0.4, 0.0, 0.0]), ("lid", [0.4, 0.0, 0.05]),
         ("clip", [0.1, 0.0, 0.05])],
        [("target", "base", [0, 0, 1]), ("lid", "target", [0, 0, 1]),
         ("clip", "lid", [1, 0, 0])],
        target="target")
    assert removable(initial_state(model), "clip", dirs2k)[0]
    assert removable(initial_state(model), "lid", dirs2k)[0]
    assert not removable(initial_state(model), "target", dirs2k)[0]
    plan = plan_disassembly(model, dirs2k)
    assert _kinds(plan) == [("pull", "lid"), ("put", "lid"),
                            ("pull", "target"), ("put", "target")]


def test_cost_tie_goes_to_the_earlier_component_in_file_order(dirs2k):
    # the two parts mirror each other about the robot's x-z plane, so their
    # costs are the same float; file order, not id order, breaks the tie
    model = _plate_model(
        [("zeta", [0.3, 0.1, 0.0]), ("alpha", [0.3, -0.1, 0.0])],
        [("zeta", "base", [0, 0, 1]), ("alpha", "base", [0, 0, 1])])
    plan = plan_disassembly(model, dirs2k)
    assert _kinds(plan) == [("pull", "zeta"), ("put", "zeta"),
                            ("pull", "alpha"), ("put", "alpha")]


# ------------------------------------------------------------- inversion

def test_invert_is_involution(valve_model, dirs2k):
    plan = plan_disassembly(valve_model, dirs2k)
    twice = invert_plan(invert_plan(plan))
    assert twice.steps == plan.steps
    assert twice.assembly == plan.assembly
    for mp_twice, mp in zip(twice.steps, plan.steps):
        if mp.direction is not None:
            assert np.allclose(mp_twice.direction, mp.direction)


def test_invert_swaps_roles_and_reverses(valve_model, dirs2k):
    plan = plan_disassembly(valve_model, dirs2k)
    inv = invert_plan(plan)
    assert inv.assembly
    assert inv.steps[0].kind is MPKind.MOVE          # fetch the valve body
    assert inv.steps[0].component == "valve_body"
    assert inv.steps[-1].kind is MPKind.TWIST        # re-tighten screw_1 last
    assert inv.steps[-1].component == "screw_1"


def test_invert_negates_each_direction(valve_model, dirs2k):
    # a pull or twist carries its direction, a put none; the inverse step
    # goes back in along the negated direction, and a put's move carries none
    plan = plan_disassembly(valve_model, dirs2k)
    for mp, back in zip(reversed(plan.steps), invert_plan(plan).steps):
        if mp.kind is MPKind.PUT:
            assert mp.direction is None and back.direction is None
        else:
            assert len(mp.direction) == 3
            assert back.direction == tuple(-x for x in mp.direction)


def test_invert_empty_plan():
    assert len(invert_plan(Plan(steps=()))) == 0


def test_assembly_replay_restores_everything(valve_model, dirs2k):
    dis = plan_disassembly(valve_model, dirs2k)
    state = initial_state(valve_model)
    for mp in dis.steps:
        state = transition(state, mp, valve_model, dirs2k)
    asm = invert_plan(dis)
    for mp in asm.steps:
        state = transition(state, mp, valve_model, dirs2k, assembly=True)
    assert not state.removed
    assert not state.loose


# ------------------------------------------------------------- heuristics

def _minimal_mp_count(model, dirs):
    """Exhaustive search over removal orders, same action costs as the
    planner (twist = 1 primitive, pull+put = 2)."""
    from dismantle.planner import _has_screwed, _unscrew
    target = model.target
    base = model.base_id
    best = [np.inf]

    def recurse(state, cost):
        if cost >= best[0]:
            return
        if target is not None and target in state.removed:
            best[0] = cost
            return
        if target is None and all(
                c.id == base or c.id in state.removed for c in model.components):
            best[0] = cost
            return
        for comp in model.components:
            cid = comp.id
            if cid == base or cid in state.removed:
                continue
            if _has_screwed(state, cid):
                after = _unscrew(state, cid)
                if not space_from_contacts(_oriented(after, cid), dirs).is_empty():
                    recurse(replace(after, removed=after.removed | {cid}),
                            cost + 1)
            elif not space_from_contacts(_oriented(state, cid), dirs).is_empty():
                recurse(replace(state, removed=state.removed | {cid}), cost + 2)

    recurse(initial_state(model), 0)
    return best[0]


def test_heuristic_within_twice_optimal():
    dirs = sample_sphere(800, 1)
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(20):
        model = random_feasible_model(rng, max_extra=4)
        plan = plan_disassembly(model, dirs)
        minimal = _minimal_mp_count(model, dirs)
        assert np.isfinite(minimal)
        assert len(plan) >= minimal
        assert len(plan) <= 2 * minimal
        checked += 1
    assert checked == 20


# ------------------------------------------------------------- state oracle

@dataclass(frozen=True)
class LiveRelation:
    """Entry of the earlier symbolic state: a relation still in contact, with
    a flag for a screwed joint that a twist has converted."""

    relation: SpatialRelation
    unscrewed: bool = False

    @property
    def effective_kind(self) -> RelationKind:
        if self.unscrewed and self.relation.kind is RelationKind.SCREWED:
            return RelationKind.CONCENTRIC
        return self.relation.kind


@dataclass(frozen=True)
class OracleState:
    removed: frozenset
    live: tuple


def _oracle_contacts(state, cid):
    return [lr for lr in state.live if cid in lr.relation.components
            and lr.relation.other(cid) not in state.removed]


def _oracle_space_empty(state, cid, dirs):
    return space_from_contacts(
        [(lr.effective_kind, oriented_direction(lr.relation, cid))
         for lr in _oracle_contacts(state, cid)], dirs).is_empty()


def _oracle_unscrew(state, cid):
    return replace(state, live=tuple(
        replace(lr, unscrewed=True)
        if (cid in lr.relation.components
            and lr.relation.kind is RelationKind.SCREWED and not lr.unscrewed)
        else lr for lr in state.live))


def _oracle_drop(state, cid):
    return OracleState(state.removed | {cid},
                       tuple(lr for lr in state.live
                             if cid not in lr.relation.components))


def _oracle_restore(state, model, cid, tightened):
    removed = state.removed - {cid}
    restored = tuple(
        LiveRelation(r, unscrewed=r.kind is RelationKind.SCREWED and not tightened)
        for r in model.relations
        if cid in r.components and r.other(cid) not in removed)
    return OracleState(removed, state.live + restored)


def oracle_transition(state, mp, model, dirs, assembly):
    """The transition function over a rebuilt tuple of live relations, with
    a separate path for the assembly direction."""
    c = mp.component
    if not model.has_component(c):
        raise UnknownComponent(c)
    if assembly:
        if mp.kind is MPKind.PULL:
            if c not in state.removed:
                raise InapplicablePrimitive(str(mp), "component already installed")
            return _oracle_restore(state, model, c, tightened=False)
        if mp.kind is MPKind.TWIST:
            if c in state.removed:
                return _oracle_restore(state, model, c, tightened=True)
            return replace(state, live=tuple(
                replace(lr, unscrewed=False) if c in lr.relation.components
                else lr for lr in state.live))
        return state
    if mp.kind is MPKind.TWIST:
        if c in state.removed:
            raise InapplicablePrimitive(str(mp), "component already removed")
        if not any(lr.relation.kind is RelationKind.SCREWED and not lr.unscrewed
                   for lr in _oracle_contacts(state, c)):
            raise InapplicablePrimitive(str(mp), "no live screwed relation")
        state = _oracle_unscrew(state, c)
        if not _oracle_space_empty(state, c, dirs):
            state = _oracle_drop(state, c)
        return state
    if mp.kind in (MPKind.MOVE, MPKind.PULL):
        if c in state.removed:
            raise InapplicablePrimitive(str(mp), "component already removed")
        if _oracle_space_empty(state, c, dirs):
            raise InapplicablePrimitive(str(mp), "extraction space is empty")
        return _oracle_drop(state, c)
    if c not in state.removed:
        raise InapplicablePrimitive(str(mp), "component not in hand")
    return state


def _outcome(step):
    try:
        return step(), None
    except DismantleError as exc:
        return None, (type(exc), str(exc))


def test_transition_matches_live_relation_oracle(dirs2k):
    """Random primitives in both directions, from any state they reach: the
    same exceptions, removed sets and live contact kinds per component."""
    rng = np.random.default_rng(2024)
    raised = 0
    for _ in range(300):
        model = random_feasible_model(rng, max_extra=4)
        index = {id(r): i for i, r in enumerate(model.relations)}
        known = [c.id for c in model.components]
        ids = known + ["ghost"]
        state = initial_state(model)
        oracle = OracleState(frozenset(), tuple(LiveRelation(r)
                                                for r in model.relations))
        for _ in range(25):
            mp = ManipulationPrimitive(MPKind(rng.choice([k.value for k in MPKind])),
                                       ids[int(rng.integers(len(ids)))],
                                       Tool.GRIPPER)
            assembly = bool(rng.random() < 0.4)
            new, err = _outcome(lambda: transition(state, mp, model, dirs2k,
                                                   assembly=assembly))
            old, oracle_err = _outcome(lambda: oracle_transition(
                oracle, mp, model, dirs2k, assembly))
            assert err == oracle_err, (mp, assembly)
            if err is not None:
                raised += 1
                continue
            state, oracle = new, old
            assert state.removed == oracle.removed
            for cid in known:
                assert (sorted((index[id(r)], kind) for r, kind in state.contacts(cid))
                        == sorted((index[id(lr.relation)], lr.effective_kind)
                                  for lr in _oracle_contacts(oracle, cid))), (mp, cid)
    assert 1000 < raised < 6500  # of 7,500 steps


# ------------------------------------------------------------- direction oracle

def oracle_best_direction(state, component_id, dirs):
    """The planner's direction choice before it moved to ``dspace``, with
    the margins worked out by contact kind here."""
    contacts = state.contacts(component_id)
    space = space_from_contacts(
        [(kind, oriented_direction(r, component_id)) for r, kind in contacts],
        dirs)
    if space.is_empty():
        return None
    idx = np.flatnonzero(space.mask)
    if not contacts:
        return dirs.directions[idx[0]].copy()
    margins = np.full(idx.size, np.inf)
    cand = dirs.directions[idx]
    outward = np.zeros(3)
    for r, kind in contacts:
        d = oriented_direction(r, component_id)
        outward += d
        scores = cand @ d
        if kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT):
            margins = np.minimum(margins, scores)
        elif kind is RelationKind.CONCENTRIC:
            margins = np.minimum(margins, np.abs(scores) - np.cos(EPS_CONE))
    near = margins >= margins.max() - 1e-3
    pool = np.flatnonzero(near)
    if np.linalg.norm(outward) > 1e-12:
        align = cand[pool] @ (outward / np.linalg.norm(outward))
        best = pool[int(np.argmax(align))]
    else:
        best = pool[0]
    return cand[best].copy()


def test_best_direction_matches_oracle_bytes():
    """Random removed and loosened subsets of random models: the same
    direction bytes as the oracle, or None where it finds none."""
    dirs = sample_sphere(2_000, 3)
    rng = np.random.default_rng(31)
    found = empty = 0
    kinds = set()
    for draw in range(300):
        model = (random_contact_model(rng) if draw % 2
                 else random_feasible_model(rng, max_extra=4))
        ids = [c.id for c in model.components if c.id != model.base_id]
        screwed = [i for i, r in enumerate(model.relations)
                   if r.kind is RelationKind.SCREWED]
        for _ in range(3):
            state = SymbolicState(
                model.relations,
                removed=frozenset(c for c in ids if rng.random() < 0.3),
                loose=frozenset(i for i in screwed if rng.random() < 0.5))
            for cid in ids:
                if cid in state.removed:
                    continue
                oriented = _oriented(state, cid)
                kinds.update(kind for kind, _ in oriented)
                got = best_direction(oriented, dirs)
                want = oracle_best_direction(state, cid, dirs)
                if want is None:
                    assert got is None, (draw, cid)
                    empty += 1
                else:
                    assert got.tobytes() == want.tobytes(), (draw, cid)
                    found += 1
    assert kinds == set(RelationKind)
    assert found > 500 and empty > 500, (found, empty)
