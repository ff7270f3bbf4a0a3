"""Shared fixtures: scenario paths, sampled spheres, independent oracles
(the visual-servoing array oracle among them), random model generators and
the scenario document writer."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from dismantle.camera import CX, CY, FOCAL_PX, camera_orientation, project
from dismantle.control import IBVS_GAIN
from dismantle.dspace import EPS_ANG, EPS_CONE, DirectionSet, sample_sphere
from dismantle.errors import SingularJacobian
from dismantle.geometry import IDENTITY, Pose
from dismantle.model import (DEFAULT_TOOL_MAP, FORMAT_VERSION, AssemblyModel,
                             Component, FeatureGeometry, GeometryKind,
                             RelationKind, Semantic, SpatialRelation,
                             contacts_of, load_model)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FEATURE_SQUARE = np.array([
    [0.02, 0.02, 0.0],
    [-0.02, 0.02, 0.0],
    [-0.02, -0.02, 0.0],
    [0.02, -0.02, 0.01],
])

STATIONS = {
    "screwdriver": Pose(np.array([0.1, -0.45, 0.15])),
    "gripper": Pose(np.array([-0.1, -0.45, 0.15])),
}


@pytest.fixture(scope="session")
def dirs10k() -> DirectionSet:
    return sample_sphere(10_000, seed=0)


@pytest.fixture(scope="session")
def dirs2k() -> DirectionSet:
    return sample_sphere(2_000, seed=0)


@pytest.fixture(scope="session")
def single_screw_path() -> Path:
    return SCENARIOS / "single_screw.json"


@pytest.fixture(scope="session")
def valve_path() -> Path:
    return SCENARIOS / "valve.json"


@pytest.fixture(scope="session")
def single_screw_model():
    return load_model(SCENARIOS / "single_screw.json")


@pytest.fixture(scope="session")
def valve_model():
    return load_model(SCENARIOS / "valve.json")


# ------------------------------------------------------------------ oracles

def brute_force_space(model: AssemblyModel, component_id: str,
                      dirs: DirectionSet) -> np.ndarray:
    """Per-direction evaluation of every contact predicate.

    Plain boolean predicates ANDed together; no sorting, no searching.  The
    production mask path must match it bit for bit.
    """
    mask = dirs.mask.copy()
    for rel in contacts_of(model, component_id):
        d = rel.direction if component_id == rel.components[0] else -rel.direction
        scores = dirs.directions @ d
        if rel.kind is RelationKind.SCREWED:
            mask &= np.zeros(dirs.n, dtype=bool)
        elif rel.kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT):
            mask &= scores >= -EPS_ANG
        elif rel.kind is RelationKind.CONCENTRIC:
            mask &= np.abs(scores) >= np.cos(EPS_CONE)
        else:  # pragma: no cover
            raise AssertionError(rel.kind)
    return mask


def _indices_at_least(scores: np.ndarray, threshold: float) -> np.ndarray:
    order = np.argsort(scores, kind="stable")
    return order[np.searchsorted(scores[order], threshold, side="left"):]


def _indices_at_most(scores: np.ndarray, threshold: float) -> np.ndarray:
    order = np.argsort(scores, kind="stable")
    return order[:np.searchsorted(scores[order], threshold, side="right")]


def sorted_set_space(model: AssemblyModel, component_id: str,
                     dirs: DirectionSet) -> np.ndarray:
    """Index-set evaluation of the same predicates, independent of any mask.

    Each contact ranks the directions by score (stable argsort) and finds its
    admissible range by binary search; a concentric contact is the union of
    two one-sided ranges.  The index sets are merged with ``intersect1d`` and
    scattered into a mask only at the end.
    """
    result = np.flatnonzero(dirs.mask)
    for rel in contacts_of(model, component_id):
        d = rel.direction if component_id == rel.components[0] else -rel.direction
        scores = dirs.directions @ d
        if rel.kind is RelationKind.SCREWED:
            idx = np.empty(0, dtype=np.intp)
        elif rel.kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT):
            idx = _indices_at_least(scores, -EPS_ANG)
        elif rel.kind is RelationKind.CONCENTRIC:
            idx = np.concatenate([_indices_at_most(scores, -np.cos(EPS_CONE)),
                                  _indices_at_least(scores, np.cos(EPS_CONE))])
        else:  # pragma: no cover
            raise AssertionError(rel.kind)
        result = np.intersect1d(result, idx, assume_unique=True)
    mask = np.zeros(dirs.n, dtype=bool)
    mask[result] = True
    return mask


def flange_project(points, pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """``camera.project`` of world points from the camera on a flange at
    ``pose``, as arrays: pixels [u1, v1, ...] and depths."""
    p, q = pose.as_floats()
    pixels, depths = project(np.asarray(points, dtype=float).tolist(), p,
                             camera_orientation(p, q))
    return np.array(pixels), np.array(depths)


# The array code visual servoing ran on before its float cores: the camera as
# a ``Pose`` composed onto the flange, a projection through ``Pose.inverse``
# and ``Pose.apply``, the stacked interaction matrix and a LAPACK solve.  Its
# BLAS and LAPACK calls round differently, so the float cores match it within
# a bound, not bit for bit.

ORACLE_CAM_MOUNT = Pose(np.zeros(3), np.array([0.0, 1.0, 0.0, 0.0]))


def oracle_camera_pose(tcp: Pose) -> Pose:
    return tcp.compose(ORACLE_CAM_MOUNT)


def oracle_project(points_world: np.ndarray,
                   cam: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinates [u1, v1, ...] and depths of world points seen from
    camera pose ``cam``."""
    pts = cam.inverse().apply(np.asarray(points_world, dtype=float))
    z = pts[:, 2]
    safe_z = np.where(np.abs(z) < 1e-9, 1e-9, z)
    u = FOCAL_PX * pts[:, 0] / safe_z + CX
    v = FOCAL_PX * pts[:, 1] / safe_z + CY
    return np.column_stack([u, v]).reshape(-1), z.copy()


def oracle_feature_jacobian(pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Stacked 2x6 point-feature interaction matrices in pixel units."""
    px = np.asarray(pixels, dtype=float)
    z = np.asarray(depths, dtype=float)
    if px.size != 2 * z.size or z.size < 3:
        raise ValueError("need at least 3 features with matching pixel pairs")
    if np.any(z <= 0.0):
        raise ValueError("feature depths must be positive")
    f = FOCAL_PX
    px = px.reshape(-1, 2)
    du = px[:, 0] - CX
    dv = px[:, 1] - CY
    zero = np.zeros_like(z)
    row_u = np.stack([-f / z, zero, du / z, du * dv / f,
                      -(f * f + du * du) / f, dv], axis=1)
    row_v = np.stack([zero, -f / z, dv / z, (f * f + dv * dv) / f,
                      -du * dv / f, -du], axis=1)
    return np.stack([row_u, row_v], axis=1).reshape(-1, 6)


def oracle_ibvs_step(target_px: np.ndarray, pixels: np.ndarray,
                     depths: np.ndarray) -> np.ndarray:
    """IBVS_GAIN * (J^T J)^-1 J^T (target_px - pixels), in the camera frame."""
    jac = oracle_feature_jacobian(pixels, depths)
    jtj = jac.T @ jac
    eigvals = np.linalg.eigvalsh(jtj)
    if eigvals[0] <= 1e-9 * max(eigvals[-1], 1.0):
        raise SingularJacobian("feature set is degenerate for servoing")
    err = target_px - pixels
    return IBVS_GAIN * np.linalg.solve(jtj, jac.T @ err)


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_contact_model(rng: np.random.Generator,
                         max_components: int = 6,
                         max_contacts: int = 4) -> AssemblyModel:
    """Arbitrary connected model for space-computation equivalence tests.

    Geometry is unconstrained (random contact directions), so the resulting
    spaces exercise every predicate combination; the model is still valid per
    the loader invariants.
    """
    n_extra = int(rng.integers(1, max_components))
    components = [Component(id="base", semantic=Semantic.BASE)]
    ids = ["base"]
    relations = []
    kinds = [RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT,
             RelationKind.CONCENTRIC, RelationKind.SCREWED]
    for i in range(n_extra):
        cid = f"c{i}"
        pose = Pose(rng.uniform(-0.3, 0.3, size=3))
        components.append(Component(id=cid, semantic=Semantic.GENERIC_GRASPABLE,
                                    pose=pose))
        n_rel = int(rng.integers(1, max_contacts + 1))
        partners = [ids[int(rng.integers(0, len(ids)))]]
        for _ in range(n_rel - 1):
            partners.append(ids[int(rng.integers(0, len(ids)))])
        for partner in partners:
            kind = kinds[int(rng.integers(0, len(kinds)))]
            geo_kind = (GeometryKind.PLANE
                        if kind in (RelationKind.PLANE_CONTACT,
                                    RelationKind.CONGRUENT)
                        else GeometryKind.CYLINDER)
            direction = random_unit(rng)
            geometry = FeatureGeometry(kind=geo_kind, direction=direction)
            relations.append(SpatialRelation(kind=kind, components=(cid, partner),
                                             geometry=geometry,
                                             direction=direction.copy()))
        ids.append(cid)
    model = AssemblyModel(components=tuple(components), relations=tuple(relations),
                          tool_stations=dict(STATIONS))
    model.validate()
    return model


def random_feasible_model(rng: np.random.Generator,
                          max_extra: int = 4) -> AssemblyModel:
    """Stacked assembly that is always fully disassemblable top-down.

    Component i sits on component i-1 through one of: a plane contact
    (graspable part), a screwed joint (screw), or a concentric fit plus seat
    plane (hose-style fitting).  The target is the bottom-most non-base part,
    so plans must clear the stack above it.
    """
    n_extra = int(rng.integers(1, max_extra + 1))
    components = [Component(id="base", semantic=Semantic.BASE)]
    relations = []
    below = "base"
    z = 0.0
    put_x = 0.45
    for i in range(n_extra):
        cid = f"p{i}"
        z += 0.04
        style = int(rng.integers(0, 3))
        pose = Pose(np.array([0.25 + rng.uniform(-0.05, 0.05),
                              rng.uniform(-0.05, 0.05), z]))
        put = Pose(np.array([put_x, -0.3, 0.02]))
        put_x += 0.08
        grasp = Pose(np.array([0.0, 0.0, 0.12]))
        if style == 0:
            semantic = Semantic.SCREW
            kind_list = [(RelationKind.SCREWED, np.array([0.0, 0.0, 1.0]))]
        elif style == 1:
            semantic = Semantic.GENERIC_GRASPABLE
            kind_list = [(RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0]))]
        else:
            semantic = Semantic.HOSE
            kind_list = [(RelationKind.CONCENTRIC, np.array([0.0, 0.0, 1.0])),
                         (RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0]))]
        components.append(Component(id=cid, semantic=semantic, pose=pose,
                                    grasp_offset=grasp,
                                    visual_features=FEATURE_SQUARE.copy(),
                                    put_pose=put))
        for kind, direction in kind_list:
            geo_kind = (GeometryKind.PLANE if kind is RelationKind.PLANE_CONTACT
                        else GeometryKind.CYLINDER)
            geometry = FeatureGeometry(kind=geo_kind, direction=direction)
            relations.append(SpatialRelation(kind=kind, components=(cid, below),
                                             geometry=geometry,
                                             direction=direction.copy()))
        below = cid
    target = "p0" if rng.random() < 0.5 else None
    model = AssemblyModel(components=tuple(components), relations=tuple(relations),
                          tool_stations=dict(STATIONS), target=target,
                          robot_start=Pose(np.array([0.0, -0.1, 0.35])))
    model.validate()
    return model


# --------------------------------------------------------- scenario documents

def model_to_dict(model: AssemblyModel) -> dict:
    """The scenario document of ``model``: ``load_model_dict`` of it gives the
    model back."""
    comps = []
    for c in model.components:
        entry = {"id": c.id, "semantic": c.semantic.value, "pose": c.pose.to_json()}
        if not c.grasp_offset.approx_equal(IDENTITY):
            entry["grasp_offset"] = c.grasp_offset.to_json()
        if c.visual_features is not None:
            entry["visual_features"] = [[float(x) for x in p] for p in c.visual_features]
        if c.put_pose is not None:
            entry["put_pose"] = c.put_pose.to_json()
        comps.append(entry)

    rels = []
    for r in model.relations:
        # write geometry back in the first component's local frame so that a
        # reload transforms it to the identical world-frame relation
        anchor_inv = model.component(r.components[0]).pose.inverse()
        frame_local = anchor_inv.compose(r.geometry.frame)
        direction_local = anchor_inv.rotate(r.geometry.direction)
        rels.append({
            "kind": r.kind.value,
            "components": list(r.components),
            "geometry": {
                "kind": r.geometry.kind.value,
                "frame": frame_local.to_json(),
                "direction": [float(x) for x in direction_local],
            },
        })

    doc = {
        "format_version": FORMAT_VERSION,
        "components": comps,
        "relations": rels,
        "tool_stations": {k: v.to_json() for k, v in model.tool_stations.items()},
        "target": model.target,
        "robot_start": model.robot_start.to_json(),
        "reassemble": model.reassemble,
        "vision_noise": model.vision_noise,
    }
    non_default = {k.value: v.value for k, v in model.tool_map.items()
                   if DEFAULT_TOOL_MAP.get(k) != v}
    if non_default:
        doc["tool_map"] = non_default
    return doc
