"""Relational assembly model and scenario-file ingestion.

A scenario file is a versioned JSON document with top-level keys
``format_version``, ``components``, ``relations``, ``tool_stations`` and
``target`` (plus optional ``robot_start``, ``reassemble``, ``tool_map`` and
``vision_noise``).  Orientations are always unit quaternions ``[w, x, y, z]``;
angles never appear in files.  Relation geometry (frame and direction) is
written in the local frame of the relation's first component and transformed
to the world frame at load time, so everything downstream works in world
coordinates.  See ``docs/scenario_format.md`` for the full schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParseError, UnknownComponent, ValidationError
from .geometry import IDENTITY, Pose, normalize

FORMAT_VERSION = 1


class GeometryKind(str, Enum):
    PLANE = "plane"
    LINE = "line"
    POINT = "point"
    CYLINDER = "cylinder"


class RelationKind(str, Enum):
    CONCENTRIC = "concentric"
    CONGRUENT = "congruent"
    SCREWED = "screwed"
    PLANE_CONTACT = "plane_contact"


class Semantic(str, Enum):
    SCREW = "screw"
    HOSE = "hose"
    COVER = "cover"
    PLUG = "plug"
    GENERIC_GRASPABLE = "generic_graspable"
    BASE = "base"


class Tool(str, Enum):
    GRIPPER = "gripper"
    SCREWDRIVER = "screwdriver"
    NONE = "none"


DEFAULT_TOOL_MAP = {Semantic.SCREW: Tool.SCREWDRIVER}

# kinds whose contact carries a rotation axis (cylindrical joints)
AXIAL_KINDS = (RelationKind.SCREWED, RelationKind.CONCENTRIC)

_GEOMETRY_FOR_KIND = {
    RelationKind.SCREWED: (GeometryKind.CYLINDER, GeometryKind.LINE),
    RelationKind.CONCENTRIC: (GeometryKind.CYLINDER, GeometryKind.LINE),
    RelationKind.CONGRUENT: (GeometryKind.PLANE,),
    RelationKind.PLANE_CONTACT: (GeometryKind.PLANE,),
}


@dataclass(frozen=True)
class FeatureGeometry:
    """Geometric carrier of a contact: plane, line, point or cylinder.

    ``direction`` is the plane normal (pointing away from the mating part) or
    the line/cylinder axis; it is ignored for points.
    """

    kind: GeometryKind
    frame: Pose = IDENTITY
    direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,):
            raise ValueError(f"direction must be a 3-vector, got {d.shape}")
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-6:  # also rejects NaN and inf
            raise ValueError(f"direction must be a finite unit vector: {d}")
        d = d / np.linalg.norm(d)
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class SpatialRelation:
    """Typed contact between an ordered pair of components.

    ``direction`` is the world-frame direction of the relation: the separation
    direction for the first component (plane normal or joint axis).
    """

    kind: RelationKind
    components: tuple[str, str]
    geometry: FeatureGeometry
    direction: np.ndarray

    def __post_init__(self):
        if self.components[0] == self.components[1]:
            raise ValidationError("relation joins a component to itself",
                                  entity=self.components[0])
        if self.geometry.kind not in _GEOMETRY_FOR_KIND[self.kind]:
            raise ValidationError(
                f"{self.kind.value} relation carries incompatible geometry "
                f"{self.geometry.kind.value}",
                entity=f"{self.components[0]}-{self.components[1]}")
        d = normalize(self.direction)
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "components", tuple(self.components))

    def other(self, component_id: str) -> str:
        a, b = self.components
        if component_id == a:
            return b
        if component_id == b:
            return a
        raise UnknownComponent(component_id)

    def __str__(self):
        return f"{self.kind.value}({self.components[0]}, {self.components[1]})"


@dataclass(frozen=True)
class Component:
    id: str
    semantic: Semantic
    pose: Pose = IDENTITY
    grasp_offset: Pose = IDENTITY
    visual_features: np.ndarray | None = None  # (k, 3) points, component frame
    put_pose: Pose | None = None

    def __post_init__(self):
        if self.visual_features is not None:
            pts = np.array(self.visual_features, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
                raise ValidationError(
                    "visual_features must be at least 3 three-dimensional points",
                    entity=self.id)
            rank = np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-9)
            if rank < 2:
                raise ValidationError("visual_features are collinear", entity=self.id)
            pts.flags.writeable = False
            object.__setattr__(self, "visual_features", pts)

    def grasp_pose(self) -> Pose:
        return self.pose.compose(self.grasp_offset)


@dataclass(frozen=True)
class AssemblyModel:
    components: tuple[Component, ...]
    relations: tuple[SpatialRelation, ...]
    tool_stations: dict[str, Pose] = field(default_factory=dict)
    target: str | None = None
    robot_start: Pose = IDENTITY
    reassemble: bool = False
    tool_map: dict[Semantic, Tool] = field(default_factory=lambda: dict(DEFAULT_TOOL_MAP))
    vision_noise: float = 0.005  # 1-sigma object-detection error in meters

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "relations", tuple(self.relations))

    def component(self, component_id: str) -> Component:
        for c in self.components:
            if c.id == component_id:
                return c
        raise UnknownComponent(component_id)

    def has_component(self, component_id: str) -> bool:
        return any(c.id == component_id for c in self.components)

    @property
    def base_id(self) -> str:
        for c in self.components:
            if c.semantic is Semantic.BASE:
                return c.id
        raise ValidationError("model has no base component")

    def tool_for(self, component_id: str) -> Tool:
        """Tool inferred from the component's semantic (scenario-overridable)."""
        semantic = self.component(component_id).semantic
        return self.tool_map.get(semantic, Tool.GRIPPER)

    def validate(self) -> None:
        ids = [c.id for c in self.components]
        for cid in ids:
            if ids.count(cid) > 1:
                raise ValidationError("duplicate component id", entity=cid)
        bases = [c.id for c in self.components if c.semantic is Semantic.BASE]
        if len(bases) != 1:
            raise ValidationError(
                f"model must have exactly one base component, found {len(bases)}")
        for rel in self.relations:
            for cid in rel.components:
                if cid not in ids:
                    raise ValidationError("relation references unknown component",
                                          entity=cid)
        if self.target is not None and self.target not in ids:
            raise ValidationError("target references unknown component",
                                  entity=self.target)
        if len(self.components) > 1:
            seen = {ids[0]}
            frontier = [ids[0]]
            adjacency: dict[str, set[str]] = {i: set() for i in ids}
            for rel in self.relations:
                a, b = rel.components
                adjacency[a].add(b)
                adjacency[b].add(a)
            while frontier:
                nxt = frontier.pop()
                for nb in adjacency[nxt]:
                    if nb not in seen:
                        seen.add(nb)
                        frontier.append(nb)
            if seen != set(ids):
                missing = sorted(set(ids) - seen)
                raise ValidationError("relation graph is not connected",
                                      entity=missing[0])


def contacts_of(model: AssemblyModel, component_id: str) -> list[SpatialRelation]:
    """All relations incident to the component, in file order."""
    if not model.has_component(component_id):
        raise UnknownComponent(component_id)
    return [r for r in model.relations if component_id in r.components]


# ---------------------------------------------------------------- file I/O

def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"missing required key '{key}'", path=path, field=key)
    return obj[key]


def _number(value, path: str, field_name: str) -> float:
    """A JSON number (not a bool) as a float, else a ParseError naming the field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParseError(f"{value!r:.40} is not a number", path=path, field=field_name)


def _object(value, path: str, field_name: str) -> dict:
    """A JSON object, else a ParseError naming the field."""
    if not isinstance(value, dict):
        raise ParseError(f"{value!r:.40} is not an object", path=path, field=field_name)
    return value


def _object_list(doc: dict, key: str, path: str) -> list[dict]:
    """The required list of JSON objects under ``key``."""
    value = _require(doc, key, path)
    if not isinstance(value, list):
        raise ParseError(f"{value!r:.40} is not a list", path=path, field=key)
    return [_object(entry, path, f"{key}[{i}]") for i, entry in enumerate(value)]


def _points(value, path: str, field_name: str) -> np.ndarray:
    """A list of finite ``[x, y, z]`` numbers as an (n, 3) array, else a
    ParseError naming the field."""
    if not (isinstance(value, list)
            and all(isinstance(p, list) and len(p) == 3 for p in value)):
        raise ParseError(f"{value!r:.40} is not a list of [x, y, z] points",
                         path=path, field=field_name)
    pts = np.array([[_number(x, path, field_name) for x in p] for p in value])
    if not np.isfinite(pts).all():
        raise ParseError("points must be finite", path=path, field=field_name)
    return pts.reshape(-1, 3)


def _relation_pair(obj: dict, path: str) -> tuple[str, str]:
    pair = _require(obj, "components", path)
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(cid, str) for cid in pair)):
        raise ParseError("relation 'components' must be a pair of ids",
                         path=path, field="relations[].components")
    return pair[0], pair[1]


def _parse_pose(obj, path, field_name) -> Pose:
    try:
        return Pose.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pose: {exc}", path=path, field=field_name) from None


def _parse_component(obj: dict, path: str) -> Component:
    cid = _require(obj, "id", path)
    if not isinstance(cid, str):
        raise ParseError(f"{cid!r:.40} is not a string", path=path,
                         field="components[].id")
    try:
        semantic = Semantic(_require(obj, "semantic", path))
    except ValueError as exc:
        raise ParseError(str(exc), path=path, field=f"components[{cid}].semantic") from None
    pose = _parse_pose(_require(obj, "pose", path), path, f"components[{cid}].pose")
    grasp = IDENTITY
    if "grasp_offset" in obj:
        grasp = _parse_pose(obj["grasp_offset"], path, f"components[{cid}].grasp_offset")
    put_pose = None
    if obj.get("put_pose") is not None:
        put_pose = _parse_pose(obj["put_pose"], path, f"components[{cid}].put_pose")
    features = obj.get("visual_features")
    if features is not None:
        features = _points(features, path, f"components[{cid}].visual_features")
    return Component(id=cid, semantic=semantic, pose=pose, grasp_offset=grasp,
                     visual_features=features, put_pose=put_pose)


def _parse_relation(obj: dict, pair: tuple[str, str],
                    components: dict[str, Component], path: str) -> SpatialRelation:
    try:
        kind = RelationKind(_require(obj, "kind", path))
    except ValueError as exc:
        raise ParseError(str(exc), path=path, field="relations[].kind") from None
    geo_obj = _object(_require(obj, "geometry", path), path, "relations[].geometry")
    try:
        geo_kind = GeometryKind(_require(geo_obj, "kind", path))
    except ValueError as exc:
        raise ParseError(str(exc), path=path, field="relations[].geometry.kind") from None
    frame_local = IDENTITY
    if "frame" in geo_obj:
        frame_local = _parse_pose(geo_obj["frame"], path, "relations[].geometry.frame")
    dir_field = "relations[].geometry.direction"
    raw = _require(geo_obj, "direction", path)
    if not isinstance(raw, list):
        raise ParseError("geometry direction must be a list of numbers",
                         path=path, field=dir_field)
    direction_local = np.array([_number(x, path, dir_field) for x in raw])
    largest = np.abs(direction_local).max(initial=0.0)
    if direction_local.shape != (3,) or not 0.0 < largest < np.inf:
        raise ParseError("geometry direction must be a finite nonzero 3-vector",
                         path=path, field=dir_field)
    # scale by a power of two near the largest entry, so the norm cannot
    # overflow; the scaling is exact, so the unit vector keeps its bits
    direction_local = np.ldexp(direction_local, -math.frexp(largest)[1])

    anchor = components[pair[0]].pose
    frame_world = anchor.compose(frame_local)
    direction_world = anchor.rotate(normalize(direction_local))
    geometry = FeatureGeometry(kind=geo_kind, frame=frame_world,
                               direction=normalize(direction_world))
    return SpatialRelation(kind=kind, components=pair,
                           geometry=geometry, direction=geometry.direction.copy())


def load_model_dict(doc: dict, path: str = "<dict>") -> AssemblyModel:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object", path=path)
    version = _require(doc, "format_version", path)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}", path=path,
                         field="format_version")
    components = [_parse_component(c, path)
                  for c in _object_list(doc, "components", path)]
    comp_by_id: dict[str, Component] = {}
    for c in components:
        comp_by_id.setdefault(c.id, c)

    relation_objs = _object_list(doc, "relations", path)
    pairs = [_relation_pair(r, path) for r in relation_objs]
    # unknown references caught with the offending id before any geometry
    for cid in (cid for pair in pairs for cid in pair):
        if cid not in comp_by_id:
            raise ValidationError("relation references unknown component",
                                  entity=cid)
    relations = [_parse_relation(r, pair, comp_by_id, path)
                 for r, pair in zip(relation_objs, pairs)]

    stations = {}
    for name, pose_obj in _object(_require(doc, "tool_stations", path), path,
                                  "tool_stations").items():
        stations[name] = _parse_pose(pose_obj, path, f"tool_stations.{name}")

    tool_map = dict(DEFAULT_TOOL_MAP)
    for sem_name, tool_name in _object(doc.get("tool_map", {}), path,
                                       "tool_map").items():
        try:
            tool_map[Semantic(sem_name)] = Tool(tool_name)
        except ValueError as exc:
            raise ParseError(str(exc), path=path, field="tool_map") from None

    vision_noise = _number(doc.get("vision_noise", 0.005), path, "vision_noise")
    if not 0.0 <= vision_noise < np.inf:
        raise ParseError("vision_noise must be finite and >= 0", path=path,
                         field="vision_noise")

    reassemble = doc.get("reassemble", False)
    if not isinstance(reassemble, bool):
        raise ParseError(f"{reassemble!r:.40} is not true or false", path=path,
                         field="reassemble")

    robot_start = IDENTITY
    if "robot_start" in doc:
        robot_start = _parse_pose(doc["robot_start"], path, "robot_start")

    model = AssemblyModel(
        components=tuple(components),
        relations=tuple(relations),
        tool_stations=stations,
        target=doc.get("target"),
        robot_start=robot_start,
        reassemble=reassemble,
        tool_map=tool_map,
        vision_noise=vision_noise,
    )
    model.validate()
    return model


def load_model(path) -> AssemblyModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}", path=str(path)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}", path=str(path)) from None
    return load_model_dict(doc, path=str(path))


def model_to_dict(model: AssemblyModel) -> dict:
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


def write_model(model: AssemblyModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def models_equal(a: AssemblyModel, b: AssemblyModel, tol: float = 1e-9) -> bool:
    """Structural equality up to numerical tolerance on poses and vectors."""
    if len(a.components) != len(b.components) or len(a.relations) != len(b.relations):
        return False
    for ca, cb in zip(a.components, b.components):
        if (ca.id, ca.semantic) != (cb.id, cb.semantic):
            return False
        if not ca.pose.approx_equal(cb.pose, tol):
            return False
        if not ca.grasp_offset.approx_equal(cb.grasp_offset, tol):
            return False
        if (ca.put_pose is None) != (cb.put_pose is None):
            return False
        if ca.put_pose is not None and not ca.put_pose.approx_equal(cb.put_pose, tol):
            return False
        fa, fb = ca.visual_features, cb.visual_features
        if (fa is None) != (fb is None):
            return False
        if fa is not None and not np.allclose(fa, fb, atol=tol):
            return False
    for ra, rb in zip(a.relations, b.relations):
        if ra.kind != rb.kind or ra.components != rb.components:
            return False
        if ra.geometry.kind != rb.geometry.kind:
            return False
        if not np.allclose(ra.direction, rb.direction, atol=tol):
            return False
        if not ra.geometry.frame.approx_equal(rb.geometry.frame, tol=1e-6):
            return False
    if set(a.tool_stations) != set(b.tool_stations):
        return False
    for name in a.tool_stations:
        if not a.tool_stations[name].approx_equal(b.tool_stations[name], tol):
            return False
    return (a.target == b.target and a.reassemble == b.reassemble
            and a.tool_map == b.tool_map)
