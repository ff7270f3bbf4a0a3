"""Relational assembly model and scenario-file ingestion.

A scenario file is a versioned JSON document with top-level keys
``format_version``, ``components``, ``relations``, ``tool_stations`` and
``target`` (plus optional ``robot_start``, ``reassemble``, ``tool_map`` and
``vision_noise``), and each of its objects holds only the keys the format
lists: an unknown key is a parse error.  Orientations are always unit
quaternions ``[w, x, y, z]``; angles never appear in files.  Relation
geometry (frame and direction) is written in the local frame of the
relation's first component and transformed to the world frame at load time,
so everything downstream works in world coordinates.  An error's one line
starts with the file name and names a relation by index and a component by
id once that is read.  See ``docs/scenario_format.md`` for the full schema.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParseError, UnknownComponent, ValidationError
from .geometry import IDENTITY, Pose, frozen_copy, normalize

FORMAT_VERSION = 1
# Largest magnitude a scenario length may have, in meters: a position, an
# offset, a visual feature or vision_noise.  The robot works within about a
# meter, and a length far beyond that only overflows in numpy downstream.
MAX_LENGTH_M = 1e3


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
        d = frozen_copy(self.direction, (3,), "direction")
        nrm = np.linalg.norm(d)
        if not abs(nrm - 1.0) <= 1e-6:  # also rejects NaN and inf
            raise ValueError(f"direction must be a finite unit vector: {d}")
        object.__setattr__(self, "direction", frozen_copy(d / nrm))


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
        object.__setattr__(self, "direction",
                           frozen_copy(normalize(self.direction), (3,), "direction"))
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
            pts = frozen_copy(self.visual_features)
            if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
                raise ValidationError(
                    "visual_features must be at least 3 three-dimensional points",
                    entity=self.id)
            rank = np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-9)
            if rank < 2:
                raise ValidationError("visual_features are collinear", entity=self.id)
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
        for semantic, tool in self.tool_map.items():
            if tool is Tool.NONE:
                raise ValidationError("tool_map maps a semantic to no tool",
                                      entity=semantic.value)
        for rel in self.relations:
            for cid in rel.components:
                if cid not in ids:
                    raise ValidationError("relation references unknown component",
                                          entity=cid)
        if self.target is not None and self.target not in ids:
            raise ValidationError("target references unknown component",
                                  entity=self.target)
        missing = sorted(set(ids) - self.reachable(ids[0]))
        if missing:
            raise ValidationError("relation graph is not connected",
                                  entity=missing[0])

    def neighbors(self, component_id: str) -> set[str]:
        """Components that share a relation with the component."""
        return {r.other(component_id) for r in self.relations
                if component_id in r.components}

    def reachable(self, start: str, barrier: str | None = None) -> set[str]:
        """Components connected to ``start`` through relations, ``start``
        included, by paths that do not pass through ``barrier``."""
        seen = {start}
        frontier = [start]
        while frontier:
            for nb in self.neighbors(frontier.pop()):
                if nb != barrier and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        return seen


def contacts_of(model: AssemblyModel, component_id: str) -> list[SpatialRelation]:
    """All relations incident to the component, in file order."""
    if not model.has_component(component_id):
        raise UnknownComponent(component_id)
    return [r for r in model.relations if component_id in r.components]


# ---------------------------------------------------------------- file I/O

def _require(obj: dict, key: str, at: str = ""):
    """``obj[key]``, else a ParseError naming ``key`` below ``obj``'s path ``at``."""
    if key not in obj:
        raise ParseError(f"missing required key '{key}'",
                         field=f"{at}.{key}" if at else key)
    return obj[key]


def _number(value, field_name: str) -> float:
    """A JSON number (not a bool) as a float, else a ParseError naming the field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParseError(f"{value!r:.40} is not a number", field=field_name)


def _object(value, field_name: str) -> dict:
    """A JSON object, else a ParseError naming the field."""
    if not isinstance(value, dict):
        raise ParseError(f"{value!r:.40} is not an object", field=field_name)
    return value


def _object_list(doc: dict, key: str, known: tuple[str, ...]) -> list[tuple[str, dict]]:
    """The required list under ``key`` of JSON objects whose keys are in
    ``known``, each with its field path ``key[i]``."""
    value = _require(doc, key)
    if not isinstance(value, list):
        raise ParseError(f"{value!r:.40} is not a list", field=key)
    entries = [(f"{key}[{i}]", entry) for i, entry in enumerate(value)]
    for at, entry in entries:
        check_keys(_object(entry, at), known, at)
    return entries


def _points(value, field_name: str) -> np.ndarray:
    """A list of finite ``[x, y, z]`` numbers as an (n, 3) array, else a
    ParseError naming the field."""
    if not (isinstance(value, list)
            and all(isinstance(p, list) and len(p) == 3 for p in value)):
        raise ParseError(f"{value!r:.40} is not a list of [x, y, z] points",
                         field=field_name)
    pts = np.array([[_number(x, field_name) for x in p] for p in value])
    if not np.isfinite(pts).all():
        raise ParseError("points must be finite", field=field_name)
    return _bounded(pts.reshape(-1, 3), field_name)


def _bounded(lengths: np.ndarray, field_name: str) -> np.ndarray:
    """``lengths``, else a ParseError if one exceeds ``MAX_LENGTH_M``."""
    if np.abs(lengths).max(initial=0.0) > MAX_LENGTH_M:
        raise ParseError(f"lengths must be at most {MAX_LENGTH_M:g} m",
                         field=field_name)
    return lengths


def _parse_pose(obj, field_name) -> Pose:
    obj = _object(obj, field_name)
    check_keys(obj, ("position", "orientation"), field_name)
    parts = []
    for key, size in (("position", 3), ("orientation", 4)):
        if key not in obj:
            raise ParseError(f"pose has no '{key}'", field=field_name)
        value = obj[key]
        if not (isinstance(value, list) and len(value) == size):
            raise ParseError(f"{key} {value!r:.40} is not a list of {size} numbers",
                             field=field_name)
        parts.append([_number(x, field_name) for x in value])
    try:
        pose = Pose(*parts)
    except ValueError as exc:
        raise ParseError(f"bad pose: {exc}", field=field_name) from None
    _bounded(pose.position, field_name)
    return pose


def _parse_component(obj: dict, at: str) -> Component:
    """The component of the entry ``obj`` at ``at``, its fields named by id."""
    cid = _require(obj, "id", at)
    if not isinstance(cid, str):
        raise ParseError(f"{cid!r:.40} is not a string", field=f"{at}.id")
    at = f"components[{cid}]"
    try:
        semantic = Semantic(_require(obj, "semantic", at))
    except ValueError as exc:
        raise ParseError(str(exc), field=f"{at}.semantic") from None
    pose = _parse_pose(_require(obj, "pose", at), f"{at}.pose")
    grasp = IDENTITY
    if "grasp_offset" in obj:
        grasp = _parse_pose(obj["grasp_offset"], f"{at}.grasp_offset")
    put_pose = None
    if obj.get("put_pose") is not None:
        put_pose = _parse_pose(obj["put_pose"], f"{at}.put_pose")
    features = obj.get("visual_features")
    if features is not None:
        features = _points(features, f"{at}.visual_features")
    return Component(id=cid, semantic=semantic, pose=pose, grasp_offset=grasp,
                     visual_features=features, put_pose=put_pose)


def _parse_relation(obj: dict, at: str,
                    components: dict[str, Component]) -> SpatialRelation:
    """The relation of the entry ``obj`` at ``at``, in world coordinates."""
    pair = _require(obj, "components", at)
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(cid, str) for cid in pair)):
        raise ParseError("relation 'components' must be a pair of ids",
                         field=f"{at}.components")
    for cid in pair:
        if cid not in components:
            raise ValidationError("relation references unknown component", entity=cid)
    try:
        kind = RelationKind(_require(obj, "kind", at))
    except ValueError as exc:
        raise ParseError(str(exc), field=f"{at}.kind") from None
    geo = f"{at}.geometry"
    geo_obj = _object(_require(obj, "geometry", at), geo)
    check_keys(geo_obj, ("kind", "frame", "direction"), geo)
    try:
        geo_kind = GeometryKind(_require(geo_obj, "kind", geo))
    except ValueError as exc:
        raise ParseError(str(exc), field=f"{geo}.kind") from None
    frame_local = IDENTITY
    if "frame" in geo_obj:
        frame_local = _parse_pose(geo_obj["frame"], f"{geo}.frame")
    dir_field = f"{geo}.direction"
    raw = _require(geo_obj, "direction", geo)
    if not isinstance(raw, list):
        raise ParseError("geometry direction must be a list of numbers",
                         field=dir_field)
    direction_local = np.array([_number(x, dir_field) for x in raw])
    largest = np.abs(direction_local).max(initial=0.0)
    if direction_local.shape != (3,) or not 0.0 < largest < np.inf:
        raise ParseError("geometry direction must be a finite nonzero 3-vector",
                         field=dir_field)
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
    """The validated model of a scenario document.  A ParseError or
    ValidationError is one line that starts with ``path``; an unknown key of
    any object but the two maps ``tool_stations`` and ``tool_map`` is a
    ParseError."""
    try:
        return _parse_model(doc)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _parse_model(doc: dict) -> AssemblyModel:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    check_keys(doc, ("format_version", "components", "relations", "tool_stations",
                     "target", "reassemble", "robot_start", "tool_map",
                     "vision_noise"))
    version = _require(doc, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r:.40}",
                         field="format_version")
    components = [_parse_component(c, at) for at, c in _object_list(
        doc, "components", ("id", "semantic", "pose", "grasp_offset",
                            "visual_features", "put_pose"))]
    comp_by_id: dict[str, Component] = {}
    for c in components:
        comp_by_id.setdefault(c.id, c)

    relations = [_parse_relation(r, at, comp_by_id) for at, r in _object_list(
        doc, "relations", ("kind", "components", "geometry"))]

    stations = {}
    for name, pose_obj in _object(_require(doc, "tool_stations"),
                                  "tool_stations").items():
        stations[name] = _parse_pose(pose_obj, f"tool_stations.{name}")

    tool_map = dict(DEFAULT_TOOL_MAP)
    for sem_name, tool_name in _object(doc.get("tool_map", {}), "tool_map").items():
        try:
            tool_map[Semantic(sem_name)] = Tool(tool_name)
        except ValueError as exc:
            raise ParseError(str(exc), field="tool_map") from None

    vision_noise = _number(doc.get("vision_noise", 0.005), "vision_noise")
    if not 0.0 <= vision_noise <= MAX_LENGTH_M:
        raise ParseError(f"vision_noise must be from 0 to {MAX_LENGTH_M:g} m",
                         field="vision_noise")

    reassemble = doc.get("reassemble", False)
    if not isinstance(reassemble, bool):
        raise ParseError(f"{reassemble!r:.40} is not true or false",
                         field="reassemble")

    target = doc.get("target")
    if target is not None and not isinstance(target, str):
        raise ParseError(f"{target!r:.40} is not a string", field="target")

    robot_start = IDENTITY
    if "robot_start" in doc:
        robot_start = _parse_pose(doc["robot_start"], "robot_start")

    model = AssemblyModel(
        components=tuple(components),
        relations=tuple(relations),
        tool_stations=stations,
        target=target,
        robot_start=robot_start,
        reassemble=reassemble,
        tool_map=tool_map,
        vision_noise=vision_noise,
    )
    model.validate()
    return model


def read_json(path, what: str):
    """The JSON document in the file at ``path``.  Raises ParseError, with the
    one line ``what: reason``, if the file cannot be read, is not UTF-8, is
    not JSON, holds an integer too long to convert or is nested too deep for
    ``json``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{what}: {exc}") from None


def check_keys(obj: dict, known: tuple[str, ...], field_name: str | None = None) -> None:
    """Raise a one-line ParseError if ``obj`` has a key not in ``known``.  It
    names the first such key, cut to 40 characters, the field path of
    ``obj`` (none at the top level) and the closest known key, if any is
    close."""
    for key in obj:
        if key not in known:
            close = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ParseError(f"unknown key {key!r:.40}{hint}", field=field_name)


def load_model(path) -> AssemblyModel:
    return load_model_dict(read_json(path, f"{path}: cannot read scenario"),
                           path=str(path))
