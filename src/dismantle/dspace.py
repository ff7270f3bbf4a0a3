"""Sampled disassembly spaces and their symbolic mobility classification.

The unit sphere is sampled once per run; every admissible-direction set is a
boolean mask over that shared sample.  A per-contact set is one comparison of
each direction's score against the contact direction, and multi-contact
intersections AND the masks together, so the whole pipeline is O(n) in the
number of sampled directions.

Classification first tests a few evenly spaced members pairwise: two of them
farther apart than one cone can hold prove the space is not a cone, so the
principal-axis pass over all members runs only for spaces that may be one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpace, UnknownComponent
from .geometry import quat_matrix, random_rotation
from .model import (AXIAL_KINDS, AssemblyModel, RelationKind, SpatialRelation,
                    contacts_of)

# Boundary tolerance for half-space membership (inclusive boundary) and the
# half-angle of the admissible cone around a joint axis.  The cone must stay
# wider than the lattice spacing at the default sample count (n = 10_000,
# spacing about 2 degrees).  EPS_ANG only absorbs float rounding: sampled
# spaces can represent only sets of positive solid angle, so the zero-measure
# band between opposing half spaces stays empty at every sample count.
EPS_ANG = 1e-12
EPS_CONE = np.deg2rad(5.0)
CONE_SLACK = np.deg2rad(2.0)  # classification slack on top of EPS_CONE

DEFAULT_SAMPLES = 10_000


@dataclass(frozen=True)
class DirectionSet:
    """Shared sampled unit directions plus a membership mask."""

    directions: np.ndarray  # (n, 3), unit rows
    mask: np.ndarray        # (n,) bool

    def __post_init__(self):
        if self.directions.ndim != 2 or self.directions.shape[1] != 3:
            raise ValueError("directions must be an (n, 3) array")
        if self.mask.shape != (self.directions.shape[0],):
            raise ValueError("mask length must match directions")

    @property
    def n(self) -> int:
        return self.directions.shape[0]

    def fraction(self) -> float:
        return float(np.count_nonzero(self.mask)) / self.n

    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def is_full(self) -> bool:
        return bool(self.mask.all())

    def with_mask(self, mask: np.ndarray) -> "DirectionSet":
        mask = np.array(mask, dtype=bool)
        mask.flags.writeable = False
        return DirectionSet(self.directions, mask)


def sample_sphere(n: int, seed: int = 0) -> DirectionSet:
    """Deterministic low-discrepancy sample of the unit sphere.

    A Fibonacci lattice provides near-uniform coverage; the seed selects a
    random rigid rotation of the whole lattice, so distinct seeds decorrelate
    the sample without losing uniformity.  The initial mask is all-true: with
    no contacts every direction is an admissible extraction direction.

    The lattice is built, rotated and normalised as one ``(3, n)`` block, one
    coordinate per row, and returned as its read-only ``(n, 3)`` transpose.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    golden = np.pi * (3.0 - np.sqrt(5.0))
    theta = np.arange(n, dtype=float)
    lattice = np.empty((3, n))
    x, y, z = lattice
    # z = 1 - 2 (i + 1/2) / n with i in theta; r = sqrt(max(1 - z^2, 0)) in y
    np.add(theta, 0.5, out=z)
    z *= 2.0
    z /= n
    np.subtract(1.0, z, out=z)
    np.multiply(z, z, out=y)
    np.subtract(1.0, y, out=y)
    np.clip(y, 0.0, None, out=y)
    np.sqrt(y, out=y)
    theta *= golden
    np.cos(theta, out=x)
    x *= y
    np.sin(theta, out=theta)
    y *= theta

    pts = quat_matrix(random_rotation(np.random.default_rng(seed))) @ lattice
    # column norms, summed in np.linalg.norm's order (x^2 + y^2) + z^2, in
    # the lattice rows the rotation has consumed
    norm = np.multiply(pts[0], pts[0], out=x)
    np.multiply(pts[1], pts[1], out=theta)
    norm += theta
    np.multiply(pts[2], pts[2], out=theta)
    norm += theta
    np.sqrt(norm, out=norm)
    pts /= norm
    pts = pts.T
    pts.flags.writeable = False
    mask = np.ones(n, dtype=bool)
    mask.flags.writeable = False
    return DirectionSet(pts, mask)


# ------------------------------------------------------- per-contact sets

def oriented_direction(relation: SpatialRelation, component_id: str) -> np.ndarray:
    """Relation direction oriented for the given side of the pair.

    The stored direction is the separation direction of the first component;
    the second component separates the opposite way.  Joint axes are treated
    the same way so that reported extraction axes stay side-consistent.
    """
    if component_id == relation.components[0]:
        return relation.direction
    if component_id == relation.components[1]:
        return -relation.direction
    raise UnknownComponent(component_id)


def admissible_indices(kind: RelationKind, direction: np.ndarray,
                       dirs: DirectionSet) -> np.ndarray:
    """Boolean ``(n,)`` mask of the samples admissible under one contact.

    plane_contact / congruent: the half space on the separation side of the
    contact plane, boundary included.  concentric: translation only along the
    joint axis, either way, within EPS_CONE.  screwed: nothing; the thread
    blocks translation until a twist converts the joint.  The mask is a fresh
    writable array and ignores ``dirs.mask``; numpy accepts it as an index.
    """
    if kind is RelationKind.SCREWED:
        return np.zeros(dirs.n, dtype=bool)
    scores = dirs.directions @ np.asarray(direction, dtype=float)
    if kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT):
        return scores >= -EPS_ANG
    if kind is RelationKind.CONCENTRIC:
        return np.abs(scores) >= np.cos(EPS_CONE)
    raise ValueError(f"unhandled relation kind: {kind}")


def intersect_spaces(index_sets: list[np.ndarray], dirs: DirectionSet) -> DirectionSet:
    """AND of per-contact admissible masks with the initial direction set.

    The inputs and ``dirs.mask`` are left unmodified.
    """
    mask = dirs.mask.copy()
    for idx in index_sets:
        mask &= idx
    return dirs.with_mask(mask)


def space_from_contacts(contacts: list[tuple[RelationKind, np.ndarray]],
                        dirs: DirectionSet) -> DirectionSet:
    """Aggregate space for pre-oriented (kind, direction) contact predicates."""
    sets = [admissible_indices(kind, direction, dirs)
            for kind, direction in contacts]
    return intersect_spaces(sets, dirs)


def disassembly_space(model: AssemblyModel, component_id: str,
                      dirs: DirectionSet) -> DirectionSet:
    """Full extraction space of a component: intersection over all contacts."""
    contacts = contacts_of(model, component_id)
    oriented = [(r.kind, oriented_direction(r, component_id)) for r in contacts]
    return space_from_contacts(oriented, dirs)


# ------------------------------------------------------- classification

class Mobility(str, Enum):
    FIX = "fix"
    LIN = "lin"
    ROT = "rot"
    FITS = "fits"
    AGPP = "agpp"
    FREE = "free"


_AXIS_VALUES = (Mobility.LIN, Mobility.ROT, Mobility.FITS)


@dataclass(frozen=True)
class MobilityLabel:
    """Symbolic mobility of a component pair.

    ``axis`` carries the translation axis for lin/fits (and a rotation axis
    for a bare rot label).  ``rot_axis`` records symbolically free rotation
    derived from screwed/concentric contacts; it may accompany any value, so a
    screwed pair reads as fix with a live rotation axis.
    """

    value: Mobility
    axis: np.ndarray | None = None
    rot_axis: np.ndarray | None = None

    def __post_init__(self):
        if (self.axis is not None) != (self.value in _AXIS_VALUES):
            raise ValueError(f"axis must be present iff value in "
                             f"{[v.value for v in _AXIS_VALUES]}")
        for name in ("axis", "rot_axis"):
            v = getattr(self, name)
            if v is not None:
                v = np.array(v, dtype=float)
                v.flags.writeable = False
                object.__setattr__(self, name, v)

    def __str__(self):
        if self.axis is not None:
            return f"{self.value.value}({np.array2string(self.axis, precision=3)})"
        return self.value.value


def _principal_axis(points: np.ndarray) -> np.ndarray:
    m = points.T @ points
    _, vecs = np.linalg.eigh(m)
    axis = vecs[:, -1]
    # canonical sign: largest-magnitude entry positive
    k = int(np.argmax(np.abs(axis)))
    if axis[k] < 0.0:
        axis = -axis
    return axis / np.linalg.norm(axis)


# Two members whose lines are more than 2 (EPS_CONE + CONE_SLACK) apart cannot
# both lie within EPS_CONE + CONE_SLACK of one axis.  The 1e-9 margin is far
# above the rounding error of a dot product of unit vectors.
_PAIR_DOT_MIN = np.cos(2.0 * (EPS_CONE + CONE_SLACK)) - 1e-9
_PROBES = 8  # evenly spaced members tested pairwise before the axis pass


def classify_sdof(space: DirectionSet,
                  contacts: list[SpatialRelation]) -> MobilityLabel:
    """Map a computed space plus its contact kinds to a mobility label.

    Rotational freedom is never read off the sampled (purely translational)
    sphere: it is attached symbolically, about the first screwed or
    concentric contact's direction, whenever such a contact is present.
    """
    rot_axis = next((r.direction for r in contacts if r.kind in AXIAL_KINDS), None)

    if space.is_empty():
        return MobilityLabel(Mobility.FIX, rot_axis=rot_axis)
    if space.is_full():
        return MobilityLabel(Mobility.FREE)

    idx = np.flatnonzero(space.mask)
    probe = space.directions[idx[np.arange(_PROBES) * idx.size // _PROBES]]
    # two probes too far apart for one cone rule out every axis, so the
    # principal-axis pass over all members is needed only when none are
    if np.all(np.abs(probe @ probe.T) >= _PAIR_DOT_MIN):
        members = space.directions[idx]
        axis = _principal_axis(members)
        dots = members @ axis
        cone = np.cos(EPS_CONE + CONE_SLACK)
        if np.all(np.abs(dots) >= cone):
            has_pos = bool(np.any(dots > 0.0))
            has_neg = bool(np.any(dots < 0.0))
            if has_pos and has_neg:
                # two antipodal caps: a sliding joint; with free axis rotation
                # the pair behaves as a cylindrical fit
                if rot_axis is not None:
                    return MobilityLabel(Mobility.FITS, axis=axis, rot_axis=rot_axis)
                return MobilityLabel(Mobility.LIN, axis=axis)
            cap_axis = axis if has_pos else -axis
            return MobilityLabel(Mobility.FITS, axis=cap_axis, rot_axis=rot_axis)

    planar = any(r.kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT)
                 for r in contacts)
    if planar:
        # general plane-bounded region (hemispheres, wedges, bands)
        return MobilityLabel(Mobility.AGPP, rot_axis=rot_axis)
    raise DegenerateSpace(
        f"mask with fraction {space.fraction():.4f} matches no mobility rule")


# ------------------------------------------------------- relational graph

@dataclass(frozen=True)
class MobilityGraph:
    """Undirected graph of components labeled by pairwise mobility."""

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], MobilityLabel]

    def label(self, a: str, b: str) -> MobilityLabel:
        return self.edges[(a, b)]


def build_graph(model: AssemblyModel, dirs: DirectionSet) -> MobilityGraph:
    """One edge per component pair joined by at least one relation.

    The pairwise space is evaluated for the lexicographically smaller
    component of each pair; both edge orientations share the same label.
    """
    pair_contacts: dict[tuple[str, str], list[SpatialRelation]] = {}
    for rel in model.relations:
        key = tuple(sorted(rel.components))
        pair_contacts.setdefault(key, []).append(rel)

    edges: dict[tuple[str, str], MobilityLabel] = {}
    for (a, b), rels in pair_contacts.items():
        oriented = [(r.kind, oriented_direction(r, a)) for r in rels]
        space = space_from_contacts(oriented, dirs)
        try:
            label = classify_sdof(space, rels)
        except DegenerateSpace as exc:
            raise DegenerateSpace(str(exc), pair=(a, b)) from None
        edges[(a, b)] = label
        edges[(b, a)] = label
    nodes = tuple(c.id for c in model.components)
    return MobilityGraph(nodes=nodes, edges=edges)


def dump_directions(space: DirectionSet, path) -> None:
    """Debug CSV dump (x,y,z,member) for external visualization."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z,member\n")
        for d, m in zip(space.directions, space.mask):
            fh.write(f"{d[0]:.9f},{d[1]:.9f},{d[2]:.9f},{int(m)}\n")
