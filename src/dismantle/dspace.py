"""Sampled disassembly spaces and their symbolic mobility classification.

The unit sphere is sampled once per run; every admissible-direction set is a
boolean mask over that shared sample.  A per-contact set is one comparison of
each direction's score against the contact direction, and multi-contact
intersections AND the masks together, so the whole pipeline is O(n) in the
number of sampled directions.

Each sphere memoizes its per-contact masks, packed to one bit per direction
(n / 8 bytes), by line, a direction up to sign.  A space request scores the
lines the memo lacks in one pass of one job per line.  A job's one product
gives the scores s = direction . d, and it always writes three masks:
s >= -EPS_ANG is d's half space and s <= EPS_ANG is -d's, because
directions @ -d is -(directions @ d) bit for bit, then one abs turns s into
|s| for the cone |s| >= cos(EPS_CONE), which serves d and -d alike.  The memo
maps the bytes of d to (d's half mask, cone mask) and those of -d to (-d's
half mask, cone mask).  ``disassembly_space`` and ``build_graph`` first score
every relation of their model, screwed ones included, since a twist leaves a
concentric contact on the screw's line; so a model's spaces and graph cost
one pass per sphere.  Each chunk's bools are packed straight into the
chunk's bytes of the entry, and the entries reach the memo only once the
whole pass has succeeded.  So a line is scored once per sphere, however
often either side's space is asked for, and whichever test it needs.  A
space is the AND of its packed entries, unpacked once and ANDed with the
set's mask; a screwed contact makes it empty and nothing is scored.  The
memo is shared by every set ``with_mask`` derives from the sphere, and lives
as long as the sphere.  The sphere's directions are read-only, so a stored
mask cannot go stale.

Sampling the sphere and scoring it against a contact both run by chunks of
2^15 rows (``_by_chunks``), spread over the CPUs the process may run on: the
calling thread takes one share of the chunks and a plain thread each takes
the others.  A chunk's scratch stays in a core's L2 cache, so each pass over
it reads what the previous pass wrote without a trip to memory, and no
full-size temporary is made.  The BLAS products run per chunk too, one call
per chunk on the thread that owns it.  One full-size product would be handed
to OpenBLAS's own threads, which spin around that single call while the
elementwise passes get one core.  Chunk bounds depend on n alone, so every
BLAS call and ufunc sees the same operands however many workers there are,
and each element goes through the same operations as in one full-size pass
(``tests/test_dspace.py`` keeps that pass as the oracle).

The lattice's azimuths golden * i are not evaluated row by row.  A per-call
table holds cos and sin of golden * k for the rows k of a chunk, and one
array call gives cos and sin of golden * lo for every chunk start lo, so a 1M
sphere evaluates about 65k sines and cosines instead of 2M.  A chunk's
lattice is [r cos_k, r sin_k, z], and the turn Rz(golden * lo) by its start
is folded into the rotation, rot Rz(golden * lo) in float arithmetic, so the
chunk's one BLAS product applies both.  That product is the sample: the
lattice rows are unit and the rotation is orthonormal, so no row is divided
by its norm, which is 1 within 4 eps (2.7 eps at worst against a longdouble
norm, measured up to 1M rows and pinned by ``tests/test_dspace.py``).
Chunk 0's turn is by cos = 1 and sin = 0 and leaves rot as it is, so a
sphere of one chunk (n <= 2^15 + 1) has the bytes of the row-by-row formula.
The rows of a later chunk differ from it by rounding, about 2e-10 per
coordinate at 1M, and are no less accurate: the float64 rounding of
golden * lo and of golden * i bounds the error of either.

Only this module decides what a contact kind admits: ``_score_pass`` holds
each kind's test, ``best_direction`` the matching clearance margin, from
which it chooses the extraction direction the planner records for a
component.

Classification first tests pairwise the members among every step-th
direction, step = max(1, n // 256): two farther apart than one cone can hold
prove the space is not a cone, so the principal-axis pass over all members
runs only for spaces that may be one, fewer than two probes proving nothing.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce

import numpy as np

from .errors import DegenerateSpace, UnknownComponent
from .geometry import frozen_copy, quat_matrix, random_rotation
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
_COS_CONE = np.cos(EPS_CONE)  # a concentric contact's bound on |s|
CONE_SLACK = np.deg2rad(2.0)  # classification slack on top of EPS_CONE

DEFAULT_SAMPLES = 10_000
# Rows per chunk of the sphere's kernels: a chunk's float64 scores (256 KiB)
# and its sphere lattice (768 KiB) stay in a core's L2 cache.  The bytes of a
# sphere of more than one chunk depend on it: its chunk starts set the turns
# that ``sample_sphere`` folds into each chunk's rotation.
_CHUNK = 1 << 15


def _frozen(a: np.ndarray) -> bool:
    """True if no array in ``a``'s view chain is writeable, so no caller can
    change its values; a view of a writeable array is not frozen."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


@dataclass(frozen=True)
class DirectionSet:
    """Shared sampled unit directions plus a membership mask.

    ``directions`` is stored read-only (an input that is, or views, a
    writeable array is copied first), so the per-contact masks in ``_memo``
    stay valid for the set's lifetime.  ``mask`` is stored the same way, as
    bool: a mask that is not bool, or that a caller could still write, is
    kept as a read-only bool copy.
    """

    directions: np.ndarray  # (n, 3), unit rows
    mask: np.ndarray        # (n,) bool
    # oriented direction bytes -> np.packbits of (its half space, its cone)
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __post_init__(self):
        if self.directions.ndim != 2 or self.directions.shape[1] != 3:
            raise ValueError("directions must be an (n, 3) array")
        if not (isinstance(self.mask, np.ndarray) and self.mask.dtype == bool
                and _frozen(self.mask)):
            object.__setattr__(self, "mask", frozen_copy(self.mask, dtype=bool))
        if self.mask.shape != (self.directions.shape[0],):
            raise ValueError("mask length must match directions")
        if not _frozen(self.directions):
            object.__setattr__(self, "directions", frozen_copy(self.directions))

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
        return self._owning(frozen_copy(mask, dtype=bool))

    def _owning(self, mask: np.ndarray) -> "DirectionSet":
        """A set over this sample and memo that takes ``mask``, a fresh bool
        array no caller holds, and freezes it in place, down its view chain."""
        a = mask
        while isinstance(a, np.ndarray):
            a.flags.writeable = False
            a = a.base
        derived = DirectionSet(self.directions, mask)
        object.__setattr__(derived, "_memo", self._memo)
        return derived


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _by_chunks(n: int, rows: int, fill) -> None:
    """Call ``fill(buf, lo, hi)`` for each chunk ``[lo, hi)`` of ``range(n)``.

    Chunk j starts at row ``j * _CHUNK`` and the last runs to n.  The chunks
    are dealt by stride to ``min(usable CPUs, chunks)`` shares: the calling
    thread runs share 0 and one ``threading.Thread`` each runs the others,
    so a single chunk starts no thread.  ``buf`` is the share's own
    ``(rows, hi - lo)`` float64 scratch, allocated by the calling thread.
    Every share has stopped when this returns or raises, and an exception
    raised in any share is raised here.
    """
    # a last row on its own would be a one-row product, which numpy sends to
    # a different BLAS routine (ddot, gemv) than the full-size one, so it
    # joins the chunk before it
    chunks = max(1, -(-(n - 1) // _CHUNK))
    shares = min(_usable_cpus(), chunks)
    bufs = np.empty((shares, rows, min(n, _CHUNK + 1)))
    errors = []

    def run(share):
        try:
            for j in range(share, chunks, shares):
                lo = j * _CHUNK
                hi = n if j == chunks - 1 else lo + _CHUNK
                fill(bufs[share, :, :hi - lo], lo, hi)
        except BaseException as exc:  # raised in the caller below
            errors.append(exc)

    workers = []
    try:
        for share in range(1, shares):
            worker = threading.Thread(target=run, args=(share,))
            worker.start()
            workers.append(worker)
        run(0)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


def sample_sphere(n: int, seed: int = 0) -> DirectionSet:
    """Deterministic low-discrepancy sample of the unit sphere.

    A Fibonacci lattice (González, Math. Geosciences 42, 2010) provides
    near-uniform coverage; the seed selects a random rigid rotation of the
    whole lattice, so distinct seeds decorrelate the sample without losing
    uniformity.  The initial mask is all-true: with no contacts every
    direction is an admissible extraction direction.

    The sample is a ``(3, n)`` block, one coordinate per row, returned as its
    read-only ``(n, 3)`` transpose.  Each chunk ``[lo, hi)``'s lattice
    [r cos_k, r sin_k, z] is built in its share's 768 KiB scratch from one
    table of cos and sin of golden * k for the call (k < min(n, 2^15 + 1)),
    rotated straight into the block by one BLAS product.  The product's
    matrix is rot Rz(golden * lo), the turn by the chunk start multiplied out
    in float arithmetic, so its azimuths are golden * (lo + k); one array
    call gives cos_lo and sin_lo for all chunk starts.  Chunk 0 has
    cos_lo = 1 and sin_lo = 0, so its matrix is rot and a sphere of one chunk
    keeps the bytes of the row-by-row formula.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rot = quat_matrix(random_rotation(np.random.default_rng(seed))).tolist()
    golden = np.pi * (3.0 - np.sqrt(5.0))
    m = min(n, _CHUNK + 1)
    odd = np.arange(1.0, 2 * m, 2.0)  # 2k + 1, exactly
    # cos and sin of golden * k for a row k of a chunk, and of golden * lo
    # for every chunk start lo
    turn = np.arange(m, dtype=float)
    turn *= golden
    cos_k = np.cos(turn)
    sin_k = np.sin(turn, out=turn)
    start = np.arange(0, n, _CHUNK, dtype=float)
    start *= golden
    cos_lo, sin_lo = np.cos(start).tolist(), np.sin(start).tolist()
    pts = np.empty((3, n))

    def fill(lattice, lo, hi):
        x, y, z = lattice
        rows = hi - lo
        # z = 1 - (2i + 1) / n with i = lo + k; r = sqrt(1 - z^2) in y.  No
        # clip: (2i + 1) / n lies in [0, 2], so |z| <= 1 and 1 - z^2 >= +0
        np.add(odd[:rows], 2 * lo, out=z)
        z /= n
        np.subtract(1.0, z, out=z)
        np.multiply(z, z, out=y)
        np.subtract(1.0, y, out=y)
        np.sqrt(y, out=y)
        # azimuths golden * k, before the chunk start's turn
        np.multiply(cos_k[:rows], y, out=x)
        y *= sin_k[:rows]
        # rot Rz(golden * lo) in float arithmetic; in chunk 0, ca = 1 and
        # sa = 0 leave rot as it is
        ca, sa = cos_lo[lo // _CHUNK], sin_lo[lo // _CHUNK]
        turned = np.array([[r0 * ca + r1 * sa, r1 * ca - r0 * sa, r2]
                           for r0, r1, r2 in rot])
        np.matmul(turned, lattice, out=pts[:, lo:hi])

    _by_chunks(n, 3, fill)
    pts.flags.writeable = False
    mask = np.ones(n, dtype=bool)
    mask.flags.writeable = False
    return DirectionSet(pts.T, mask)


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


def _score_pass(dirs: DirectionSet, lines: list[np.ndarray]) -> list[tuple]:
    """Score the sample against every line's direction in one chunked pass.

    Per chunk ``[lo, hi)`` and line d, one product puts the scores s in the
    share's scratch.  s >= -EPS_ANG gives d's half space and s <= EPS_ANG
    -d's; then one ``abs`` turns s into |s| in place, and
    |s| >= cos(EPS_CONE) gives the cone about the line.  A test packs its
    bools into the chunk's bytes of its mask: chunk starts are multiples of
    8, so no two chunks write the same byte.  Returns, in line order, each
    line's packed ``(d's half, -d's half, cone)``.  The only scoring kernel:
    ``admissible_indices`` and the memo both run it.
    """
    directions = dirs.directions
    masks = [tuple(np.empty(-(-dirs.n // 8), np.uint8) for _ in range(3))
             for _ in lines]

    def fill(buf, lo, hi):
        scores, bools = buf[0], buf[1].view(bool)[:hi - lo]
        at = slice(lo >> 3, (hi + 7) >> 3)
        for d, (half, opposite, cone) in zip(lines, masks):
            np.matmul(directions[lo:hi], d, out=scores)
            half[at] = np.packbits(np.greater_equal(scores, -EPS_ANG, out=bools))
            opposite[at] = np.packbits(np.less_equal(scores, EPS_ANG, out=bools))
            np.abs(scores, out=scores)
            cone[at] = np.packbits(np.greater_equal(scores, _COS_CONE, out=bools))

    _by_chunks(dirs.n, 2, fill)
    return masks


def admissible_indices(kind: RelationKind, direction: np.ndarray,
                       dirs: DirectionSet) -> np.ndarray:
    """Boolean ``(n,)`` mask of the samples admissible under one contact.

    plane_contact / congruent: the half space on the separation side of the
    contact plane, boundary included.  concentric: translation only along the
    joint axis, either way, within EPS_CONE.  screwed: nothing; the thread
    blocks translation until a twist converts the joint.  The mask is a fresh
    writable array and ignores ``dirs.mask``; numpy accepts it as an index.

    The mask is one of the memo kernel's (``_score_pass``) packed masks,
    unpacked, but this function neither reads nor fills the memo.
    """
    if kind is RelationKind.SCREWED:
        return np.zeros(dirs.n, dtype=bool)
    [(half, _, cone)] = _score_pass(dirs, [np.asarray(direction, dtype=float)])
    packed = cone if kind is RelationKind.CONCENTRIC else half
    return np.unpackbits(packed, count=dirs.n).view(bool)


def intersect_spaces(index_sets: list[np.ndarray], dirs: DirectionSet) -> DirectionSet:
    """AND of per-contact admissible masks with the initial direction set.

    The inputs and ``dirs.mask`` are left unmodified.
    """
    mask = dirs.mask.copy()
    for idx in index_sets:
        mask &= idx
    return dirs._owning(mask)


def _fill_memo(directions: list[np.ndarray], dirs: DirectionSet) -> list[tuple]:
    """Score, in one pass, every line of ``directions`` the memo lacks, and
    return the memo entries of ``directions``, in order.

    A line, a direction up to sign, is one job of the pass, scored against
    the first of its directions d asked for: its three masks give the entry
    ``(d's half, cone)`` of d and ``(-d's half, cone)`` of -d.  The entries
    go to the memo only once the whole pass has succeeded.
    """
    directions = [np.asarray(d, dtype=float) for d in directions]
    lines, pending = [], set()
    for d in directions:
        if d.tobytes() not in dirs._memo and d.tobytes() not in pending:
            pending.update((d.tobytes(), (-d).tobytes()))
            lines.append(d)
    if lines:
        for d, (half, opposite, cone) in zip(lines, _score_pass(dirs, lines)):
            dirs._memo[d.tobytes()] = (half, cone)
            dirs._memo[(-d).tobytes()] = (opposite, cone)
    return [dirs._memo[d.tobytes()] for d in directions]


def space_from_contacts(contacts: list[tuple[RelationKind, np.ndarray]],
                        dirs: DirectionSet) -> DirectionSet:
    """Aggregate space for pre-oriented (kind, direction) contact predicates.

    A screwed contact makes the space empty, and nothing is scored.
    Otherwise the lines missing from the sphere's memo are scored in one
    pass, so a line already scored on this sphere, for either side and
    either kind, is not scored again.  Each contact takes its side's cone
    entry if it is concentric and its half-space entry if not; the packed
    entries are ANDed, unpacked once and ANDed with ``dirs.mask`` into a mask
    the returned set owns.
    """
    if any(kind is RelationKind.SCREWED for kind, _ in contacts):
        return dirs._owning(np.zeros(dirs.n, dtype=bool))
    if not contacts:
        return dirs._owning(dirs.mask.copy())
    entries = _fill_memo([d for _, d in contacts], dirs)
    packed = reduce(np.bitwise_and, [entry[kind is RelationKind.CONCENTRIC]
                                     for (kind, _), entry in zip(contacts, entries)])
    mask = np.unpackbits(packed, count=dirs.n).view(bool)
    mask &= dirs.mask
    return dirs._owning(mask)


NEAR_TIE_MARGIN = 1e-3  # below lattice resolution at the default sample count


def best_direction(contacts: list[tuple[RelationKind, np.ndarray]],
                   dirs: DirectionSet) -> np.ndarray | None:
    """Extraction direction maximizing the minimum clearance margin, or None
    if the space of the pre-oriented (kind, direction) contacts is empty.

    Margin per contact: distance of the direction score from the edge of the
    contact's admissible set, s for a half space and |s| - cos(EPS_CONE) for
    a cone (the tests of ``_score_pass``).  Candidates whose margins
    differ by less than the lattice resolution count as tied; ties prefer the
    direction best aligned with the contacts' summed directions, then the
    lowest sample index.
    """
    space = space_from_contacts(contacts, dirs)
    if space.is_empty():
        return None
    idx = np.flatnonzero(space.mask)
    if not contacts:
        return dirs.directions[idx[0]].copy()
    margins = np.full(idx.size, np.inf)
    cand = dirs.directions[idx]
    outward = np.zeros(3)
    for kind, d in contacts:
        outward += d
        scores = cand @ d
        if kind is RelationKind.CONCENTRIC:
            scores = np.abs(scores) - _COS_CONE
        margins = np.minimum(margins, scores)
    pool = np.flatnonzero(margins >= margins.max() - NEAR_TIE_MARGIN)
    if np.linalg.norm(outward) > 1e-12:
        align = cand[pool] @ (outward / np.linalg.norm(outward))
        best = pool[int(np.argmax(align))]  # first (lowest) index wins exact ties
    else:
        best = pool[0]
    return cand[best].copy()


def disassembly_space(model: AssemblyModel, component_id: str,
                      dirs: DirectionSet) -> DirectionSet:
    """Full extraction space of a component: intersection over all contacts.

    Every line of the model's relations the memo lacks is scored first, in
    one pass, so the spaces of all its components cost one pass per sphere.
    An unknown component raises before anything is scored.
    """
    contacts = contacts_of(model, component_id)
    _fill_memo([r.direction for r in model.relations], dirs)
    oriented = [(r.kind, oriented_direction(r, component_id)) for r in contacts]
    return space_from_contacts(oriented, dirs)


# ------------------------------------------------------- classification

class Mobility(str, Enum):
    FIX = "fix"
    LIN = "lin"
    FITS = "fits"
    AGPP = "agpp"
    FREE = "free"


_AXIS_VALUES = (Mobility.LIN, Mobility.FITS)


@dataclass(frozen=True)
class MobilityLabel:
    """Symbolic mobility of a component pair.

    ``axis`` carries the translation axis for lin/fits.  ``rot_axis`` records
    symbolically free rotation derived from screwed/concentric contacts; it
    may accompany any value, so a screwed pair reads as fix with a live
    rotation axis.
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
                object.__setattr__(self, name, frozen_copy(v, (3,), name))


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


def classify_sdof(space: DirectionSet,
                  contacts: list[SpatialRelation]) -> MobilityLabel:
    """Map a computed space plus its contact kinds to a mobility label.

    Rotational freedom is never read off the sampled (purely translational)
    sphere: it is attached symbolically, about the first screwed or
    concentric contact's direction, whenever such a contact is present.

    The cone probes are read through strided views, so no full-size array is
    copied, and decide only whether the principal-axis pass runs, never the
    label.
    """
    rot_axis = next((r.direction for r in contacts if r.kind in AXIAL_KINDS), None)

    if space.is_empty():
        return MobilityLabel(Mobility.FIX, rot_axis=rot_axis)
    if space.is_full():
        return MobilityLabel(Mobility.FREE)

    # two probes too far apart for one cone rule out every axis, so the
    # principal-axis pass over all members is needed only when none are
    step = max(1, space.n // 256)
    probe = space.directions[::step][space.mask[::step]]
    if np.all(np.abs(probe @ probe.T) >= _PAIR_DOT_MIN):
        members = space.directions[np.flatnonzero(space.mask)]
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
    Every line of the model's relations the memo lacks is scored in one pass
    before the first space.
    """
    _fill_memo([r.direction for r in model.relations], dirs)
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
