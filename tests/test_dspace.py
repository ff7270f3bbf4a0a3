import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (brute_force_space, random_contact_model, random_unit,
                      sorted_set_space)

from dismantle import dspace
from dismantle.dspace import (CONE_SLACK, EPS_ANG, EPS_CONE, DirectionSet,
                              Mobility, MobilityLabel, _principal_axis,
                              admissible_indices, build_graph, classify_sdof,
                              disassembly_space, intersect_spaces,
                              oriented_direction, sample_sphere,
                              space_from_contacts)
from dismantle.errors import DegenerateSpace, UnknownComponent
from dismantle.geometry import quat_matrix, random_rotation
from dismantle.model import (AXIAL_KINDS, FeatureGeometry, GeometryKind,
                             RelationKind, SpatialRelation)


def _relation(kind, direction, pair=("a", "b")):
    geo_kind = (GeometryKind.PLANE
                if kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT)
                else GeometryKind.CYLINDER)
    direction = np.asarray(direction, dtype=float)
    return SpatialRelation(kind=kind, components=pair,
                           geometry=FeatureGeometry(kind=geo_kind,
                                                    direction=direction),
                           direction=direction.copy())


# ---------------------------------------------------------------- sampling

def test_sample_single_direction():
    ds = sample_sphere(1, seed=3)
    assert ds.directions.shape == (1, 3)
    assert ds.mask.tolist() == [True]
    assert abs(np.linalg.norm(ds.directions[0]) - 1.0) < 1e-9


def test_sample_unit_norm_and_full_mask(dirs10k):
    norms = np.linalg.norm(dirs10k.directions, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)
    assert dirs10k.mask.all()


def test_sample_hemisphere_balance(dirs10k):
    # uniform measure: half the directions on either side of any plane
    frac = np.count_nonzero(dirs10k.directions[:, 2] >= 0.0) / dirs10k.n
    assert abs(frac - 0.5) <= 0.02


def test_sample_centroid_near_zero(dirs10k):
    assert np.linalg.norm(dirs10k.directions.mean(axis=0)) <= 0.05


def test_sample_deterministic():
    a = sample_sphere(500, seed=42)
    b = sample_sphere(500, seed=42)
    c = sample_sphere(500, seed=43)
    assert np.array_equal(a.directions, b.directions)
    assert not np.allclose(a.directions, c.directions)


# ---------------------------------------------------------------- chunks

C = dspace._CHUNK


GOLDEN = np.pi * (3.0 - np.sqrt(5.0))


def _rotation(seed):
    return quat_matrix(random_rotation(np.random.default_rng(seed)))


def _rotated(lattice, rot):
    """``rot @ lattice`` as rows, not normalised, as sample_sphere returns it."""
    return (rot @ lattice).T


def _per_row_lattice(n):
    """The Fibonacci lattice with every azimuth golden * i evaluated on its
    own, in one full-size pass, as sample_sphere built it before the angle
    addition."""
    theta = np.arange(n, dtype=float)
    lattice = np.empty((3, n))
    x, y, z = lattice
    np.add(theta, 0.5, out=z)
    z *= 2.0
    z /= n
    np.subtract(1.0, z, out=z)
    np.multiply(z, z, out=y)
    np.subtract(1.0, y, out=y)
    np.clip(y, 0.0, None, out=y)
    np.sqrt(y, out=y)
    theta *= GOLDEN
    np.cos(theta, out=x)
    x *= y
    np.sin(theta, out=theta)
    y *= theta
    return lattice


def _sphere_oracle(n, seed):
    """sample_sphere with the lattice [r cos(golden * k), r sin(golden * k), z]
    built in one full-size pass, k = i - lo in the chunk that starts at lo,
    and each chunk rotated by rot Rz(golden * lo), the product of the two
    3x3 matrices written out term by term in float arithmetic."""
    i = np.arange(n)
    chunks = max(1, -(-(n - 1) // C))
    lo = np.minimum(i // C, chunks - 1) * C
    k = (i - lo).astype(float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(1.0 - z * z)
    lattice = np.stack([np.cos(k * GOLDEN) * r, np.sin(k * GOLDEN) * r, z])
    starts = np.arange(chunks) * float(C)
    rot = _rotation(seed).tolist()
    parts = []
    for j, (ca, sa) in enumerate(zip(np.cos(starts * GOLDEN).tolist(),
                                      np.sin(starts * GOLDEN).tolist())):
        turn = [[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]]
        turned = np.array([[sum(rot[a][m] * turn[m][b] for m in range(3))
                            for b in range(3)] for a in range(3)])
        end = n if j == chunks - 1 else (j + 1) * C
        parts.append(_rotated(lattice[:, j * C:end], turned))
    return np.concatenate(parts)


@pytest.mark.parametrize("n", [1, 2, 500, 2000, 10_000, C, C + 1])
def test_one_chunk_sphere_equals_per_row_formula(n):
    """Chunk 0's turn is by cos 0 = 1 and sin 0 = 0 and leaves the rotation
    as it is, so a sphere of one chunk keeps the bytes of the row-by-row
    azimuths."""
    for seed in (0, 7, 2024):
        want = _rotated(_per_row_lattice(n), _rotation(seed))
        assert sample_sphere(n, seed).directions.tobytes() == want.tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="longdouble has only float64 precision here")
def test_angle_addition_no_less_accurate_than_per_row_azimuths(monkeypatch):
    """At 1M rows, the lattice's cos and sin of the azimuths err from a
    longdouble reference no more than the row-by-row float64 azimuths do:
    the float64 rounding of golden * i sets both."""
    n = 1_000_000
    monkeypatch.setattr(dspace, "random_rotation",
                        lambda rng: np.array([1.0, 0.0, 0.0, 0.0]))
    i = np.arange(n, dtype=np.longdouble)
    azimuth = i * np.longdouble(GOLDEN)
    z = 1 - (2 * i + 1) / n
    r = np.sqrt(1 - z * z)
    cos_ref, sin_ref = np.cos(azimuth), np.sin(azimuth)

    def worst(pts):
        return float(max(np.abs(pts[:, 0] / r - cos_ref).max(),
                         np.abs(pts[:, 1] / r - sin_ref).max()))

    new = worst(sample_sphere(n).directions)
    old = worst(_rotated(_per_row_lattice(n), np.eye(3)))
    assert new <= old < 3e-10


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="longdouble has only float64 precision here")
@pytest.mark.parametrize("n", [1, 2, 3, 500, 2000, 10_000, C, C + 1, C + 2,
                               100_003, 1_000_000])
def test_sphere_rows_are_unit_without_normalisation(n):
    """No pass divides a row by its norm: the lattice rows are unit and the
    rotation is orthonormal, so the rows' longdouble norms are 1 within
    4 eps.  The worst measured over these sizes and seeds is 2.70 eps."""
    eps = np.finfo(float).eps
    for seed in range(12):
        d = sample_sphere(n, seed).directions.astype(np.longdouble)
        norm = np.sqrt(np.einsum("ij,ij->i", d, d))
        assert float(np.abs(norm - 1).max()) <= 4 * eps, seed


def _admissible_oracle(kind, direction, dirs):
    """admissible_indices as one full-size product, as it was before chunking."""
    scores = dirs.directions @ np.asarray(direction, dtype=float)
    if kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT):
        return scores >= -EPS_ANG
    return np.abs(scores) >= np.cos(EPS_CONE)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, 2, C - 1, C, C + 1, 2 * C + 1, 3 * C + 7])
def test_chunked_kernels_equal_one_pass_oracle(monkeypatch, n, workers):
    monkeypatch.setattr(dspace, "_usable_cpus", lambda: workers)
    rng = np.random.default_rng(n)
    for seed in (0, 7, 2024):
        dirs = sample_sphere(n, seed)
        assert dirs.directions.tobytes() == _sphere_oracle(n, seed).tobytes()
        # the sphere's own (3, n)-block layout, and the row-major copy a
        # caller may pass
        rows = DirectionSet(np.ascontiguousarray(dirs.directions), dirs.mask)
        for ds in (dirs, rows):
            for d in (random_unit(rng), random_unit(rng)):
                for kind in (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT,
                             RelationKind.CONCENTRIC):
                    got = admissible_indices(kind, d, ds)
                    assert got.tobytes() == _admissible_oracle(kind, d, ds).tobytes()
                    assert got.flags.writeable
            # admissible_indices neither reads nor fills the memo
            assert ds._memo == {}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, C, C + 1, 2 * C + 1, 3 * C + 7])
def test_by_chunks_bounds_and_shares(monkeypatch, n, workers):
    monkeypatch.setattr(dspace, "_usable_cpus", lambda: workers)
    calls = []

    def fill(buf, lo, hi):
        assert buf.shape == (2, hi - lo)
        calls.append((lo, hi, threading.current_thread()))

    dspace._by_chunks(n, 2, fill)
    bounds = sorted((lo, hi) for lo, hi, _ in calls)
    starts = [lo for lo, _ in bounds]
    assert starts == list(range(0, max(n - 1, 1), C))
    assert [hi for _, hi in bounds] == starts[1:] + [n]
    # no chunk is a lone row: numpy scores one row with another BLAS routine
    assert all(hi - lo >= min(n, 2) for lo, hi in bounds)
    shares = min(workers, len(bounds))
    for lo, _, thread in calls:
        on_main = thread is threading.main_thread()
        assert on_main == ((lo // C) % shares == 0), (lo, thread)
    assert len({thread for _, _, thread in calls}) == shares


def test_by_chunks_reraises_a_worker_error_after_joining(monkeypatch):
    monkeypatch.setattr(dspace, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    done = []

    def fill(buf, lo, hi):
        if hi == 4 * C:
            assert threading.current_thread() is not threading.main_thread()
            raise MemoryError("last chunk")
        done.append(lo)

    with pytest.raises(MemoryError, match="last chunk"):
        dspace._by_chunks(4 * C, 1, fill)
    assert sorted(done) == [0, C, 2 * C]
    assert threading.active_count() == before


def test_sample_sphere_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(dspace, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    dirs = sample_sphere(3 * C + 7, 5)
    admissible_indices(RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0]), dirs)
    assert threading.active_count() == before


def test_concurrent_spheres_are_identical(monkeypatch):
    # four callers with a worker each: eight threads, more than a small host
    # has cores; a chunk written to the wrong block or through another
    # share's scratch would change some caller's bytes
    monkeypatch.setattr(dspace, "_usable_cpus", lambda: 2)
    start = threading.Barrier(4, timeout=60)
    spheres = [None] * 4

    def sample(k):
        start.wait()
        spheres[k] = sample_sphere(200_000, 7).directions.tobytes()

    threads = [threading.Thread(target=sample, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert spheres == [sample_sphere(200_000, 7).directions.tobytes()] * 4


# ---------------------------------------------------------------- contacts

def _space_of(relation, dirs, component_id="a"):
    """Admissible directions under one contact, for one side of its pair."""
    return space_from_contacts(
        [(relation.kind, oriented_direction(relation, component_id))], dirs)


def test_plane_contact_hemisphere(dirs10k):
    rel = _relation(RelationKind.PLANE_CONTACT, [0, 0, 1])
    space = _space_of(rel, dirs10k)
    assert abs(space.fraction() - 0.5) <= 0.02


def test_screwed_blocks_everything(dirs10k):
    rel = _relation(RelationKind.SCREWED, [0, 0, 1])
    assert _space_of(rel, dirs10k).is_empty()


def test_concentric_cap_measure(dirs10k):
    rel = _relation(RelationKind.CONCENTRIC, [1, 0, 0])
    frac = _space_of(rel, dirs10k).fraction()
    expected = 1.0 - np.cos(EPS_CONE)  # two caps, each (1-cos eps)/2 of the sphere
    assert abs(frac - expected) <= 0.002


def test_single_contact_orientation_flips_for_second_component(dirs10k):
    rel = _relation(RelationKind.PLANE_CONTACT, [0, 0, 1])
    up = _space_of(rel, dirs10k, "a")
    down = _space_of(rel, dirs10k, "b")
    # the two sides separate in opposite half spaces
    assert abs(up.fraction() - 0.5) <= 0.02
    assert abs(down.fraction() - 0.5) <= 0.02
    overlap = np.count_nonzero(up.mask & down.mask) / dirs10k.n
    assert overlap <= 0.01


def _boundary_dirs():
    """Rows whose score against +z sits on, and one ulp either side of, each
    admissible boundary; the mask excludes the last row."""
    c = np.cos(EPS_CONE)
    z = np.array([-EPS_ANG, np.nextafter(-EPS_ANG, -1.0), np.nextafter(-EPS_ANG, 1.0),
                  c, np.nextafter(c, 0.0), np.nextafter(c, 2.0),
                  -c, np.nextafter(-c, 0.0), np.nextafter(-c, -2.0)])
    rows = np.column_stack([np.sqrt(1.0 - z * z), np.zeros_like(z), z])
    mask = np.ones(len(z), dtype=bool)
    mask[-1] = False
    return DirectionSet(rows, mask)


def test_admissible_boundaries_inclusive_and_mask_contract():
    dirs = _boundary_dirs()
    up = np.array([0.0, 0.0, 1.0])
    assert np.array_equal(dirs.directions @ up, dirs.directions[:, 2])
    half = [True, False, True, True, True, True, False, False, False]
    cone = [False, False, False, True, False, True, True, False, True]
    expected = {RelationKind.PLANE_CONTACT: half, RelationKind.CONGRUENT: half,
                RelationKind.CONCENTRIC: cone, RelationKind.SCREWED: [False] * dirs.n}
    for kind, want in expected.items():
        got = admissible_indices(kind, up, dirs)
        assert got.dtype == bool and got.shape == (dirs.n,), kind
        assert got.flags.writeable, kind
        assert got.tolist() == want, kind


def test_intersect_spaces_leaves_inputs_unmodified():
    dirs = _boundary_dirs()
    up = np.array([0.0, 0.0, 1.0])
    sets = [admissible_indices(RelationKind.PLANE_CONTACT, up, dirs),
            admissible_indices(RelationKind.CONCENTRIC, up, dirs)]
    before = [m.copy() for m in sets]
    base = dirs.mask.copy()
    space = intersect_spaces(sets, dirs)
    assert space.mask.tolist() == [False] * 3 + [True, False, True] + [False] * 3
    for m, b in zip(sets, before):
        assert np.array_equal(m, b)
    assert np.array_equal(dirs.mask, base)
    assert np.array_equal(intersect_spaces([], dirs).mask, base)


# ---------------------------------------------------------------- spaces

def test_no_contacts_full_sphere(dirs10k):
    # a loose part in a partially dismantled model keeps the whole sphere
    from dismantle.model import AssemblyModel, Component, Semantic
    m = AssemblyModel(
        components=(Component(id="base", semantic=Semantic.BASE),
                    Component(id="loose", semantic=Semantic.GENERIC_GRASPABLE)),
        relations=())
    space = disassembly_space(m, "loose", dirs10k)
    assert space.is_full()


def test_two_orthogonal_planes_quarter_sphere(dirs10k):
    contacts = [(RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0])),
                (RelationKind.PLANE_CONTACT, np.array([1.0, 0.0, 0.0]))]
    space = space_from_contacts(contacts, dirs10k)
    assert abs(space.fraction() - 0.25) <= 0.02


def test_screwed_component_blocked(valve_model, dirs10k):
    assert disassembly_space(valve_model, "screw_1", dirs10k).is_empty()
    assert disassembly_space(valve_model, "valve_body", dirs10k).is_empty()


def test_unknown_component_raises(valve_model, dirs10k):
    with pytest.raises(UnknownComponent):
        disassembly_space(valve_model, "ghost", dirs10k)


def test_sorted_path_matches_brute_force(dirs2k):
    """The mask path matches both the brute-force and the sorted-set oracle."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        model = random_contact_model(rng)
        for comp in model.components:
            got = disassembly_space(model, comp.id, dirs2k)
            assert np.array_equal(got.mask,
                                  brute_force_space(model, comp.id, dirs2k)), comp.id
            assert np.array_equal(got.mask,
                                  sorted_set_space(model, comp.id, dirs2k)), comp.id


def test_monotonicity_adding_contact_never_adds_directions(dirs2k):
    from dismantle.dspace import space_from_contacts
    rng = np.random.default_rng(11)
    kinds = [RelationKind.PLANE_CONTACT, RelationKind.CONCENTRIC,
             RelationKind.CONGRUENT]
    for _ in range(50):
        contacts = [(kinds[int(rng.integers(0, 3))], random_unit(rng))
                    for _ in range(int(rng.integers(1, 5)))]
        base = space_from_contacts(contacts[:-1], dirs2k)
        more = space_from_contacts(contacts, dirs2k)
        assert np.all(~more.mask | base.mask)  # more.mask subset of base.mask


def test_determinism_model_level(valve_model):
    a = disassembly_space(valve_model, "hose", sample_sphere(4000, 5))
    b = disassembly_space(valve_model, "hose", sample_sphere(4000, 5))
    assert np.array_equal(a.mask, b.mask)


# ---------------------------------------------------------------- memo

def _six_style_stack():
    """A base plus six parts stacked along a tilted axis, one per joint style:
    screwed, plane_contact, concentric + plane_contact, plane_contact on the
    axis and on a side wall, congruent, and concentric."""
    from dismantle.model import AssemblyModel, Component, Semantic
    axis = np.array([0.3, -0.2, 1.0]) / np.linalg.norm([0.3, -0.2, 1.0])
    side = np.cross(axis, [1.0, 0.0, 0.0])
    side /= np.linalg.norm(side)
    styles = [[(RelationKind.SCREWED, axis)],
              [(RelationKind.PLANE_CONTACT, axis)],
              [(RelationKind.CONCENTRIC, axis), (RelationKind.PLANE_CONTACT, axis)],
              [(RelationKind.PLANE_CONTACT, axis), (RelationKind.PLANE_CONTACT, side)],
              [(RelationKind.CONGRUENT, axis)],
              [(RelationKind.CONCENTRIC, axis)]]
    components = [Component(id="base", semantic=Semantic.BASE)]
    relations = []
    for j, joints in enumerate(styles):
        cid, below = f"p{j}", components[-1].id
        components.append(Component(id=cid, semantic=Semantic.GENERIC_GRASPABLE))
        relations += [_relation(kind, d, (cid, below)) for kind, d in joints]
    return AssemblyModel(components=tuple(components), relations=tuple(relations))


def _label_bits(label):
    return (label.value, *(None if v is None else v.tobytes()
                           for v in (label.axis, label.rot_axis)))


@pytest.mark.parametrize("which", ["valve", "stack"])
def test_warm_memo_changes_nothing(valve_model, which):
    model = valve_model if which == "valve" else _six_style_stack()
    ids = [c.id for c in model.components]
    n, seed = 100_000, 3

    cold = {cid: disassembly_space(model, cid, sample_sphere(n, seed)).mask
            for cid in ids}
    cold_graph = build_graph(model, sample_sphere(n, seed))

    warm = sample_sphere(n, seed)
    for cid in reversed(ids):
        disassembly_space(model, cid, warm)
    assert warm._memo
    for cid in ids:
        assert np.array_equal(disassembly_space(model, cid, warm).mask, cold[cid]), cid
    graph = build_graph(model, warm)
    assert graph.edges.keys() == cold_graph.edges.keys()
    for pair, label in graph.edges.items():
        assert _label_bits(label) == _label_bits(cold_graph.edges[pair]), pair

    # the memo belongs to one sphere: derived sets share it, new sets do not
    assert space_from_contacts([], warm)._memo is warm._memo
    # the sphere's read-only sample is kept, not copied
    assert space_from_contacts([], warm).directions is warm.directions
    assert not warm.directions.base.flags.writeable
    assert DirectionSet(warm.directions, warm.mask)._memo == {}


def _count_passes(monkeypatch):
    """Patch the scoring kernel to record the number of jobs of each pass."""
    passes = []
    score_pass = dspace._score_pass

    def counted(dirs, jobs):
        passes.append(len(jobs))
        return score_pass(dirs, jobs)

    monkeypatch.setattr(dspace, "_score_pass", counted)
    return passes


def test_memo_scores_each_contact_once(monkeypatch, valve_model):
    passes = _count_passes(monkeypatch)
    dirs = sample_sphere(1001, seed=0)
    first = disassembly_space(valve_model, "hose", dirs)
    assert passes
    passes.clear()
    second = disassembly_space(valve_model, "hose", dirs)
    assert passes == []
    assert np.array_equal(first.mask, second.mask)
    assert dirs._memo
    for entry in dirs._memo.values():
        assert len(entry) == 2
        for packed in entry:
            assert packed.dtype == np.uint8 and packed.shape == (-(-dirs.n // 8),)


def test_cone_memo_serves_the_opposite_axis(monkeypatch):
    passes = _count_passes(monkeypatch)
    dirs = sample_sphere(100_000, seed=2)
    rng = np.random.default_rng(5)
    for axis in [np.array([0.0, 0.0, 1.0])] + [random_unit(rng) for _ in range(5)]:
        passes.clear()
        space_from_contacts([(RelationKind.CONCENTRIC, axis)], dirs)
        got = space_from_contacts([(RelationKind.CONCENTRIC, -axis)], dirs).mask
        assert len(passes) == 1
        assert np.array_equal(got, admissible_indices(RelationKind.CONCENTRIC,
                                                      -axis, dirs))


@pytest.mark.parametrize("kind", [RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT])
def test_half_memo_serves_the_opposite_side(monkeypatch, kind):
    passes = _count_passes(monkeypatch)
    dirs = sample_sphere(100_000, seed=2)
    rng = np.random.default_rng(6)
    for d in [np.array([0.0, 0.0, 1.0])] + [random_unit(rng) for _ in range(5)]:
        passes.clear()
        space_from_contacts([(RelationKind.PLANE_CONTACT, d)], dirs)
        got = space_from_contacts([(kind, -d)], dirs).mask
        assert passes == [1]
        assert got.tobytes() == admissible_indices(RelationKind.PLANE_CONTACT,
                                                   -d, dirs).tobytes()


def test_one_pass_scores_each_missing_contact_once(monkeypatch):
    passes = _count_passes(monkeypatch)
    dirs = sample_sphere(1000, seed=1)
    up, east = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    contacts = [(RelationKind.PLANE_CONTACT, up), (RelationKind.CONGRUENT, -up),
                (RelationKind.CONCENTRIC, east), (RelationKind.CONCENTRIC, -east),
                (RelationKind.PLANE_CONTACT, up)]
    space_from_contacts(contacts, dirs)
    # one pass with one job for each of the two lines; -up and -east come free
    assert passes == [2]
    assert len(dirs._memo) == 4
    passes.clear()
    # east's line was scored for its cone; the same job wrote -east's half
    space_from_contacts([(RelationKind.PLANE_CONTACT, -east), *contacts], dirs)
    assert passes == []
    # a screwed contact empties the space before anything is scored
    passes.clear()
    north = np.array([0.0, 1.0, 0.0])
    space = space_from_contacts([(RelationKind.PLANE_CONTACT, north),
                                 (RelationKind.SCREWED, up)], dirs)
    assert passes == [] and space.is_empty()
    assert north.tobytes() not in dirs._memo


@pytest.mark.parametrize("which, lines", [("valve", 1), ("stack", 2)])
@pytest.mark.parametrize("graph_first", [False, True], ids=["spaces_first", "graph_first"])
def test_one_pass_per_model_and_sphere(monkeypatch, valve_model, which, lines,
                                       graph_first):
    """The first space or graph on a fresh sphere scores the whole model in
    one pass of one job per line (the valve's axis; the stack's axis and
    side wall), and nothing on that sphere scores again."""
    model = valve_model if which == "valve" else _six_style_stack()
    passes = _count_passes(monkeypatch)
    dirs = sample_sphere(3001, seed=4)

    def spaces():
        for c in model.components:
            disassembly_space(model, c.id, dirs)

    def graph():
        build_graph(model, dirs)

    first, second = (graph, spaces) if graph_first else (spaces, graph)
    first()
    assert passes == [lines]
    passes.clear()
    second()
    first()
    assert passes == []


def test_unknown_component_scores_nothing(monkeypatch, valve_model):
    passes = _count_passes(monkeypatch)
    dirs = sample_sphere(1001, seed=0)
    with pytest.raises(UnknownComponent):
        disassembly_space(valve_model, "ghost", dirs)
    assert passes == [] and dirs._memo == {}


EDGE_SIZES = [1, 7, 8, 9, C - 1, C, C + 1, C + 2, 2 * C + 9, 100_003]
_KINDS = (RelationKind.PLANE_CONTACT, RelationKind.CONGRUENT,
          RelationKind.CONCENTRIC)


def _assert_memo_equals_oracle(dirs, lines):
    """Both memo entries of each line, d's and -d's, hold the packed oracle
    of that side's half space and of the line's cone."""
    for d in lines:
        for side in (d, -d):
            half, cone = dirs._memo[side.tobytes()]
            for kind, got in ((RelationKind.PLANE_CONTACT, half),
                              (RelationKind.CONCENTRIC, cone)):
                want = np.packbits(_admissible_oracle(kind, side, dirs))
                assert got.tobytes() == want.tobytes(), (kind, dirs.n)


def _oracle_space(contacts, dirs):
    """The AND of the one-pass oracle masks with ``dirs.mask``."""
    mask = dirs.mask.copy()
    for kind, d in contacts:
        if kind is RelationKind.SCREWED:
            mask[:] = False
        else:
            mask &= _admissible_oracle(kind, d, dirs)
    return mask


@pytest.mark.parametrize("one_cpu", [True, False], ids=["one_cpu", "usable_cpus"])
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_memo_entries_equal_packed_oracle_at_chunk_and_byte_edges(monkeypatch, n,
                                                                  one_cpu):
    if one_cpu:
        monkeypatch.setattr(dspace, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(n)
    dirs = sample_sphere(n, seed=n % 11)
    for d in (random_unit(rng), random_unit(rng)):
        half, cone = random_unit(rng), random_unit(rng)
        space_from_contacts([(RelationKind.PLANE_CONTACT, half),
                             (RelationKind.CONCENTRIC, cone)], dirs)
        _assert_memo_equals_oracle(dirs, (half, cone))

    # a set over the sphere's sample and memo, as a space is
    derived = dirs._owning(rng.random(n) < 0.7)
    for _ in range(12):
        contacts = [(_KINDS[int(rng.integers(0, 3))], random_unit(rng))
                    for _ in range(int(rng.integers(1, 5)))]
        if rng.random() < 0.25:
            contacts.insert(int(rng.integers(0, len(contacts) + 1)),
                            (RelationKind.SCREWED, random_unit(rng)))
        space = space_from_contacts(contacts, derived)
        assert space.mask.dtype == bool and not space.mask.flags.writeable
        assert space.mask.tobytes() == _oracle_space(contacts, derived).tobytes()
        assert space._memo is dirs._memo


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_half_and_cone_on_one_line_share_a_job(monkeypatch, n):
    """A half test and a cone test on one line run as one job of one pass,
    scored against the first direction asked for, the cone's test on |s|
    after the half tests on s, and every memo entry equals the packed
    oracle."""
    jobs = []
    score_pass = dspace._score_pass

    def recorded(dirs, lines):
        jobs.append([d.tobytes() for d in lines])
        return score_pass(dirs, lines)

    monkeypatch.setattr(dspace, "_score_pass", recorded)
    rng = np.random.default_rng(n + 1)
    dirs = sample_sphere(n, seed=n % 5)
    d = random_unit(rng)
    space_from_contacts([(RelationKind.CONCENTRIC, -d), (RelationKind.PLANE_CONTACT, d)],
                        dirs)
    assert jobs == [[(-d).tobytes()]]
    assert dirs._memo.keys() == {d.tobytes(), (-d).tobytes()}
    # one cone mask serves both sides
    assert dirs._memo[d.tobytes()][1] is dirs._memo[(-d).tobytes()][1]
    _assert_memo_equals_oracle(dirs, [d])


def test_memo_entries_at_the_admissible_boundaries():
    """Both sides of each memo entry equal the oracle on rows whose score
    sits on, and one ulp either side of, every boundary of d and of -d."""
    c = np.cos(EPS_CONE)
    z = np.concatenate([[np.nextafter(b, -2.0), b, np.nextafter(b, 2.0)]
                        for b in (EPS_ANG, -EPS_ANG, c, -c)])
    rows = np.column_stack([np.sqrt(1.0 - z * z), np.zeros_like(z), z])
    for up in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])):
        for asked in (RelationKind.PLANE_CONTACT, RelationKind.CONCENTRIC):
            dirs = DirectionSet(rows, np.ones(len(z), dtype=bool))
            space_from_contacts([(asked, up)], dirs)
            _assert_memo_equals_oracle(dirs, [up])
            for side in (up, -up):
                for kind in (RelationKind.PLANE_CONTACT, RelationKind.CONCENTRIC):
                    assert (_admissible_oracle(kind, side, dirs).tolist()
                            == admissible_indices(kind, side, dirs).tolist()), (kind, side)


def test_failed_pass_leaves_no_memo_entry(monkeypatch):
    monkeypatch.setattr(dspace, "_usable_cpus", lambda: 2)
    n = 3 * C + 7
    dirs = sample_sphere(n, seed=9)
    rng = np.random.default_rng(9)
    kept = random_unit(rng)
    space_from_contacts([(RelationKind.PLANE_CONTACT, kept)], dirs)
    before = dict(dirs._memo)
    contacts = [(RelationKind.PLANE_CONTACT, kept),
                (RelationKind.CONGRUENT, random_unit(rng)),
                (RelationKind.CONCENTRIC, random_unit(rng))]
    chunked = dspace._by_chunks

    def worker_chunk_fails(n, rows, fill):
        def failing(buf, lo, hi):
            if lo == C:  # share 1's first chunk, on the worker thread
                raise MemoryError("mid-pass")
            fill(buf, lo, hi)
        chunked(n, rows, failing)

    monkeypatch.setattr(dspace, "_by_chunks", worker_chunk_fails)
    with pytest.raises(MemoryError, match="mid-pass"):
        space_from_contacts(contacts, dirs)
    assert dirs._memo.keys() == before.keys()
    assert all(dirs._memo[k] is v for k, v in before.items())

    monkeypatch.setattr(dspace, "_by_chunks", chunked)
    space = space_from_contacts(contacts, dirs)
    assert space.mask.tobytes() == _oracle_space(contacts, dirs).tobytes()
    _assert_memo_equals_oracle(dirs, [d for _, d in contacts[1:]])


def _read_only_view(a):
    v = a.view()
    v.flags.writeable = False
    return v


@pytest.mark.parametrize("given", [lambda a: a, _read_only_view],
                         ids=["writeable", "read_only_view"])
def test_directions_insulated_from_caller_array(given):
    caller = sample_sphere(1000, seed=4).directions.copy()
    kept = caller.copy()
    dirs = DirectionSet(given(caller), np.ones(len(caller), dtype=bool))
    assert not dirs.directions.flags.writeable
    contacts = [(RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0])),
                (RelationKind.CONCENTRIC, np.array([1.0, 0.0, 0.0]))]
    before = space_from_contacts(contacts, dirs).mask
    caller[:, 2] *= -1.0
    caller[:, 0] = 0.0
    assert np.array_equal(dirs.directions, kept)
    assert np.array_equal(space_from_contacts(contacts, dirs).mask, before)
    fresh = DirectionSet(kept, np.ones(len(kept), dtype=bool))
    assert np.array_equal(space_from_contacts(contacts, fresh).mask, before)


def test_mask_insulated_from_caller_array():
    dirs = sample_sphere(1000, seed=4)
    contacts = [(RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0]))]
    before = space_from_contacts(contacts, dirs).mask
    caller = np.ones(dirs.n, dtype=bool)
    held = DirectionSet(dirs.directions, caller)
    assert not held.mask.flags.writeable
    caller[:] = False
    assert held.is_full()
    # a float 0/1 mask is kept as bool, so the contacts still AND into it
    as_float = DirectionSet(dirs.directions, np.ones(dirs.n))
    assert as_float.mask.dtype == bool
    assert np.array_equal(space_from_contacts(contacts, as_float).mask, before)


def test_space_keeps_its_unpacked_mask_without_a_copy():
    dirs = sample_sphere(1000, seed=4)
    space = space_from_contacts(
        [(RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0]))], dirs)
    # the bool view of np.unpackbits's output, frozen down to its base
    assert space.mask.base is not None and space.mask.base.dtype == np.uint8
    assert not space.mask.flags.writeable and not space.mask.base.flags.writeable


# ---------------------------------------------------------------- labels

def test_classify_empty_is_fix(dirs10k):
    rel = _relation(RelationKind.PLANE_CONTACT, [0, 0, 1])
    space = DirectionSet(dirs10k.directions, np.zeros(dirs10k.n, dtype=bool))
    label = classify_sdof(space, [rel])
    assert label.value is Mobility.FIX and label.rot_axis is None


def test_classify_full_is_free(dirs10k):
    label = classify_sdof(dirs10k, [])
    assert label.value is Mobility.FREE


def test_classify_hemisphere_is_agpp(dirs10k):
    rel = _relation(RelationKind.PLANE_CONTACT, [0, 0, 1])
    label = classify_sdof(_space_of(rel, dirs10k), [rel])
    assert label.value is Mobility.AGPP


def test_classify_screwed_fix_with_rotation_axis(dirs10k):
    rel = _relation(RelationKind.SCREWED, [0, 0, 1])
    label = classify_sdof(_space_of(rel, dirs10k), [rel])
    assert label.value is Mobility.FIX
    assert label.rot_axis is not None and np.allclose(label.rot_axis, [0, 0, 1])


def test_classify_concentric_is_fits(dirs10k):
    rel = _relation(RelationKind.CONCENTRIC, [0, 0, 1])
    label = classify_sdof(_space_of(rel, dirs10k), [rel])
    assert label.value is Mobility.FITS
    assert abs(abs(label.axis[2]) - 1.0) < 0.05


def test_classify_two_caps_without_rotation_is_lin(dirs10k):
    rel = _relation(RelationKind.CONCENTRIC, [1, 0, 0])
    space = _space_of(rel, dirs10k)
    # no contact carries a rotation axis, so the two caps read as a slide
    label = classify_sdof(space, [])
    assert label.value is Mobility.LIN


def test_classify_single_cap_is_fits(dirs10k):
    contacts = [(RelationKind.CONCENTRIC, np.array([0.0, 0.0, 1.0])),
                (RelationKind.PLANE_CONTACT, np.array([0.0, 0.0, 1.0]))]
    space = space_from_contacts(contacts, dirs10k)
    rels = [_relation(RelationKind.CONCENTRIC, [0, 0, 1]),
            _relation(RelationKind.PLANE_CONTACT, [0, 0, 1])]
    label = classify_sdof(space, rels)
    assert label.value is Mobility.FITS
    assert label.axis[2] > 0.99  # one cap, pointing out


def test_classify_band_without_planes_is_degenerate(dirs10k):
    rel = _relation(RelationKind.CONCENTRIC, [0, 0, 1])
    band = np.abs(dirs10k.directions[:, 2]) <= 0.05
    with pytest.raises(DegenerateSpace):
        classify_sdof(DirectionSet(dirs10k.directions, band), [rel])


def _eigh_axis(points):
    """Oracle: the principal axis as it was before the folded mean, the
    eigenvector of the largest eigenvalue of points^T points, with the
    canonical sign."""
    _, vecs = np.linalg.eigh(points.T @ points)
    axis = vecs[:, -1]
    k = int(np.argmax(np.abs(axis)))
    if axis[k] < 0.0:
        axis = -axis
    return axis / np.linalg.norm(axis)


def _classify_all_members(space, contacts, principal_axis=_principal_axis):
    """Oracle: classify_sdof as it was before the pairwise cone pre-test,
    running the principal-axis pass over every member."""
    rot_axis = next((r.direction for r in contacts if r.kind in AXIAL_KINDS), None)

    if space.is_empty():
        return MobilityLabel(Mobility.FIX, rot_axis=rot_axis)
    if space.is_full():
        return MobilityLabel(Mobility.FREE)

    members = space.directions[space.mask]
    axis = principal_axis(members)
    dots = members @ axis
    cone = np.cos(EPS_CONE + CONE_SLACK)
    if np.all(np.abs(dots) >= cone):
        has_pos = bool(np.any(dots > 0.0))
        has_neg = bool(np.any(dots < 0.0))
        if has_pos and has_neg:
            # two antipodal caps: a sliding joint; with free axis rotation the
            # pair behaves as a cylindrical fit
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


def _outcome(classify, space, contacts):
    """Label value and raw axis bytes, or the DegenerateSpace message."""
    try:
        label = classify(space, contacts)
    except DegenerateSpace as exc:
        return "degenerate", str(exc)
    return (label.value,
            None if label.axis is None else label.axis.tobytes(),
            None if label.rot_axis is None else label.rot_axis.tobytes())


def _test_masks(dirs, rng):
    """Caps, antipodal double caps, bands and wedges around a random axis,
    with the cap half-angles on both sides of the 7 degree classification
    cone and of twice it; masks whose members all lie in the first or in the
    last eighth of the index range; one-member masks at either end; and
    cone and non-cone masks whose members avoid every strided probe entry,
    or all but one, so that 0 or 1 probes are drawn (every member is a
    probe while n < 512)."""
    a = random_unit(rng)
    dots = dirs.directions @ a
    masks = {}
    for deg in (6.5, 6.99, 7.01, 7.5, 14.5, 30.0, 90.0):
        c = np.cos(np.deg2rad(deg))
        masks[f"cap {deg}"] = dots >= c
        masks[f"double cap {deg}"] = np.abs(dots) >= c
    for deg in (3.0, 20.0):
        masks[f"band {deg}"] = np.abs(dots) <= np.sin(np.deg2rad(deg))
    for deg in (10.0, 60.0, 150.0):
        b = np.cos(np.deg2rad(deg)) * a + np.sin(np.deg2rad(deg)) * np.cross(a, random_unit(rng))
        masks[f"wedge {deg}"] = (dots >= 0.0) & (dirs.directions @ b >= 0.0)
    nearest = np.argsort(-dots)
    for k in (1, 2, 5, 9):
        few = np.zeros(dirs.n, dtype=bool)
        few[nearest[:k]] = True
        masks[f"{k} nearest"] = few
    index = np.arange(dirs.n)
    eighth = dirs.n // 8
    for name, part, end in (("first", index < eighth, 0),
                            ("last", index >= dirs.n - eighth, dirs.n - 1)):
        masks[f"{name} eighth"] = part
        masks[f"{name} eighth, cap 6.5"] = part & (
            dirs.directions @ dirs.directions[end] >= np.cos(np.deg2rad(6.5)))
        masks[f"{name} eighth, member {end} only"] = index == end
    step = max(1, dirs.n // 256)
    off_stride = index % step != 0
    nearest_probe = index[::step][np.argmax(dots[::step])]
    for name in ("cap 6.5", "double cap 6.5", "cap 14.5"):
        masks[f"{name}, no probe"] = masks[name] & off_stride
        masks[f"{name}, one probe"] = (masks[name] & off_stride) | (index == nearest_probe)
    return a, masks


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 2**15 + 1, 10_000, 100_000])
def test_classify_cone_pretest_matches_full_pass(n):
    dirs = sample_sphere(n, seed=11)
    rng = np.random.default_rng(n)
    checked = 0
    for _ in range(3):
        a, masks = _test_masks(dirs, rng)
        contact_sets = ([_relation(RelationKind.CONCENTRIC, a)],
                        [_relation(RelationKind.CONCENTRIC, a),
                         _relation(RelationKind.PLANE_CONTACT, a)],
                        [_relation(RelationKind.PLANE_CONTACT, a)])
        for name, mask in masks.items():
            space = DirectionSet(dirs.directions, mask)
            for contacts in contact_sets:
                expected = _outcome(_classify_all_members, space, contacts)
                assert _outcome(classify_sdof, space, contacts) == expected, name
                checked += 1
    assert checked == 3 * 35 * 3


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 2**15 + 1, 10_000, 100_000])
def test_folded_mean_axis_labels_as_the_eigenvector_does(n):
    """On every test mask, the folded-mean axis gives the label value that
    the eigenvector axis gave, and the two axes agree within 0.001 degrees
    where both label an axis (2.7e-4 degrees at worst)."""
    dirs = sample_sphere(n, seed=11)
    rng = np.random.default_rng(n)
    worst = 0.0
    for _ in range(3):
        a, masks = _test_masks(dirs, rng)
        contact_sets = ([_relation(RelationKind.CONCENTRIC, a)],
                        [_relation(RelationKind.PLANE_CONTACT, a)])
        for name, mask in masks.items():
            space = DirectionSet(dirs.directions, mask)
            for contacts in contact_sets:
                try:
                    old = _classify_all_members(space, contacts, _eigh_axis)
                except DegenerateSpace:
                    with pytest.raises(DegenerateSpace):
                        _classify_all_members(space, contacts)
                    continue
                new = _classify_all_members(space, contacts)
                assert new.value is old.value, name
                if old.axis is not None:
                    worst = max(worst, np.degrees(np.arccos(
                        min(1.0, float(old.axis @ new.axis)))))
    assert worst < 0.001, worst


def test_classify_cone_pretest_copies_no_mask():
    """A 1M half-space is no cone, so classifying it runs only the pre-test,
    whose strided views allocate far less than the mask's bytes."""
    dirs = sample_sphere(1_000_000, seed=5)
    z = np.array([0.0, 0.0, 1.0])
    space = space_from_contacts([(RelationKind.PLANE_CONTACT, z)], dirs)
    tracemalloc.start()
    try:
        label = classify_sdof(space, [_relation(RelationKind.PLANE_CONTACT, z)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert label.value is Mobility.AGPP
    assert peak < space.mask.nbytes // 2, peak


# ---------------------------------------------------------------- graph

def test_build_graph_propagates_degenerate_with_pair(valve_model, dirs2k,
                                                     monkeypatch):
    import dismantle.dspace as dspace_mod

    def explode(space, contacts):
        raise DegenerateSpace("synthetic degenerate mask")

    monkeypatch.setattr(dspace_mod, "classify_sdof", explode)
    with pytest.raises(DegenerateSpace) as exc:
        dspace_mod.build_graph(valve_model, dirs2k)
    assert exc.value.pair is not None
    assert exc.value.pair[0] in str(exc.value)


def test_build_graph_valve(valve_model, dirs10k):
    g = build_graph(valve_model, dirs10k)
    s1 = g.edges[("screw_1", "valve_body")]
    assert s1.value is Mobility.FIX and s1.rot_axis is not None
    s2 = g.edges[("screw_2", "valve_body")]
    assert s2.value is Mobility.FIX
    hose = g.edges[("hose", "valve_body")]
    assert hose.value is Mobility.FITS
    vb = g.edges[("valve_body", "base")]
    assert vb.value is Mobility.AGPP


def test_graph_symmetric(valve_model, dirs10k):
    g = build_graph(valve_model, dirs10k)
    for (a, b), label in g.edges.items():
        assert g.edges[(b, a)] is label


def test_graph_no_edge_without_relation(valve_model, dirs10k):
    g = build_graph(valve_model, dirs10k)
    assert ("screw_1", "screw_2") not in g.edges
    assert ("hose", "base") not in g.edges
