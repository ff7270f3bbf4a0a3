import numpy as np
import pytest

from conftest import (brute_force_space, random_contact_model, random_unit,
                      sorted_set_space)

from dismantle.dspace import (CONE_SLACK, EPS_ANG, EPS_CONE, DirectionSet,
                              Mobility, MobilityLabel, _principal_axis,
                              admissible_indices, build_graph, classify_sdof,
                              disassembly_space, dump_directions,
                              intersect_spaces, oriented_direction,
                              sample_sphere, space_from_contacts)
from dismantle.errors import DegenerateSpace, UnknownComponent
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


# ---------------------------------------------------------------- labels

def test_classify_empty_is_fix(dirs10k):
    rel = _relation(RelationKind.PLANE_CONTACT, [0, 0, 1])
    space = dirs10k.with_mask(np.zeros(dirs10k.n, dtype=bool))
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
        classify_sdof(dirs10k.with_mask(band), [rel])


def _classify_all_members(space, contacts):
    """Oracle: classify_sdof as it was before the pairwise cone pre-test,
    running the principal-axis pass over every member."""
    rot_axis = next((r.direction for r in contacts if r.kind in AXIAL_KINDS), None)

    if space.is_empty():
        return MobilityLabel(Mobility.FIX, rot_axis=rot_axis)
    if space.is_full():
        return MobilityLabel(Mobility.FREE)

    members = space.directions[space.mask]
    axis = _principal_axis(members)
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
    cone and of twice it."""
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
    return a, masks


@pytest.mark.parametrize("n", [10_000, 100_000])
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
            space = dirs.with_mask(mask)
            for contacts in contact_sets:
                expected = _outcome(_classify_all_members, space, contacts)
                assert _outcome(classify_sdof, space, contacts) == expected, name
                checked += 1
    assert checked == 3 * 23 * 3


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
    s1 = g.label("screw_1", "valve_body")
    assert s1.value is Mobility.FIX and s1.rot_axis is not None
    s2 = g.label("screw_2", "valve_body")
    assert s2.value is Mobility.FIX
    hose = g.label("hose", "valve_body")
    assert hose.value is Mobility.FITS
    vb = g.label("valve_body", "base")
    assert vb.value is Mobility.AGPP


def test_graph_symmetric(valve_model, dirs10k):
    g = build_graph(valve_model, dirs10k)
    for (a, b), label in g.edges.items():
        assert g.label(b, a) is label


def test_graph_no_edge_without_relation(valve_model, dirs10k):
    g = build_graph(valve_model, dirs10k)
    assert ("screw_1", "screw_2") not in g.edges
    assert ("hose", "base") not in g.edges


def test_dump_directions_csv(tmp_path, dirs2k):
    rel = _relation(RelationKind.PLANE_CONTACT, [0, 0, 1])
    space = _space_of(rel, dirs2k)
    out = tmp_path / "space.csv"
    dump_directions(space, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,member"
    assert len(lines) == dirs2k.n + 1
    members = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert members == np.count_nonzero(space.mask)
