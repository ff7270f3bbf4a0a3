import dataclasses
import json
import warnings

import numpy as np
import pytest

from conftest import (SCENARIOS, model_to_dict, random_contact_model,
                      random_feasible_model)

from dismantle.errors import ParseError, UnknownComponent, ValidationError
from dismantle.model import (AssemblyModel, Component, FeatureGeometry,
                             GeometryKind, RelationKind, Semantic,
                             Tool, contacts_of, load_model, load_model_dict)


def test_single_screw_scenario_loads(single_screw_model):
    m = single_screw_model
    assert len(m.components) == 2
    assert len(m.relations) == 1
    assert m.relations[0].kind is RelationKind.SCREWED
    assert m.target == "screw_1"


def test_valve_scenario_loads(valve_model):
    m = valve_model
    assert len(m.components) == 5
    assert len(m.relations) == 4
    kinds = sorted(r.kind.value for r in m.relations)
    assert kinds == ["concentric", "plane_contact", "screwed", "screwed"]


def test_unknown_relation_reference_names_entity(tmp_path, single_screw_path):
    doc = json.loads(single_screw_path.read_text())
    doc["relations"][0]["components"] = ["screw_1", "C9"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as exc:
        load_model(bad)
    assert "C9" in str(exc.value)


def test_malformed_json_is_parse_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"format_version": 1,,}')
    with pytest.raises(ParseError) as exc:
        load_model(bad)
    assert "line" in str(exc.value)


def test_missing_key_is_parse_error(tmp_path):
    bad = tmp_path / "nokey.json"
    bad.write_text(json.dumps({"format_version": 1, "components": []}))
    with pytest.raises(ParseError) as exc:
        load_model(bad)
    assert "relations" in str(exc.value)


def test_two_bases_rejected(single_screw_path):
    doc = json.loads(single_screw_path.read_text())
    doc["components"][1]["semantic"] = "base"
    with pytest.raises(ValidationError):
        load_model_dict(doc)


def test_disconnected_graph_rejected(valve_path):
    doc = json.loads(valve_path.read_text())
    doc["relations"] = doc["relations"][:1]  # only screw_1-valve remains
    with pytest.raises(ValidationError) as exc:
        load_model_dict(doc)
    assert "connected" in str(exc.value)


def test_geometry_kind_compatibility(single_screw_path):
    doc = json.loads(single_screw_path.read_text())
    doc["relations"][0]["geometry"]["kind"] = "plane"
    with pytest.raises(ValidationError):
        load_model_dict(doc)


def test_collinear_features_rejected(single_screw_path):
    doc = json.loads(single_screw_path.read_text())
    doc["components"][1]["visual_features"] = [[0, 0, 0], [0.01, 0, 0], [0.02, 0, 0]]
    with pytest.raises(ValidationError) as exc:
        load_model_dict(doc)
    assert "screw_1" in str(exc.value)


def test_relation_direction_transformed_to_world(tmp_path, single_screw_path):
    # rotate the screw 90 degrees about x: local +z becomes world -y
    doc = json.loads(single_screw_path.read_text())
    s = np.sqrt(0.5)
    doc["components"][1]["pose"]["orientation"] = [s, s, 0, 0]
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    assert np.allclose(m.relations[0].direction, [0.0, -1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("huge, unit", [([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
                                        ([-1e308, 0.0, 1.0], [-1.0, 0.0, 0.0])])
def test_huge_finite_relation_direction_loads(single_screw_path, huge, unit):
    doc = json.loads(single_screw_path.read_text())
    doc["relations"][0]["geometry"]["direction"] = unit
    expected = load_model_dict(doc).relations[0].direction
    doc["relations"][0]["geometry"]["direction"] = huge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        direction = load_model_dict(doc).relations[0].direction
    np.testing.assert_allclose(direction, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_feature_geometry_rejects_non_finite_direction(bad):
    with pytest.raises(ValueError, match="finite"):
        FeatureGeometry(GeometryKind.LINE, direction=np.array([bad, 0.0, 1.0]))


def test_contacts_of_valve(valve_model):
    rels = contacts_of(valve_model, "screw_1")
    assert len(rels) == 1 and rels[0].kind is RelationKind.SCREWED
    rels_v = contacts_of(valve_model, "valve_body")
    assert len(rels_v) == 4  # two screws, the hose fit and the base plane
    assert contacts_of(valve_model, "base")[0].kind is RelationKind.PLANE_CONTACT
    with pytest.raises(UnknownComponent):
        contacts_of(valve_model, "nope")


def test_contacts_of_isolated_component_empty():
    # constructed directly: load_model would reject the disconnected graph,
    # but partially dismantled states legitimately contain isolated parts
    m = AssemblyModel(
        components=(Component(id="base", semantic=Semantic.BASE),
                    Component(id="loose", semantic=Semantic.GENERIC_GRASPABLE)),
        relations=())
    assert contacts_of(m, "loose") == []


def test_contact_handshake(valve_model):
    total = sum(len(contacts_of(valve_model, c.id))
                for c in valve_model.components)
    assert total == 2 * len(valve_model.relations)


def _first_difference(a: AssemblyModel, b: AssemblyModel, tol: float = 1e-9):
    """The first field in which two models differ, or None.

    Ids, semantics, relation kinds and pairs, geometry kinds, station names,
    target, reassemble and tool_map must match exactly; poses, features,
    relation directions and station poses agree within ``tol``, and relation
    frames within 1e-6.
    """
    if len(a.components) != len(b.components):
        return "components"
    for ca, cb in zip(a.components, b.components):
        where = f"components[{ca.id}]"
        if (ca.id, ca.semantic) != (cb.id, cb.semantic):
            return f"{where}.id/semantic"
        for name in ("pose", "grasp_offset", "put_pose"):
            pa, pb = getattr(ca, name), getattr(cb, name)
            if (pa is None) != (pb is None) or (
                    pa is not None and not pa.approx_equal(pb, tol)):
                return f"{where}.{name}"
        fa, fb = ca.visual_features, cb.visual_features
        if (fa is None) != (fb is None) or (
                fa is not None and not np.allclose(fa, fb, rtol=0, atol=tol)):
            return f"{where}.visual_features"
    if len(a.relations) != len(b.relations):
        return "relations"
    for i, (ra, rb) in enumerate(zip(a.relations, b.relations)):
        if (ra.kind, ra.components, ra.geometry.kind) != (
                rb.kind, rb.components, rb.geometry.kind):
            return f"relations[{i}].kind/components"
        if not np.allclose(ra.direction, rb.direction, rtol=0, atol=tol):
            return f"relations[{i}].direction"
        if not ra.geometry.frame.approx_equal(rb.geometry.frame, tol=1e-6):
            return f"relations[{i}].geometry.frame"
    if set(a.tool_stations) != set(b.tool_stations):
        return "tool_stations"
    for name in a.tool_stations:
        if not a.tool_stations[name].approx_equal(b.tool_stations[name], tol):
            return f"tool_stations.{name}"
    for name in ("target", "reassemble", "tool_map"):
        if getattr(a, name) != getattr(b, name):
            return name
    return None


def _document(m: AssemblyModel) -> dict:
    """The scenario document of ``m`` after a pass through JSON text."""
    return json.loads(json.dumps(model_to_dict(m)))


def _assert_round_trip(m: AssemblyModel) -> AssemblyModel:
    """Reload ``m`` from its document; the document must be a fixed point and
    every field must agree.  Returns the reloaded model."""
    d = _document(m)
    again = load_model_dict(d)
    assert model_to_dict(again) == d
    assert _first_difference(m, again) is None
    return again


def test_round_trip():
    paths = sorted(SCENARIOS.glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        _assert_round_trip(load_model(path))


def test_round_trip_with_rotated_component(single_screw_path):
    doc = json.loads(single_screw_path.read_text())
    s = np.sqrt(0.5)
    doc["components"][1]["pose"]["orientation"] = [s, 0, s, 0]
    _assert_round_trip(load_model_dict(doc))


def test_random_feasible_models_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        _assert_round_trip(random_feasible_model(rng))


def test_random_contact_models_round_trip_their_fields():
    # a reload re-normalises each relation direction, which can move its last
    # bit, so only the fields are compared here, not the document
    rng = np.random.default_rng(0)
    for _ in range(300):
        m = random_contact_model(rng)
        assert _first_difference(m, load_model_dict(_document(m))) is None


def test_first_difference_names_the_field(single_screw_model):
    m = single_screw_model
    screw = m.components[1]
    rel = m.relations[0]

    def moved(pose, dx):
        return pose.translated([dx, 0.0, 0.0])

    def with_screw(**kw):
        return dataclasses.replace(
            m, components=(m.components[0], dataclasses.replace(screw, **kw)))

    def with_frame(frame):
        geo = dataclasses.replace(rel.geometry, frame=frame)
        return dataclasses.replace(
            m, relations=(dataclasses.replace(rel, geometry=geo),))

    assert _first_difference(m, with_screw(pose=moved(screw.pose, 5e-10))) is None
    assert (_first_difference(m, with_screw(pose=moved(screw.pose, 2e-9)))
            == "components[screw_1].pose")
    assert (_first_difference(m, with_screw(put_pose=None))
            == "components[screw_1].put_pose")
    assert (_first_difference(m, with_screw(
        visual_features=screw.visual_features + 2e-9))
            == "components[screw_1].visual_features")
    assert _first_difference(m, with_frame(moved(rel.geometry.frame, 5e-7))) is None
    assert (_first_difference(m, with_frame(moved(rel.geometry.frame, 2e-6)))
            == "relations[0].geometry.frame")
    assert (_first_difference(m, dataclasses.replace(m, target=None))
            == "target")
    assert (_first_difference(m, dataclasses.replace(m, tool_map={}))
            == "tool_map")


def test_tool_inference_default_and_override(valve_model, single_screw_path):
    assert valve_model.tool_for("screw_1") is Tool.SCREWDRIVER
    assert valve_model.tool_for("hose") is Tool.GRIPPER
    doc = json.loads(single_screw_path.read_text())
    doc["tool_map"] = {"screw": "gripper"}
    m = load_model_dict(doc)
    assert m.tool_for("screw_1") is Tool.GRIPPER


def test_tool_map_override_round_trips(single_screw_path):
    doc = json.loads(single_screw_path.read_text())
    doc["tool_map"] = {"screw": "gripper"}
    again = _assert_round_trip(load_model_dict(doc))
    assert again.tool_for("screw_1") is Tool.GRIPPER


@pytest.mark.parametrize("edit", [
    lambda doc: doc["components"][1]["visual_features"][0].__setitem__(0, 1e3),
    lambda doc: doc["robot_start"]["position"].__setitem__(0, -1e3),
    lambda doc: doc.update(vision_noise=1e3)],
    ids=["feature", "robot_start", "vision_noise"])
def test_length_at_the_bound_loads(single_screw_path, edit):
    doc = json.loads(single_screw_path.read_text())
    edit(doc)
    load_model_dict(doc)
