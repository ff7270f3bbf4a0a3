import json

import numpy as np
import pytest

from dismantle.errors import ParseError, UnknownComponent, ValidationError
from dismantle.model import (AssemblyModel, Component, FeatureGeometry,
                             GeometryKind, RelationKind, Semantic,
                             Tool, contacts_of, load_model, load_model_dict,
                             model_to_dict, models_equal, write_model)


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


def test_round_trip(tmp_path, valve_model, single_screw_model):
    for i, m in enumerate((valve_model, single_screw_model)):
        path = tmp_path / f"rt{i}.json"
        write_model(m, path)
        again = load_model(path)
        assert models_equal(m, again, tol=1e-9)


def test_round_trip_with_rotated_component(tmp_path, single_screw_path):
    doc = json.loads(single_screw_path.read_text())
    s = np.sqrt(0.5)
    doc["components"][1]["pose"]["orientation"] = [s, 0, s, 0]
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    out = tmp_path / "rt.json"
    write_model(m, out)
    assert models_equal(m, load_model(out), tol=1e-9)


def test_tool_inference_default_and_override(valve_model, single_screw_path):
    assert valve_model.tool_for("screw_1") is Tool.SCREWDRIVER
    assert valve_model.tool_for("hose") is Tool.GRIPPER
    doc = json.loads(single_screw_path.read_text())
    doc["tool_map"] = {"screw": "gripper"}
    m = load_model_dict(doc)
    assert m.tool_for("screw_1") is Tool.GRIPPER


def test_tool_map_override_round_trips(tmp_path, single_screw_path):
    doc = json.loads(single_screw_path.read_text())
    doc["tool_map"] = {"screw": "gripper"}
    src = tmp_path / "override.json"
    src.write_text(json.dumps(doc))
    m = load_model(src)
    out = tmp_path / "rt.json"
    write_model(m, out)
    again = load_model(out)
    assert models_equal(m, again)
    assert again.tool_for("screw_1") is Tool.GRIPPER


def test_model_to_dict_is_json_serializable(valve_model):
    json.dumps(model_to_dict(valve_model))
