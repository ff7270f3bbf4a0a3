import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from dismantle.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_valve_has_twelve_primitives(capsys):
    code, out, _ = _run(capsys, "plan", SCENARIOS / "valve.json",
                        "--samples", 2000)
    assert code == 0
    doc = json.loads(out)
    assert doc["mp_count"] == 12
    assert len(doc["plans"]) == 2
    assert doc["plans"][0]["assembly"] is False
    assert doc["plans"][1]["assembly"] is True
    kinds = [s["kind"] for s in doc["plans"][0]["steps"]]
    assert kinds == ["twist", "twist", "pull", "put", "pull", "put"]
    edges = {tuple(e["pair"]): e["label"] for e in doc["sdof_graph"]["edges"]}
    assert edges[("hose", "valve_body")] == "fits"
    assert edges[("base", "valve_body")] == "agpp"


def test_plan_empty_target_exits_zero(capsys):
    code, out, _ = _run(capsys, "plan", SCENARIOS / "empty_target.json",
                        "--samples", 500)
    assert code == 0
    assert json.loads(out)["mp_count"] == 0


def test_plan_blocked_exits_three(capsys):
    code, _, err = _run(capsys, "plan", SCENARIOS / "blocked.json",
                        "--samples", 500)
    assert code == 3
    assert "plane_contact(block_a, block_b)" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = _run(capsys, "plan", bad)
    assert code == 1 and "error" in err


# files that hold no document of the right shape: nested past the recursion
# limit, not UTF-8 (a UTF-16 byte-order mark), an integer too long to
# convert, a JSON value that is not an object
UNREADABLE = {"too_deep": b"[" * 100_000, "not_utf8": b"\xff\xfe{\x00}\x00",
              "long_int": b'{"format_version": ' + b"1" * 5000 + b"}",
              "not_an_object": b"[1, 2]"}


@pytest.mark.parametrize("command", ["plan", "decompose", "simulate"])
@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_scenario_is_parse_error(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = _run(capsys, command, bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_runs_file_is_parse_error(tmp_path, capsys, content):
    (tmp_path / "runs.json").write_bytes(content)
    code, out, err = _run(capsys, "report", "--out", tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot aggregate") and err.count("\n") == 1


def test_non_finite_pose_is_parse_error(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    doc["components"][1]["pose"]["position"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    assert "NaN" in bad.read_text()
    code, out, err = _run(capsys, "plan", bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "finite" in err and "screw_1" in err


@pytest.mark.parametrize("direction", [[0, 0, 0], [float("nan"), 0, 1],
                                       [float("-inf"), 0, 1]],
                         ids=["zero", "nan", "inf"])
def test_bad_relation_direction_is_parse_error(tmp_path, capsys, direction):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    doc["relations"][0]["geometry"]["direction"] = direction
    bad = tmp_path / "dir.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "plan", bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert "finite nonzero" in err and "geometry.direction" in err


@pytest.mark.parametrize("direction", [["a", 0, 1], [None, 0, 1], [True, 0, 1], "z"],
                         ids=["str_entry", "null_entry", "bool_entry", "str"])
def test_non_numeric_relation_direction_is_parse_error(tmp_path, capsys, direction):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    doc["relations"][0]["geometry"]["direction"] = direction
    bad = tmp_path / "dir.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "plan", bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "geometry.direction" in err


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("noise", [-1, float("nan"), float("inf"), 10 ** 400, "x",
                                   None, "0.01"],
                         ids=["negative", "nan", "inf", "huge_int", "str", "null",
                              "numeric_str"])
def test_bad_vision_noise_is_parse_error(tmp_path, capsys, noise, command):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    doc["vision_noise"] = noise
    bad = tmp_path / "noise.json"
    bad.write_text(json.dumps(doc))
    reps = ["--reps", 1] if command == "simulate" else []
    code, out, err = _run(capsys, command, bad, "--samples", 500, *reps)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(field: vision_noise)" in err and "fault" not in err


def _set_relation_entry(doc):
    doc["relations"][0] = 5


def _set_component_entry(doc):
    doc["components"][0] = 7


def _set_geometry(doc):
    doc["relations"][0]["geometry"] = 5


def _set_component_id(value):
    return lambda doc: doc["components"][0].update(id=value)


def _set_features(value):
    return lambda doc: doc["components"][1].update(visual_features=value)


def _set_pair(value):
    return lambda doc: doc["relations"][0].update(components=value)


def _set_pose(key, value):
    return lambda doc: doc["components"][1]["pose"].update({key: value})


def _rename(key, new_key, *where):
    def edit(doc):
        for step in where:
            doc = doc[step]
        doc[new_key] = doc.pop(key)
    return edit


@pytest.mark.parametrize("command", ["plan", "decompose", "simulate"])
@pytest.mark.parametrize("edit, field", [
    (_set_relation_entry, "relations[0]"),
    (_set_component_entry, "components[0]"),
    (_set_geometry, "relations[0].geometry"),
    (lambda doc: doc.update(relations="x"), "relations"),
    (lambda doc: doc.update(components={}), "components"),
    (lambda doc: doc.update(tool_stations=[1, 2]), "tool_stations"),
    (lambda doc: doc.update(tool_map=[1]), "tool_map"),
    (_set_component_id([1]), "components[0].id"),
    (_set_component_id({}), "components[0].id"),
    (_set_features("x"), "components[screw_1].visual_features"),
    (_set_features([[0.01, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]]),
     "components[screw_1].visual_features"),
    (_set_features([["a", 0, 0], [0, 1, 0], [0, 0, 1]]),
     "components[screw_1].visual_features"),
    (_set_features([[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]),
     "components[screw_1].visual_features"),
    (_set_pair(5), "relations[0].components"),
    (_set_pair(None), "relations[0].components"),
    (_set_pair([[1], "base"]), "relations[0].components"),
    (lambda doc: doc.update(reassemble="no"), "reassemble"),
    (_set_pose("position", ["0.3", "0", "0.02"]), "components[screw_1].pose"),
    (_set_pose("orientation", [True, False, False, False]),
     "components[screw_1].pose"),
    (_set_pose("position", [10 ** 400, 0, 0.02]), "components[screw_1].pose"),
    # finite, but its squared norm overflows
    (_set_pose("orientation", [1e300, 1e300, 0, 0]), "components[screw_1].pose"),
    # finite, but beyond the length bound; these once overflowed in numpy
    (lambda doc: doc["components"][1]["visual_features"][0].__setitem__(0, 1e300),
     "components[screw_1].visual_features"),
    (lambda doc: doc["robot_start"]["position"].__setitem__(0, -1e300), "robot_start"),
    (lambda doc: doc.update(vision_noise=1e300), "vision_noise"),
    (lambda doc: doc.update(format_version=True), "format_version"),
    (lambda doc: doc.update(format_version=1.0), "format_version"),
    (lambda doc: doc["components"][1].update(semantic="bolt"),
     "components[screw_1].semantic"),
    (lambda doc: doc["relations"][0].update(kind="glued"), "relations[0].kind"),
    (lambda doc: doc["relations"][0]["geometry"].update(kind="cone"),
     "relations[0].geometry.kind"),
    (lambda doc: doc.update(tool_map={"screw": "hammer"}), "tool_map"),
    (lambda doc: doc.update(tool_map={"bolt": "gripper"}), "tool_map"),
], ids=["relation_entry", "component_entry", "geometry", "relations_str",
        "components_obj", "tool_stations_list", "tool_map_list",
        "component_id_list", "component_id_obj", "features_str",
        "features_ragged", "features_non_numeric", "features_nan",
        "pair_int", "pair_null", "pair_holds_list", "reassemble_str",
        "pose_str", "pose_bool", "pose_huge_int", "pose_huge_orientation",
        "feature_1e300", "robot_start_1e300", "vision_noise_1e300",
        "format_version_true",
        "format_version_float", "unknown_semantic", "unknown_relation_kind",
        "unknown_geometry_kind", "tool_map_unknown_tool", "tool_map_unknown_semantic"])
def test_mistyped_collection_is_parse_error(tmp_path, capsys, command, edit, field):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    edit(doc)
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, command, bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"(field: {field})" in err and "fault" not in err


@pytest.mark.parametrize("edit, message", [
    (_set_pose("position", 5), "position 5 is not a list of 3 numbers"),
    (lambda doc: doc["components"][1]["pose"].pop("orientation"),
     "pose has no 'orientation'"),
    (_set_pose("orientation", [1, 0, 0]),
     "orientation [1, 0, 0] is not a list of 4 numbers"),
    (lambda doc: doc["components"][1].update(pose=[1, 2]), "[1, 2] is not an object"),
    (_rename("position", "positon", "components", 1, "pose"),
     "unknown key 'positon'; did you mean 'position'?"),
], ids=["position_int", "no_orientation", "short_orientation", "pose_list",
        "unknown_key"])
def test_malformed_pose_names_the_defect(tmp_path, capsys, edit, message):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    edit(doc)
    bad = tmp_path / "pose.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "plan", bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err == f"error: {bad}: {message} (field: components[screw_1].pose)\n"


@pytest.mark.parametrize("edit, message", [
    (_rename("target", "targte"), "unknown key 'targte'; did you mean 'target'?"),
    (_rename("grasp_offset", "grasp_ofset", "components", 1),
     "unknown key 'grasp_ofset'; did you mean 'grasp_offset'? (field: components[1])"),
    (_rename("geometry", "geometrie", "relations", 0),
     "unknown key 'geometrie'; did you mean 'geometry'? (field: relations[0])"),
    (lambda doc: doc["relations"][0]["geometry"].update(colour="red"),
     "unknown key 'colour' (field: relations[0].geometry)"),
], ids=["top_level", "component", "relation", "geometry"])
def test_unknown_scenario_key_is_parse_error(tmp_path, capsys, edit, message):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    edit(doc)
    bad = tmp_path / "unknown_key.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "plan", bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err == f"error: {bad}: {message}\n"


def test_features_behind_camera_is_a_failure_row(tmp_path, capsys):
    # a 0.2 m detection error puts a goal where servoing passes a feature
    # behind the camera in repetition 1
    doc = json.loads((SCENARIOS / "valve.json").read_text())
    doc["vision_noise"] = 0.2
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code, stdout, err = _run(capsys, "simulate", noisy, "--samples", 2000,
                             "--reps", 2, "--out", out)
    assert code == 0 and err == ""
    assert "rep 1: sense_and_control" in stdout
    rep1 = json.loads((out / "runs.json").read_text())["runs"][1]
    assert rep1["outcome"] == "failure" and rep1["error"] == "sense_and_control"
    assert "not in front of the camera" in rep1["message"]
    ticks = (out / "rep_01_ticks.csv").read_text().splitlines()
    assert round(float(ticks[-1].split(",")[0]) * 100) == sum(rep1["buckets"].values())


def _one_fault(fault):
    return {"faults": [fault]}


@pytest.mark.parametrize("doc", [
    _one_fault({"kind": "force_noise", "repetition": 0, "sigma": float("nan")}),
    _one_fault({"kind": "force_noise", "repetition": 0, "sigma": -1}),
    _one_fault({"kind": "force_noise", "repetition": 0, "sigma": True}),
    _one_fault({"kind": "force_noise", "repetition": 0, "sigma": "6"}),
    _one_fault({"kind": "force_noise", "repetition": 0, "sigma": 10**400}),
    _one_fault({"kind": "tool_slip", "repetition": -3}),
    _one_fault({"kind": "tool_slip", "repetition": 2.7}),
    _one_fault({"kind": "tool_slip", "repetition": 0, "ap_index": "x"}),
    [], "x", _one_fault(5), {"faults": "x"},
], ids=["sigma_nan", "sigma_negative", "sigma_bool", "sigma_str", "sigma_huge_int",
        "repetition_negative", "repetition_float", "ap_index_str", "doc_list",
        "doc_str", "entry_int", "faults_str"])
def test_bad_fault_field_exits_one(tmp_path, capsys, doc):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", SCENARIOS / "single_screw.json",
                          "--samples", 500, "--faults", faults,
                          "--out", tmp_path / "run")
    assert code == 1 and out == ""
    assert err.startswith("error: bad fault specification") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, message", [
    ({"faults": {}}, "faults must be a list of fault entries: {}"),
    ({"faults": ""}, "faults must be a list of fault entries: ''"),
    ({"faults": {"kind": "tool_slip", "repetition": 0}},
     "faults must be a list of fault entries: {'kind': 'tool_slip', 'repetition': 0}"),
    ({"faults": 5}, "faults must be a list of fault entries: 5"),
    (_one_fault({"kind": "tool_slip"}), "fault entry has no 'repetition'"),
    (_one_fault({"kind": "force_noise", "repetition": 0, "sigm": 60}),
     "unknown key 'sigm'; did you mean 'sigma'? (field: faults[0])"),
    ({"falts": 1, "faults": [{"kind": "force_noise", "repetition": 0, "sigm": 60}]},
     "unknown key 'falts'; did you mean 'faults'?"),
    ({"faults": [{"kind": "tool_slip", "repetition": 0},
                 {"kind": "tool_slip", "repetition": 1, "\n" * 100: 0}]},
     # the key's repr, cut to 40 characters mid-escape, stays on one line
     "unknown key '" + "\\n" * 19 + "\\ (field: faults[1])"),
], ids=["faults_empty_object", "faults_empty_str", "faults_entry_object",
        "faults_int", "entry_without_repetition", "entry_key_sigm", "top_key_falts",
        "long_newline_key"])
def test_bad_fault_file_names_what_is_wrong(tmp_path, capsys, doc, message):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", SCENARIOS / "single_screw.json",
                          "--samples", 500, "--faults", faults,
                          "--out", tmp_path / "run")
    assert code == 1 and out == ""
    assert err == f"error: bad fault specification: {message}\n"
    assert not (tmp_path / "run").exists()


def _map_screw_to_no_tool(doc):
    doc["tool_map"] = {"screw": "none"}
    doc["tool_stations"]["none"] = doc["tool_stations"]["gripper"]


@pytest.mark.parametrize("command", ["plan", "decompose", "simulate"])
@pytest.mark.parametrize("edit, entity", [
    (_set_pair(["screw_1", "missing"]), "missing"),
    (_map_screw_to_no_tool, "screw"),
    (lambda doc: doc["components"].append(dict(doc["components"][1])), "screw_1"),
    (lambda doc: doc.update(target="ghost"), "ghost"),
    (_set_pair(["screw_1", "screw_1"]), "screw_1"),
    (lambda doc: doc["relations"][0]["geometry"].update(kind="point"), "screw_1-base"),
], ids=["unknown_relation_component", "tool_map_none", "duplicate_id",
        "unknown_target", "self_joined", "point_geometry"])
def test_validation_error_exit_code(tmp_path, capsys, command, edit, entity):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, command, bad, "--samples", 500)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert f"(entity: {entity})" in err


@pytest.mark.parametrize("edit, exit_code, message", [
    (lambda doc: doc["relations"][3]["geometry"].update(kind="cone"), 1,
     "'cone' is not a valid GeometryKind (field: relations[3].geometry.kind)"),
    (lambda doc: doc["relations"][2].pop("kind"), 1,
     "missing required key 'kind' (field: relations[2].kind)"),
    (lambda doc: doc.update(target="ghost"), 2,
     "target references unknown component (entity: ghost)"),
], ids=["geometry_kind", "no_kind", "unknown_target"])
def test_scenario_error_whole_line(tmp_path, capsys, edit, exit_code, message):
    doc = json.loads((SCENARIOS / "valve.json").read_text())
    edit(doc)
    bad = tmp_path / "valve_copy.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "plan", bad, "--samples", 500)
    assert code == exit_code and out == ""
    assert err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("target, shown", [
    (5, "5"), (True, "True"), (["screw_1"], "['screw_1']"), ({"a": 1}, "{'a': 1}"),
    (list(range(200_000)), "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1"),
], ids=["int", "bool", "list", "object", "long_list"])
def test_target_not_a_string_is_a_parse_error(tmp_path, capsys, target, shown):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    doc["target"] = target
    bad = tmp_path / "target.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "plan", bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err == f"error: {bad}: {shown} is not a string (field: target)\n"


def test_decompose_missing_station_exits_three(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    doc["tool_stations"] = {}
    bad = tmp_path / "no_station.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "decompose", bad, "--samples", 500)
    assert (code, out, err) == (3, "", "error: no tool station for 'screwdriver'\n")


def test_decompose_single_screw_gold_stream(capsys):
    code, out, _ = _run(capsys, "decompose", SCENARIOS / "single_screw.json",
                        "--samples", 2000)
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 8
    names = [json.loads(line)["name"] for line in lines]
    assert names == ["getTool", "roughPos", "finePos", "processObj",
                     "roughPos", "putObj", "roughPos", "putTool"]
    first = json.loads(lines[0])
    assert first["tool"] == {"tool": "screwdriver", "cmd": "close"}


def test_decompose_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        code = main(["decompose", str(SCENARIOS / "single_screw.json"),
                     "--samples", "2000", "--seed", "1", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_decompose_valve_first_ap_is_get_tool(capsys):
    code, out, _ = _run(capsys, "decompose", SCENARIOS / "valve.json",
                        "--samples", 2000)
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["name"] == "getTool"
    assert first["tool"]["tool"] == "screwdriver"


def test_simulate_writes_report_and_logs(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = _run(capsys, "simulate", SCENARIOS / "single_screw.json",
                           "--samples", 2000, "--reps", 2, "--out", out)
    assert code == 0
    assert "t_exe" in stdout and "|MP|" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["S"] == 1.0
    assert report["|MP|"] == 1
    runs = json.loads((out / "runs.json").read_text())
    assert len(runs["runs"]) == 2
    for rep in range(2):
        csv = (out / f"rep_{rep:02d}_ticks.csv").read_text().splitlines()
        assert csv[0].startswith("t,controller,ux")
        assert len(csv) > 10


def test_simulate_with_faults(tmp_path, capsys):
    faults = tmp_path / "faults.json"
    faults.write_text('{"faults": [{"kind": "tool_slip", "repetition": 1}]}')
    out = tmp_path / "run"
    code, stdout, _ = _run(capsys, "simulate", SCENARIOS / "single_screw.json",
                           "--samples", 2000, "--reps", 2,
                           "--faults", faults, "--out", out)
    assert code == 0  # failures are results, not errors
    report = json.loads((out / "report.json").read_text())
    assert report["S"] == 0.5
    assert report["failures"] == [[1, "device"]]


def test_report_reaggregates_without_simulation(tmp_path, capsys):
    out = tmp_path / "run"
    code, first, _ = _run(capsys, "simulate", SCENARIOS / "single_screw.json",
                          "--samples", 2000, "--reps", 2, "--out", out)
    assert code == 0
    code2, second, _ = _run(capsys, "report", "--out", out)
    assert code2 == 0
    assert second == first


def test_stdout_closed_early_exits_one_without_traceback():
    # the reader closes the pipe before the plan is written, as `| head` can
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-m", "dismantle.cli", "plan",
                             str(SCENARIOS / "valve.json"), "--samples", "2000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_memory_error_on_a_worker_is_the_samples_error(capsys, monkeypatch):
    from dismantle import dspace
    monkeypatch.setattr(dspace, "_usable_cpus", lambda: 2)
    chunked = dspace._by_chunks
    failed_on = []

    def last_chunk_fails(n, rows, fill):
        def fill_or_fail(buf, lo, hi):
            if hi == n:
                failed_on.append(threading.current_thread())
                raise MemoryError
            fill(buf, lo, hi)
        chunked(n, rows, fill_or_fail)

    monkeypatch.setattr(dspace, "_by_chunks", last_chunk_fails)
    before = threading.active_count()
    samples = 2 * dspace._CHUNK  # two chunks: the last one is the worker's
    code, out, err = _run(capsys, "plan", SCENARIOS / "valve.json",
                          "--samples", samples)
    assert code == 1 and out == ""
    assert err == f"error: --samples {samples} is too large to sample\n"
    assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()
    assert threading.active_count() == before


def test_cli_import_does_not_load_concurrent_futures():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, dismantle.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_bad_samples_rejected(capsys):
    # numpy refuses the 7 PiB array of 10**15 samples without allocating any
    # of it (MemoryError), and 10**23 samples are past its size limit
    # (ValueError)
    for samples in (0, 10**15, 10**23):
        code, out, err = _run(capsys, "plan", SCENARIOS / "valve.json",
                              "--samples", samples)
        assert code == 1 and out == ""
        assert err.startswith("error: --samples") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["plan", "decompose", "simulate"])
def test_negative_seed_rejected(capsys, command):
    code, out, err = _run(capsys, command, SCENARIOS / "single_screw.json",
                          "--samples", 500, "--seed", -1)
    assert (code, out, err) == (1, "", "error: --seed must be >= 0\n")


@pytest.mark.parametrize("command, out", [("plan", "missing/plan.json"),
                                          ("decompose", "missing/aps.jsonl"),
                                          ("simulate", "a_file")])
def test_unwritable_out_exits_one(tmp_path, capsys, command, out):
    (tmp_path / "a_file").write_text("")
    reps = ["--reps", 1] if command == "simulate" else []
    code, stdout, err = _run(capsys, command, SCENARIOS / "single_screw.json",
                             "--samples", 500, *reps, "--out", tmp_path / out)
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / out) in err


def test_simulate_unwritable_out_fails_before_simulating(tmp_path, capsys,
                                                         monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_experiment called despite an unwritable --out")

    monkeypatch.setattr("dismantle.cli.run_experiment", never)
    out = tmp_path / "a_file"
    out.write_bytes(b"kept")
    code, stdout, err = _run(capsys, "simulate", SCENARIOS / "single_screw.json",
                             "--samples", 500, "--reps", 2, "--out", out)
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_bytes() == b"kept"


@pytest.mark.parametrize("flag, value, message", [
    ("--reps", "0", "error: --reps must be >= 1\n"),
    ("--faults", "nope.json", "error: bad fault specification: "),
], ids=["reps", "faults"])
def test_simulate_checks_its_flags_before_planning(tmp_path, capsys, monkeypatch,
                                                   flag, value, message):
    def never(*args, **kwargs):
        raise AssertionError("plan_task called despite a bad " + flag)

    monkeypatch.setattr("dismantle.cli.plan_task", never)
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, "simulate", SCENARIOS / "valve.json",
                          "--samples", 500, flag, value)
    assert code == 1 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_missing_fault_file_fails_cleanly(tmp_path, capsys):
    code, _, err = _run(capsys, "simulate", SCENARIOS / "single_screw.json",
                        "--samples", 500, "--faults", tmp_path / "nope.json")
    assert code == 1 and "fault" in err


def test_report_on_missing_directory_fails_cleanly(tmp_path, capsys):
    code, _, err = _run(capsys, "report", "--out", tmp_path / "nothing")
    assert code == 1 and "runs.json" in err


def test_report_on_corrupt_runs_fails_cleanly(tmp_path, capsys):
    def run(**fields):
        entry = {"repetition": 0, "buckets": {"path": 1, "vsc": 0, "ftc": 0, "n": 0},
                 "outcome": "success", "error": None, "message": ""}
        return entry | fields

    docs = [
        {"runs": [{"repetition": 0}]},
        {"mp_count": 1, "runs": []},
        {"mp_count": 1, "runs": [5]},
        {"mp_count": 1, "runs": {}},
        {"mp_count": "x", "runs": [run()]},
        {"mp_count": 1, "runs": [run(buckets={"path": 1, "vsc": 0, "ftc": 0,
                                               "n": 0, "zz": 3})]},
        {"mp_count": 1, "runs": [run(buckets={"path": 1, "vsc": 0, "ftc": 0})]},
        {"mp_count": 1, "runs": [run(buckets={"path": 1.5, "vsc": 0, "ftc": 0,
                                               "n": 0})]},
        {"mp_count": 1, "runs": [run(repetition="0")]},
        {"mp_count": 1, "runs": [run(outcome="failure")]},
        {"mp_count": 1, "runs": [run(error="gremlins")]},
        {"mp_count": 1, "runs": [run(), run()]},
        [],
    ]
    out = tmp_path / "d"
    out.mkdir()
    for doc in docs:
        (out / "runs.json").write_text(json.dumps(doc))
        code, stdout, err = _run(capsys, "report", "--out", out)
        assert code == 1 and stdout == "", doc
        assert err.startswith("error: cannot aggregate") and err.count("\n") == 1, doc
    (out / "runs.json").write_text(json.dumps({"mp_count": 1, "runs": [run()]}))
    code, stdout, _ = _run(capsys, "report", "--out", out)
    assert code == 0 and stdout.startswith("t_exe in [s]            0.010")


@pytest.mark.parametrize("doc, says", [
    ([1, 2], "expected an object with mp_count and runs, not [1, 2]"),
    ({}, "the object has no mp_count key"),
    ({"runs": 5}, "the object has no mp_count key"),
    ({"mp_count": 3}, "the object has no runs key"),
    ({"mp_count": 3, "runs": 5}, "runs must be a list of run entries: 5"),
    ({"mp_count": 1, "runs": [], "extra": 1}, "unknown key 'extra'"),
    ({"mp_count": 1, "runs": [{"repetition": 0, "mesage": ""}]},
     "unknown key 'mesage'; did you mean 'message'? (field: runs[0])"),
])
def test_report_names_what_is_wrong_with_runs_file(tmp_path, capsys, doc, says):
    (tmp_path / "runs.json").write_text(json.dumps(doc))
    code, out, err = _run(capsys, "report", "--out", tmp_path)
    assert code == 1 and out == ""
    assert err == f"error: cannot aggregate {tmp_path / 'runs.json'}: {says}\n"


def test_scenario_file_never_modified(tmp_path, capsys):
    src = SCENARIOS / "single_screw.json"
    before = src.read_bytes()
    _run(capsys, "plan", src, "--samples", 500)
    _run(capsys, "decompose", src, "--samples", 500)
    assert src.read_bytes() == before
