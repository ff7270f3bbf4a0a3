import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("command", ["plan", "decompose", "simulate"])
@pytest.mark.parametrize("edit, field", [
    (_set_relation_entry, "relations[0]"),
    (_set_component_entry, "components[0]"),
    (_set_geometry, "relations[].geometry"),
    (lambda doc: doc.update(relations="x"), "relations"),
    (lambda doc: doc.update(components={}), "components"),
    (lambda doc: doc.update(tool_stations=[1, 2]), "tool_stations"),
    (lambda doc: doc.update(tool_map=[1]), "tool_map"),
    (_set_component_id([1]), "components[].id"),
    (_set_component_id({}), "components[].id"),
    (_set_features("x"), "components[screw_1].visual_features"),
    (_set_features([[0.01, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]]),
     "components[screw_1].visual_features"),
    (_set_features([["a", 0, 0], [0, 1, 0], [0, 0, 1]]),
     "components[screw_1].visual_features"),
    (_set_features([[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]),
     "components[screw_1].visual_features"),
    (_set_pair(5), "relations[].components"),
    (_set_pair(None), "relations[].components"),
    (_set_pair([[1], "base"]), "relations[].components"),
    (lambda doc: doc.update(reassemble="no"), "reassemble"),
], ids=["relation_entry", "component_entry", "geometry", "relations_str",
        "components_obj", "tool_stations_list", "tool_map_list",
        "component_id_list", "component_id_obj", "features_str",
        "features_ragged", "features_non_numeric", "features_nan",
        "pair_int", "pair_null", "pair_holds_list", "reassemble_str"])
def test_mistyped_collection_is_parse_error(tmp_path, capsys, command, edit, field):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    edit(doc)
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, command, bad, "--samples", 500)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"(field: {field})" in err and "fault" not in err


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


def test_validation_error_exit_code(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "single_screw.json").read_text())
    doc["relations"][0]["components"] = ["screw_1", "missing"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "plan", bad)
    assert code == 2 and "missing" in err


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


def test_bad_samples_rejected(capsys):
    code, _, err = _run(capsys, "plan", SCENARIOS / "valve.json", "--samples", 0)
    assert code == 1 and "samples" in err


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


def test_scenario_file_never_modified(tmp_path, capsys):
    src = SCENARIOS / "single_screw.json"
    before = src.read_bytes()
    _run(capsys, "plan", src, "--samples", 500)
    _run(capsys, "decompose", src, "--samples", 500)
    assert src.read_bytes() == before
