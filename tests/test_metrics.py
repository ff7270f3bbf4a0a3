import json

import pytest

from dismantle import metrics
from dismantle.control import CLOCK_UNIT_S, run_skill
from dismantle.errors import ErrorType, SingularJacobian
from dismantle.metrics import (BUCKETS, FaultSpec, RunResult, aggregate,
                               execute_once, load_fault_specs, run_experiment)
from dismantle.model import load_model_dict
from dismantle.planner import plan_task
from dismantle.skills import ControlMode, ExecState, SkillName, interpret


@pytest.fixture(scope="module")
def screw_task(single_screw_model, dirs2k):
    return plan_task(single_screw_model, dirs2k), single_screw_model


@pytest.fixture(scope="module")
def valve_task(valve_model, dirs2k):
    return plan_task(valve_model, dirs2k), valve_model


def test_clean_run_uses_all_buckets(valve_task):
    plans, model = valve_task
    res = execute_once(plans, model, seed=0, repetition=0)
    assert res.outcome == "success"
    for bucket in BUCKETS:
        assert res.buckets[bucket] > 0, bucket
    assert res.total_units == sum(res.buckets.values())


def test_bucket_identity_exact(screw_task):
    plans, model = screw_task
    res = execute_once(plans, model, seed=0, repetition=0)
    assert res.total_units - sum(res.buckets.values()) == 0


def test_device_fault_classification(screw_task):
    plans, model = screw_task
    res = execute_once(plans, model, seed=0, repetition=0,
                       faults=[FaultSpec("tool_slip", 0)])
    assert res.outcome == "failure"
    assert res.error is ErrorType.DEVICE
    assert "not retained" in res.message


def test_force_noise_classified_sense_and_control(valve_task):
    plans, model = valve_task
    res = execute_once(plans, model, seed=0, repetition=0,
                       faults=[FaultSpec("force_noise", 0, sigma=6.0)])
    assert res.outcome == "failure"
    assert res.error is ErrorType.SENSE_AND_CONTROL


def test_feature_dropout_times_out_as_sense_and_control(screw_task):
    plans, model = screw_task
    res = execute_once(plans, model, seed=0, repetition=0,
                       faults=[FaultSpec("feature_dropout", 0)])
    assert res.outcome == "failure"
    assert res.error is ErrorType.SENSE_AND_CONTROL


def test_singular_jacobian_books_partial_log(screw_task, monkeypatch):
    plans, model = screw_task
    ended = []

    def singular_fine_pos(ap, state, start_units=0, fault=None):
        new, log = run_skill(ap, state, start_units=start_units, fault=fault)
        if ap.name is SkillName.FINE_POS:
            ended.append(new.pose)
            exc = SingularJacobian("feature set is degenerate for servoing")
            exc.state, exc.log = new, log
            raise exc
        return new, log

    monkeypatch.setattr(metrics, "run_skill", singular_fine_pos)
    res = execute_once(plans, model, seed=0, repetition=0, collect_rows=True)
    assert res.outcome == "failure"
    assert res.error is ErrorType.SENSE_AND_CONTROL
    assert res.buckets["vsc"] > 0
    assert res.rows[-1].t_units == res.total_units
    fine = [r for r in res.trace.records if r.ap.name is SkillName.FINE_POS]
    assert len(fine) == 1 and fine[0].result.end_pose is ended[0]


def test_fault_selection_counts_eligible_skills_per_kind(valve_task):
    from dismantle.cli import _dry_executor
    plans, model = valve_task
    state = ExecState.initial(
        model, detection_noise=metrics.detection_offsets(model, 3, 0))
    aps = [r.ap for r in interpret(plans, state, model, _dry_executor).records]
    faults = [FaultSpec("tool_slip", 0), FaultSpec("tool_slip", 0, ap_index=2),
              FaultSpec("force_noise", 0, ap_index=1, sigma=1.0),
              FaultSpec("force_noise", 0, sigma=2.0),
              FaultSpec("feature_dropout", 0, ap_index=1)]
    executor = metrics._Executor(model, 0, 0, faults)
    hits = [executor._faults_for(ap) for ap in aps]
    slips = [h["tool_slip"] for h in hits if "tool_slip" in h]
    assert slips == [faults[0], faults[1]]  # an unindexed slip hits once
    ftc = [ap for ap in aps if ControlMode.FTC in ap.hm.control]
    sigmas = [h["force_noise"].sigma for h in hits if "force_noise" in h]
    assert sigmas == [2.0, 1.0] + [2.0] * (len(ftc) - 2)  # first match wins
    fine = [i for i, ap in enumerate(aps) if ap.name is SkillName.FINE_POS]
    assert [i for i, h in enumerate(hits) if "feature_dropout" in h] == fine[1:2]

def test_fault_in_other_repetition_ignored(screw_task):
    plans, model = screw_task
    res = execute_once(plans, model, seed=0, repetition=1,
                       faults=[FaultSpec("tool_slip", 0)])
    assert res.outcome == "success"


def test_run_experiment_success_rates(screw_task):
    plans, model = screw_task
    report, results = run_experiment(plans, model, repetitions=5, seed=0)
    assert report.success_rate == 1.0
    assert not report.failures
    report2, _ = run_experiment(plans, model, repetitions=5, seed=0,
                                faults=[FaultSpec("tool_slip", 3)])
    assert report2.success_rate == 0.8
    assert report2.failures == [(3, ErrorType.DEVICE)]


def test_single_repetition_zero_sigma(screw_task):
    plans, model = screw_task
    report, _ = run_experiment(plans, model, repetitions=1, seed=0)
    assert report.sigma == {k: 0.0 for k in ("exe", "path", "vsc", "ftc", "n")}


def test_report_determinism(screw_task):
    plans, model = screw_task
    a, _ = run_experiment(plans, model, repetitions=2, seed=4)
    b, _ = run_experiment(plans, model, repetitions=2, seed=4)
    assert a.to_json() == b.to_json()


def test_bucket_mean_identity(screw_task):
    plans, model = screw_task
    report, results = run_experiment(plans, model, repetitions=3, seed=0)
    for r in results:
        assert r.total_units == sum(r.buckets.values())
    assert abs(report.t["exe"] - sum(report.t[b] for b in BUCKETS)) < 1e-9


def test_aggregation_order_independent(screw_task):
    plans, model = screw_task
    _, results = run_experiment(plans, model, repetitions=3, seed=0)
    fwd = aggregate(results, mp_count=1)
    rev = aggregate(list(reversed(results)), mp_count=1)
    assert fwd.to_json() == rev.to_json()


def test_failed_repetition_never_counts_as_success(screw_task):
    plans, model = screw_task
    report, results = run_experiment(plans, model, repetitions=2, seed=0,
                                     faults=[FaultSpec("tool_slip", 0),
                                             FaultSpec("tool_slip", 1)])
    assert report.success_rate == 0.0
    assert all(r.outcome == "failure" for r in results)


def test_unresolvable_goal_classified_as_planning_error(single_screw_model,
                                                        dirs2k):
    import dataclasses
    plans = plan_task(single_screw_model, dirs2k)
    broken = dataclasses.replace(single_screw_model, tool_stations={})
    res = execute_once(plans, broken, seed=0, repetition=0)
    assert res.outcome == "failure"
    assert res.error is ErrorType.PLANNING
    assert "station" in res.message


def test_planning_failure_books_executed_skills(valve_path, dirs2k):
    # without a gripper station the valve run executes its unscrew steps,
    # then fails to decompose the first gripper fetch
    doc = json.loads(valve_path.read_text())
    del doc["tool_stations"]["gripper"]
    model = load_model_dict(doc)
    res = execute_once(plan_task(model, dirs2k), model, seed=0, repetition=0,
                       collect_rows=True)
    assert res.error is ErrorType.PLANNING
    assert res.total_units > 0
    assert res.rows[-1].t_units == res.total_units

def test_fault_spec_loading(tmp_path):
    doc = tmp_path / "faults.json"
    doc.write_text('{"faults": [{"kind": "tool_slip", "repetition": 2},'
                   '{"kind": "force_noise", "repetition": 0, "sigma": 4.5}]}')
    specs = load_fault_specs(doc)
    assert len(specs) == 2
    assert specs[0].kind == "tool_slip" and specs[0].repetition == 2
    assert specs[1].sigma == 4.5
    for bad in ([], "x", {"faults": [5]}):
        doc.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            load_fault_specs(doc)


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError):
        FaultSpec("gremlins", 0)
    bad = [dict(repetition=-3), dict(repetition=1.0), dict(repetition=True),
           dict(ap_index=-1), dict(ap_index="x"), dict(ap_index=0.0),
           dict(sigma=float("nan")), dict(sigma=float("inf")),
           dict(sigma=-1.0), dict(sigma=0.0), dict(sigma=True), dict(sigma="6"),
           dict(sigma=10**400)]
    for fields in bad:
        spec = dict(kind="force_noise", repetition=0) | fields
        with pytest.raises(ValueError):
            FaultSpec(**spec)
    ok = FaultSpec("tool_slip", 0, ap_index=0, sigma=0.5)
    assert (ok.repetition, ok.ap_index, ok.sigma) == (0, 0, 0.5)


def test_table_formatting_labels(screw_task):
    plans, model = screw_task
    report, _ = run_experiment(plans, model, repetitions=1, seed=0)
    table = report.format_table()
    for label in ("t_exe", "t_path", "t_vsc", "t_ftc", "t_n",
                  "sigma_exe", "sigma_path", "sigma_vsc", "sigma_ftc",
                  "sigma_n", "|MP|", "S"):
        assert label in table


def test_report_times_in_seconds(screw_task):
    plans, model = screw_task
    report, results = run_experiment(plans, model, repetitions=1, seed=0)
    assert report.t["exe"] == pytest.approx(results[0].total_units * CLOCK_UNIT_S)


def test_tick_csv_shape(tmp_path, screw_task):
    from dismantle.metrics import write_tick_csv
    plans, model = screw_task
    res = execute_once(plans, model, seed=0, repetition=0, collect_rows=True)
    out = tmp_path / "ticks.csv"
    write_tick_csv(res.rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("t,controller,ux,uy,uz,wx,wy,wz,"
                        "Fx,Fy,Fz,Tx,Ty,Tz,feat_err_px")
    assert len(lines) == len(res.rows) + 1
    fields = lines[1].split(",")
    assert len(fields) == 15
    float(fields[0])  # timestamps parse as seconds
    assert fields[1] in ("path", "vsc", "ftc", "n")
    # timestamps are strictly ordered within a run
    times = [float(line.split(",", 1)[0]) for line in lines[1:]]
    assert times == sorted(times)


def test_aggregate_rejects_a_repetition_listed_twice():
    run = RunResult(0, {"path": 1, "vsc": 0, "ftc": 0, "n": 0}, "success", None, "")
    with pytest.raises(ValueError, match="more than once"):
        aggregate([run, run], mp_count=1)


def test_report_format_pinned():
    # two hand-built repetitions, given out of order; the strings are the
    # report.txt table and the sorted report.json of the reference format
    runs = [RunResult(1, {"path": 1000, "vsc": 2017, "ftc": 300, "n": 503},
                      "failure", ErrorType.DEVICE, "screw_1 not retained"),
            RunResult(0, {"path": 1234, "vsc": 2345, "ftc": 345, "n": 456},
                      "success", None, "")]
    report = aggregate(runs, mp_count=3)
    assert report.format_table() == (
        "t_exe in [s]           41.000\n"
        "t_path in [s]          11.170\n"
        "t_vsc in [s]           21.810\n"
        "t_ftc in [s]            3.225\n"
        "t_n in [s]              4.795\n"
        "sigma_exe in [s]        2.800\n"
        "sigma_path in [s]       1.170\n"
        "sigma_vsc in [s]        1.640\n"
        "sigma_ftc in [s]        0.225\n"
        "sigma_n in [s]          0.235\n"
        "|MP|                        3\n"
        "S                        0.50\n"
        "failures           rep 1: device")
    assert json.dumps(report.to_json(), sort_keys=True) == (
        '{"S": 0.5, "failures": [[1, "device"]], "per_rep": ['
        '{"buckets": {"ftc": 345, "n": 456, "path": 1234, "vsc": 2345}, '
        '"error": null, "message": "", "outcome": "success", "repetition": 0}, '
        '{"buckets": {"ftc": 300, "n": 503, "path": 1000, "vsc": 2017}, '
        '"error": "device", "message": "screw_1 not retained", '
        '"outcome": "failure", "repetition": 1}], "repetitions": 2, '
        '"sigma_exe": 2.8000000000000007, "sigma_ftc": 0.2250000000000001, '
        '"sigma_n": 0.23499999999999988, "sigma_path": 1.17, '
        '"sigma_vsc": 1.6399999999999988, "t_exe": 41.0, "t_ftc": 3.225, '
        '"t_n": 4.795, "t_path": 11.17, "t_vsc": 21.810000000000002, "|MP|": 3}')
