"""Smoke test of the benchmark under perfbench/: one op of each workload and
one pass of the per-layer probes, on the package under test.

The benchmark calls object-level functions that nothing else in the package
calls (``plant_step``, ``position_step``, the 6-axis ``admittance_step``,
``pose_step``, ``Pose.rotation``); this keeps them working.
"""

import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_one_op_of_each_workload_has_no_problems(perfbench):
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        info = workload(1).op(0)
        assert info["problems"] == [], name
        assert info["wall"] > 0.0, name


def test_probes_give_fourteen_finite_positive_values(perfbench, monkeypatch):
    import probes

    # one batch per probe: this checks the calls, not their speed
    monkeypatch.setattr(probes, "BUDGET_S", 0)
    monkeypatch.setattr(probes, "MIN_BATCHES", 1)
    values = probes.run_probes()
    assert len(values) == 14
    for name, value in values.items():
        assert math.isfinite(value) and value > 0.0, name
