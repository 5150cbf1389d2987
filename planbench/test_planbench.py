"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest planbench -q
"""
import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from secuav import harness
from secuav.convex_backend import TROUBLE
from secuav.planner import IterationRecord, run_best_effort
from secuav.scenario import validate

import workloads
from bench import END_TO_END_UNITS, layer_unit, run_round
from checks import plan_failures, sweep_csv_problems
from tracing import ENTRY_POINTS, LAYER_SITES, Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["fine_slots", "many_eves"])
def test_same_seed_same_scenarios(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_fig2_sweep_and_seed_zero_are_the_shipped_scenario():
    shipped = harness.load_scenario(ROOT / "scenarios" / "paper_fig2.json")
    for seed in (0, 7):
        (spec,) = workloads.generate("fig2_sweep", seed)
        assert spec.base == shipped
    (fine,) = workloads.generate("fine_slots", 0)
    assert fine.base == dataclasses.replace(shipped, slot_len=0.1, n_slots=1600)


def test_many_eves_draws_are_valid_and_in_range():
    for spec in workloads.generate("many_eves", 3):
        assert not validate(spec.base)
        assert len(spec.base.eves) == workloads.MANY_EVES_DISKS
        for eve in spec.base.eves:
            assert -350.0 <= eve.center_x <= 350.0
            assert -150.0 <= eve.center_y <= 250.0
            assert 5.0 <= eve.radius <= 80.0


def test_plan_ending_in_numerical_trouble_fails():
    scenario = workloads.paper_fig2()
    plan = run_best_effort(scenario)
    assert plan_failures(plan, scenario) == []
    record = IterationRecord(1, 0.0, plan.trajectory, plan.powers, TROUBLE, 0.0)
    troubled = dataclasses.replace(plan, iterations=(record,), converged=False)
    assert any(TROUBLE in reason for reason in plan_failures(troubled, scenario))
    misreported = dataclasses.replace(plan, secrecy_rate=plan.secrecy_rate + 1e-3)
    assert plan_failures(misreported, scenario)


def _sites():
    sites = [(harness, name) for name in ENTRY_POINTS]
    sites += [(importlib.import_module(m), attr) for m, attr, _ in LAYER_SITES]
    return {(m.__name__, attr): getattr(m, attr) for m, attr in sites}


def test_traced_round_records_every_layer_and_restores_wrappers(tmp_path):
    before = _sites()
    tracer = Tracer()
    rnd = run_round([workloads.warmup()], tmp_path, tracer)
    assert _sites() == before
    assert not rnd.problems and len(rnd.plans) == 3
    names = {s.name for s in tracer.spans}
    assert {span for _, _, span in LAYER_SITES} <= names
    m = layer_metrics(tracer.spans, 1)
    assert m["planner.plans"] == 3
    assert m["convex_backend.newton_steps"] > 0
    assert m["convex_backend.python_s"] > 0


def test_wrappers_restored_when_a_plan_raises(monkeypatch):
    before = _sites()

    def broken(scenario):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_best_effort", broken)
    before[("secuav.harness", "run_best_effort")] = broken
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            harness.run_best_effort(workloads.paper_fig2())
    assert _sites() == before


def test_sweep_csv_check_finds_a_missing_row(tmp_path):
    spec = workloads.warmup()
    with instrument(None) as captured:
        harness.run_sweep(spec, tmp_path)
    csv_path = tmp_path / "sweep.csv"
    assert sweep_csv_problems(csv_path, spec, captured) == []
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    assert sweep_csv_problems(csv_path, spec, captured)


def test_benchmark_json_names_what_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    printed = set(layer_metrics([], 1)) | {"harness.run_sweep.serial_s", "trace.overhead"}
    assert {m["name"] for m in doc["per_layer"]} == printed
    assert all(m["unit"] == layer_unit(m["name"]) for m in doc["per_layer"])
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
