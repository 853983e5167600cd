"""Tests of the benchmark itself: output schema, generators, span recorder.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
No test asserts a timing.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from commix import cli, commutators, operators  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_json_pins_metric_names_and_units(spec):
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_span_belongs_to_a_layer():
    assert {name.split(".")[0] for name in spans.span_names()} == set(spans.LAYERS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_validate_and_pin_every_task(workload):
    raw, expected, files = workloads.make_config(workload, seed=3)
    again = workloads.make_config(workload, seed=3)
    assert json.dumps(again[0]) == json.dumps(raw) and again[2] == files
    config = cli.validate_config(raw)
    for scenario in config["scenarios"]:
        assert list(expected[scenario["name"]]) == scenario["tasks"]
    for rel in files:
        assert not pathlib.PurePosixPath(rel).is_absolute() and ".." not in rel


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_scenario_of_each_workload_meets_its_pins(workload, tmp_path, monkeypatch):
    raw, expected, files = workloads.make_config(workload, seed=5)
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    monkeypatch.chdir(tmp_path)
    config = cli.validate_config(raw)
    cheapest = min(config["scenarios"], key=_cost)
    report = cli.run_config({"version": 1, "scenarios": [cheapest]}, tmp_path / "out")
    assert run.status_failures(report, {cheapest["name"]: expected[cheapest["name"]]}) == []
    assert all(r >= 0 for r in run.gate_ratios(report))


def _cost(scenario):
    model = scenario["model"]
    size = model.get("dim", model.get("length", model.get("grid", 4)))
    return size * max(scenario["schedule"]) * len(scenario["tasks"])


def test_status_failures_flags_fail_drift_and_missing():
    report = {"scenarios": [{"name": "a", "tasks": [
        {"task": "identities", "status": "pass"},
        {"task": "degree", "status": "warn"},
        {"task": "mixing", "status": "fail"},
    ]}]}
    pins = {"a": {"identities": "pass", "degree": "pass", "mixing": "fail", "fourier": "pass"}}
    failures = run.status_failures(report, pins)
    assert [f.split(":")[0] for f in failures] == ["a/degree", "a/mixing", "a/fourier"]


def test_rerun_mismatches_counts_tasks_of_changed_scenarios():
    def doc(value):
        return json.dumps({"scenarios": [
            {"name": "a", "tasks": [{"task": "t", "status": "pass", "metrics": {"x": value}}] * 2},
            {"name": "b", "tasks": [{"task": "t", "status": "pass", "metrics": {}}]},
        ]})

    assert run.rerun_mismatches(doc(1.0), doc(1.0)) == 0
    assert run.rerun_mismatches(doc(1.0), doc(2.0)) == 2


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_or_none(list(range(99))) is None
    assert run.p90_or_none(list(range(101))) == pytest.approx(90.0)


def test_self_times_subtract_children_and_sum_to_root_time():
    recorded = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 6.0, 0],
        ["outer", 20.0, 21.0, -1],
    ]
    times = spans.self_times(recorded)
    assert times["outer"] == (2, pytest.approx(7.0))
    assert times["inner"] == (2, pytest.approx(3.0))
    assert times["leaf"] == (1, pytest.approx(1.0))
    assert sum(s for _, s in times.values()) == pytest.approx(spans.root_time(recorded))


def test_tracer_records_nested_calls_in_every_namespace_and_restores_them():
    original = operators.spectral_norm
    pair = commutators.OperatorPair.discrete(*_small_pair())
    with spans.Tracer() as tracer:
        assert cli.spectral_norm is not original
        assert commutators.spectral_norm is cli.spectral_norm
        commutators.degree_identity_check(pair, 3)
    assert cli.spectral_norm is original and commutators.spectral_norm is original
    times = spans.self_times(tracer.spans)
    assert times["commutators.degree_identity_check"][0] == 1
    assert times["commutators.birkhoff_discrete"][0] == 1
    assert times["operators.spectral_norm"][0] == 3
    assert tracer.counters["commutators.birkhoff_steps"] == 3
    by_index = tracer.spans
    check = next(i for i, s in enumerate(by_index) if s[0] == "commutators.degree_identity_check")
    assert all(s[3] == check for s in by_index if s[0] == "commutators.birkhoff_discrete")
    assert tracer.absent == []


def test_tracer_reports_missing_names_as_absent_instead_of_failing():
    targets = spans.TARGETS + (
        ("commutators.deleted_kernel", "commix.commutators", "deleted_kernel"),
        ("mixing.GoneClass.to_csv", "commix.mixing", "GoneClass.to_csv"),
        ("gone.module", "commix.no_such_module", "anything"),
    )
    counters = {"commutators.birkhoff_discrete": lambda a, r: {"x": a["renamed_argument"]}}
    pair = commutators.OperatorPair.discrete(*_small_pair())
    with spans.Tracer(targets, counters) as tracer:
        commutators.degree_identity_check(pair, 2)
    assert len(tracer.absent) == 4
    assert any("deleted_kernel" in a for a in tracer.absent)
    assert any("no_such_module" in a for a in tracer.absent)
    assert "counter of commutators.birkhoff_discrete" in tracer.absent
    assert spans.self_times(tracer.spans)["commutators.birkhoff_discrete"][0] == 1


def test_traced_classes_keep_working_and_are_restored():
    original = commutators.DegreeEstimate.to_json
    inherited = ("cli.serialize", "commix.commutators", "DegreeEstimate.__sizeof__")
    pair = commutators.OperatorPair.discrete(*_small_pair())
    with spans.Tracer(spans.TARGETS + (inherited,)) as tracer:
        estimate = commutators.estimate_degree(pair, [1, 2, 4])
        estimate.to_json()
    assert commutators.DegreeEstimate.to_json is original
    assert "__sizeof__" not in vars(commutators.DegreeEstimate)
    times = spans.self_times(tracer.spans)
    assert times["cli.serialize"][0] == 2  # to_json and the matrix_to_payload inside it
    assert tracer.counters["commutators.birkhoff_steps"] == 4


def _small_pair():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    h = z + z.conj().T
    return q, h
