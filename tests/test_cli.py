"""Config validation, the batch runner, report determinism, and the compare verb."""

import json
import pathlib

import numpy as np
import pytest

from commix import SchemaError, cli
from commix.cli import (
    DEFAULT_THRESHOLDS,
    EXAMPLE_CONFIGS,
    build_model,
    main,
    run_config,
    validate_config,
)
from commix.graphs import format_graph_window, line_window
from commix.operators import matrix_to_payload


def pair_config(**scenario_extra):
    scenario = {
        "name": "quick",
        "seed": 7,
        "model": {"type": "random-pair", "dim": 8},
        "tasks": ["identities"],
    }
    scenario.update(scenario_extra)
    return {"version": 1, "scenarios": [scenario]}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_validate_fills_defaults():
    cfg = validate_config(
        {
            "version": 1,
            "scenarios": [{"name": "a", "model": {"type": "shift"}, "tasks": ["identities"]}],
        }
    )
    sc = cfg["scenarios"][0]
    assert sc["seed"] == 0
    assert sc["schedule"] == [200, 400, 800]  # window multiples
    assert sc["thresholds"] == DEFAULT_THRESHOLDS
    assert sc["horizon"] == 128
    assert sc["expect_admissible"] is True
    assert sc["model"]["window"] == 200
    cfg2 = validate_config(
        {
            "version": 1,
            "scenarios": [
                {"name": "a", "model": {"type": "random-pair"}, "tasks": ["identities"]}
            ],
        },
        default_seed=42,
    )
    assert cfg2["scenarios"][0]["seed"] == 42
    assert cfg2["scenarios"][0]["schedule"] == [1, 2, 5, 17, 64]


def test_validate_error_paths_carry_field_names():
    def shift_scenario(**extra):
        sc = {"name": "a", "model": {"type": "shift"}, "tasks": ["identities"]}
        sc.update(extra)
        return {"version": 1, "scenarios": [sc]}

    cases = [
        ({}, "version"),
        ({"version": 2, "scenarios": []}, "version"),
        ({"version": 1}, "scenarios"),
        ({"version": 1, "scenarios": [{"model": {"type": "shift"}}]}, "name"),
        (shift_scenario(name="bad name"), "name"),
        ({"version": 1, "scenarios": [{"name": "a", "model": {"type": "wat"}}]}, "type"),
        (shift_scenario(model={"type": "shift", "oops": 1}), "oops"),
        (shift_scenario(tasks=None), "tasks"),
        (shift_scenario(tasks=["mystery"]), "tasks"),
        (shift_scenario(tasks=["identities", "identities"]), "tasks"),
        (shift_scenario(schedule=[4, 4]), "schedule"),
        (shift_scenario(thresholds={"nope": 1.0}), "nope"),
        (shift_scenario(expect_admissible="yes"), "expect_admissible"),
        (shift_scenario(stray_field=1), "stray_field"),
        (
            {
                "version": 1,
                "scenarios": [
                    {"name": "a", "model": {"type": "shift"}, "tasks": ["identities"]},
                    {"name": "a", "model": {"type": "shift"}, "tasks": ["identities"]},
                ],
            },
            "duplicate",
        ),
        ({"version": 1, "scenarios": [], "stray": True}, "scenarios"),
    ]
    for raw, token in cases:
        with pytest.raises(SchemaError) as info:
            validate_config(raw)
        assert token in str(info.value), f"{token!r} not in {info.value}"


def test_validate_torus_grids_must_be_powers_of_two():
    def model_config(**model):
        return {"version": 1, "scenarios": [{"name": "a", "model": model, "tasks": ["degree"]}]}

    torus = {"type": "torus", "y": 0.6180339887498949, "winding": 2, "sector": 3}
    for field, size in (("grid", 1000), ("matrix_size", 100)):
        with pytest.raises(SchemaError) as info:
            validate_config(model_config(**torus, **{field: size}))
        assert f"scenarios[0].model.{field}" in str(info.value)
        assert "power of two" in str(info.value)
    validate_config(model_config(**torus, grid=1024, matrix_size=128))
    # SU(2) fields are closed-form orbit averages on any grid
    su2 = validate_config(model_config(type="su2", y=0.41421356237309515, grid=100))
    assert su2["scenarios"][0]["model"]["grid"] == 100


def test_validate_rejects_graph_task_on_pair_model():
    raw = pair_config(tasks=["admissibility"])
    with pytest.raises(SchemaError):
        validate_config(raw)


def test_run_pair_identities(tmp_path, capsys):
    path = write_config(tmp_path, pair_config())
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario quick: pass" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["format"] == "run-report"
    assert report["version"] == 2
    assert report["status"] == "pass"
    # timing lives in the meta file so reports stay byte-reproducible
    assert "started" not in json.dumps(report)
    meta = json.loads((tmp_path / "out" / "report.meta.json").read_text())
    assert "started" in meta


def test_run_is_byte_deterministic(tmp_path):
    config = {
        "version": 1,
        "scenarios": [
            {
                "name": "pair",
                "seed": 3,
                "model": {"type": "random-pair", "dim": 8},
                "tasks": ["identities", "degree"],
                "schedule": [1, 2, 5],
            },
            {
                "name": "graph",
                "model": {"type": "graph-line", "length": 40, "margin": 2},
                "tasks": ["identities", "admissibility"],
                "thresholds": {"graph_flow_residual": 1.0},
            },
        ],
    }
    path = write_config(tmp_path, config)
    codes = [
        main(["run", str(path), "--out", str(tmp_path / "a")]),
        main(["run", str(path), "--out", str(tmp_path / "b")]),
        main(["run", str(path), "--out", str(tmp_path / "c"), "--threads", "2"]),
    ]
    assert codes in ([0, 0, 0], [1, 1, 1])
    blob = (tmp_path / "a" / "report.json").read_bytes()
    assert (tmp_path / "b" / "report.json").read_bytes() == blob
    assert (tmp_path / "c" / "report.json").read_bytes() == blob


def test_task_metrics_do_not_depend_on_task_order(tmp_path):
    rows = {}
    for order in (["degree", "mixing"], ["mixing", "degree"]):
        config = validate_config(pair_config(tasks=order, schedule=[1, 2, 5]))
        report = run_config(config, tmp_path / "-".join(order))
        rows[tuple(order)] = {t["task"]: t["metrics"] for t in report["scenarios"][0]["tasks"]}
    assert rows[("degree", "mixing")] == rows[("mixing", "degree")]


def test_warn_statuses_and_strict(tmp_path, capsys):
    # a generic random pair has no degree limit at these horizons: the runner
    # must say so rather than fail
    config = pair_config(tasks=["identities", "degree"], schedule=[1, 2, 5])
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "o1")]) == 0
    report = json.loads((tmp_path / "o1" / "report.json").read_text())
    sc = report["scenarios"][0]
    task_status = {t["task"]: t["status"] for t in sc["tasks"]}
    assert task_status["identities"] == "pass"
    assert task_status["degree"] == "warn"
    assert sc["status"] == "warn"
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "o2"), "--strict"]) == 1


def test_failing_threshold_exits_one(tmp_path):
    config = pair_config(thresholds={"identity_residual": 1e-18, "alternative_agreement": 1e-18})
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "fail"


def test_graph_cycle4_expectation(tmp_path):
    config = {
        "version": 1,
        "scenarios": [
            {
                "name": "cycle",
                "model": {"type": "graph-cycle4-alt"},
                "tasks": ["admissibility"],
                "expect_admissible": False,
            }
        ],
    }
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    task = report["scenarios"][0]["tasks"][0]
    assert task["status"] == "pass"
    assert task["metrics"]["witness_pair"] == [0, 2]
    assert task["metrics"]["witness_counts"] == [2, 0]


def test_usage_errors_exit_two(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing), "--out", str(tmp_path / "x")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", str(bad), "--out", str(tmp_path / "x")]) == 2
    schema = write_config(tmp_path, {"version": 99, "scenarios": []}, "schema.json")
    assert main(["run", str(schema), "--out", str(tmp_path / "x")]) == 2


def test_compare_verb(tmp_path, capsys):
    path = write_config(tmp_path, pair_config())
    assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    left = tmp_path / "a" / "report.json"
    right = tmp_path / "b" / "report.json"
    capsys.readouterr()
    assert main(["compare", str(left), str(right)]) == 0
    assert "reports match" in capsys.readouterr().out

    # nudge one number beyond tolerance
    doc = json.loads(right.read_text())
    metrics = doc["scenarios"][0]["tasks"][0]["metrics"]
    metrics["residuals"][0] = metrics["residuals"][0] + 1.0
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    assert main(["compare", str(left), str(mutated)]) == 1

    # incompatible documents
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else"}))
    assert main(["compare", str(left), str(other)]) == 2
    versioned = tmp_path / "versioned.json"
    versioned.write_text(json.dumps(dict(doc, version=doc["version"] + 1)))
    assert main(["compare", str(left), str(versioned)]) == 2


def test_emit_examples_all_validate(tmp_path):
    assert main(["emit-examples", "--out", str(tmp_path / "cfg")]) == 0
    written = sorted(p.name for p in (tmp_path / "cfg").glob("*.json"))
    assert written == sorted(EXAMPLE_CONFIGS)
    assert len(written) == 5
    for name in written:
        raw = json.loads((tmp_path / "cfg" / name).read_text())
        validate_config(raw)  # must parse cleanly


def test_run_config_accepts_validated_dict(tmp_path):
    config = validate_config(pair_config())
    report = run_config(config, tmp_path / "direct")
    assert report["status"] == "pass"
    assert (tmp_path / "direct" / "report.json").exists()


def test_report_echo_is_runnable(tmp_path):
    # the scenario echo in the report must reassemble into a valid config
    path = write_config(tmp_path, pair_config(tasks=["identities"]))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    sc = report["scenarios"][0]
    echoed = {
        "version": 1,
        "scenarios": [
            {
                "name": sc["name"],
                "seed": sc["seed"],
                "model": sc["model"],
                "schedule": sc["schedule"],
                "horizon": sc["horizon"],
                "expect_admissible": sc["expect_admissible"],
                "tasks": [row["task"] for row in sc["tasks"]],
            }
        ],
    }
    validated = validate_config(echoed)
    assert validated["scenarios"][0]["seed"] == 7
    assert validated["scenarios"][0]["model"]["dim"] == 8


def model_cases(tmp_path):
    """One minimal model per model type (two where fields pick the family).

    Each case: label, model, documented default schedule and horizon, and the
    tasks the README lists as supported.
    """
    graph_file = tmp_path / "line.graph"
    graph_file.write_text(format_graph_window(line_window(12, 2)))
    payload = matrix_to_payload
    steps = [1, 2, 5, 17, 64]
    pair_tasks = {"identities", "degree", "mixing", "summability", "fourier"}
    graph_tasks = {"identities", "degree", "admissibility"}
    torus = {"type": "torus", "winding": 2, "sector": 3}
    return [
        ("random-pair", {"type": "random-pair"}, steps, 128, pair_tasks),
        ("matrix-pair unitary",
         {"type": "matrix-pair", "unitary": payload(np.eye(2)), "conjugate": payload(np.diag([1.0, -1.0]))},
         steps, 128, pair_tasks),
        ("matrix-pair generator",
         {"type": "matrix-pair", "generator": payload(np.diag([1.0, 2.0])), "conjugate": payload(np.eye(2))},
         [0.5, 1.5, 3.0], 128, pair_tasks - {"fourier"}),
        ("shift", {"type": "shift"}, [200, 400, 800], 128, pair_tasks),
        ("torus 1-D", {**torus, "y": 0.6180339887498949}, [16, 32, 64, 128, 256, 512, 1024], 512,
         pair_tasks),
        ("torus 2-D", {**torus, "y": [0.6180339887498949, 0.41421356237309515], "winding": [[2, 1]]},
         [16, 32, 64, 128, 256, 512, 1024], 512, {"degree", "mixing", "summability"}),
        ("su2", {"type": "su2", "y": 0.41421356237309515}, [2000], 128, {"identities", "degree"}),
        ("graph-line", {"type": "graph-line"}, steps, 128, graph_tasks),
        ("graph-grid2d", {"type": "graph-grid2d"}, steps, 128, graph_tasks),
        ("graph-cycle4-alt", {"type": "graph-cycle4-alt"}, steps, 128, graph_tasks),
        ("graph-file", {"type": "graph-file", "path": str(graph_file)}, steps, 128, graph_tasks),
    ]


def test_every_model_type_validates_with_documented_defaults_and_builds(tmp_path):
    cases = model_cases(tmp_path)
    assert {model["type"] for _, model, *_ in cases} == set(cli.MODEL_TYPES)
    for label, model, schedule, horizon, tasks in cases:
        raw = {"version": 1, "scenarios": [{"name": "a", "model": model, "tasks": sorted(tasks)}]}
        sc = validate_config(raw)["scenarios"][0]
        assert sc["schedule"] == schedule, label
        assert sc["horizon"] == horizon, label
        assert build_model(sc), label


def test_validation_accepts_exactly_the_supported_tasks(tmp_path):
    for label, model, _, _, supported in model_cases(tmp_path):
        first = sorted(supported)[0]
        for task in ("identities", "degree", "mixing", "summability", "fourier", "admissibility"):
            if task == first:
                continue
            raw = {"version": 1, "scenarios": [{"name": "a", "model": model, "tasks": [first, task]}]}
            if task in supported:
                validate_config(raw)
                continue
            with pytest.raises(SchemaError) as info:
                validate_config(raw)
            assert "config.scenarios[0].tasks[1]" in str(info.value), (label, task)
            assert "not supported" in str(info.value), (label, task)


def test_validation_rejects_tasks_that_always_fail():
    generator = {"type": "matrix-pair", "generator": matrix_to_payload(np.diag([1.0, 2.0])),
                 "conjugate": matrix_to_payload(np.eye(2))}
    torus_2d = {"type": "torus", "y": [0.6180339887498949, 0.41421356237309515],
                "winding": [[2, 1]], "sector": 3, "grid": 64}
    cases = [
        (generator, ["identities", "fourier"], 1),
        (torus_2d, ["identities"], 0),
        (torus_2d, ["degree", "fourier"], 1),
    ]
    for model, tasks, j in cases:
        raw = {"version": 1, "scenarios": [{"name": "a", "model": model, "tasks": tasks}]}
        with pytest.raises(SchemaError) as info:
            validate_config(raw)
        assert f"config.scenarios[0].tasks[{j}]" in str(info.value)


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    config = pair_config()
    del config["scenarios"][0]["seed"]
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "-3"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    with pytest.raises(SchemaError):
        validate_config(pair_config(), default_seed=-1)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "3"]) == 0


def test_shared_operators_are_built_once_per_scenario(tmp_path, monkeypatch):
    calls = {"sector_matrix": 0, "build_operators": 0}

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    config = validate_config({
        "version": 1,
        "scenarios": [
            {"name": "torus", "model": {"type": "torus", "y": 0.6180339887498949, "winding": 2,
                                        "sector": 3, "grid": 64, "matrix_size": 64},
             "tasks": ["identities", "fourier"]},
            {"name": "line", "model": {"type": "graph-line", "length": 40, "margin": 2},
             "tasks": ["identities", "degree"], "thresholds": {"graph_flow_residual": 1.0}},
        ],
    })
    report = run_config(config, tmp_path / "out")
    for sc in report["scenarios"]:
        for row in sc["tasks"]:
            assert "error" not in row["metrics"], (sc["name"], row)
    assert calls == {"sector_matrix": 1, "build_operators": 1}
