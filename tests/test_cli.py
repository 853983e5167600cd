"""Config validation, the batch runner, report determinism, and the compare verb."""

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from commix import SchemaError, cli, commutators, graphs
from commix.cli import (
    DEFAULT_THRESHOLDS,
    EXAMPLE_CONFIGS,
    build_model,
    main,
    run_config,
    validate_config,
)
from commix.graphs import format_graph_window, line_window
from commix.mixing import CorrelationSeries
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


@pytest.mark.parametrize("fields, token", [
    ({"winding": [[2.5]], "sector": [1]}, "winding[0]"),
    ({"winding": [[2, 1], [1, 0]], "sector": [1]}, "sector"),
    ({"winding": [[2, 1]], "sector": [1.5]}, "sector"),
    ({"winding": [[2, 1], [1, 0]], "sector": [1, 2], "eta": [[[1, 0], 0.0, 0.1], [[-1, 0], 0.0, -0.1]]},
     "eta"),
])
def test_validate_torus_winding_rows_sector_and_eta(fields, token):
    # the cocycle holds only W^T q and q.eta, so the rows and the sector are
    # checked here, before build projects them
    model = {"type": "torus", "y": [0.6180339887498949, 0.41421356237309515], **fields}
    with pytest.raises(SchemaError, match=re.escape(f"model.{token}")):
        validate_config({"version": 1, "scenarios": [{"name": "a", "model": model, "tasks": ["degree"]}]})


def test_validate_rejects_graph_task_on_pair_model():
    raw = pair_config(tasks=["admissibility"])
    with pytest.raises(SchemaError):
        validate_config(raw)


def test_build_rejects_matrix_payload_components_that_are_not_numbers():
    conjugate = matrix_to_payload(np.eye(2))
    conjugate["entries"][1][0] = "1.5"
    model = {"type": "matrix-pair", "unitary": matrix_to_payload(np.eye(2)), "conjugate": conjugate}
    sc = validate_config({"version": 1, "scenarios": [{"name": "a", "model": model, "tasks": ["identities"]}]})
    with pytest.raises(SchemaError, match=r"model\.conjugate.*entry 1 is not a pair of numbers"):
        build_model(sc["scenarios"][0])


def test_matrix_pair_rejects_empty_matrices_naming_the_field(tmp_path, capsys):
    # a 0x0 pair would pass identities, mixing and summability on nothing
    empty, one = matrix_to_payload(np.zeros((0, 0))), matrix_to_payload(np.eye(1))
    cases = [("unitary", {"unitary": empty, "conjugate": empty}),
             ("generator", {"generator": empty, "conjugate": one}),
             ("conjugate", {"unitary": one, "conjugate": empty})]
    for field, matrices in cases:
        model = {"type": "matrix-pair", **matrices}
        path = write_config(tmp_path, {"version": 1, "scenarios": [
            {"name": "a", "model": model, "tasks": ["identities", "degree"]}]})
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2, field
        assert f"model.{field}: expected a matrix of dimension at least 1" in capsys.readouterr().err
        # the models are built before the output directory is made
        assert not (tmp_path / "x").exists(), field


def test_su2_on_a_2d_base_passes_identities_and_degree(tmp_path):
    model = {"type": "su2", "y": [2.0**0.5 - 1.0, (5.0**0.5 - 1.0) / 2.0], "frequency": [1, 2],
             "label": 3, "eta": [[[1, 0], 0.0, -0.05], [[-1, 0], 0.0, 0.05]]}
    config = validate_config({"version": 1, "scenarios": [
        {"name": "su2-2d", "seed": 7, "model": model, "tasks": ["identities", "degree"]}]})
    report = run_config(config, tmp_path / "out")
    tasks = report["scenarios"][0]["tasks"]
    assert [(task["task"], task["status"]) for task in tasks] == [("identities", "pass"), ("degree", "pass")]
    assert tasks[1]["metrics"]["steps"] == 1000000


def test_run_pair_identities(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    path = write_config(tmp_path, pair_config())
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario quick: pass" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["format"] == "run-report"
    assert report["version"] == cli.REPORT_VERSION == 12
    assert report["status"] == "pass"
    # timing lives in the meta file so reports stay byte-reproducible
    assert "started" not in json.dumps(report)
    meta = json.loads((tmp_path / "out" / "report.meta.json").read_text())
    assert "started" in meta
    # the BLAS that set the report's last digits, and the variables that set its threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["blas"] == {"name": blas["name"], "version": blas["version"],
                            "threads": {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}}
    assert "blas" not in report


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
    # identities and degree walk separate Birkhoff ladders, so neither sees the other's bits
    for tasks in (["degree", "mixing"], ["identities", "degree"]):
        rows = []
        for order in (tasks, tasks[::-1]):
            config = validate_config(pair_config(tasks=order, schedule=[1, 2, 5]))
            report = run_config(config, tmp_path / "-".join(order))
            rows.append({t["task"]: t["metrics"] for t in report["scenarios"][0]["tasks"]})
        assert rows[0] == rows[1], tasks


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


def test_alternative_agreement_bounds_the_residual_over_n(tmp_path):
    # residual/N is the gap between D_N and (1/N)[A, U^N]U^{-N} up to the
    # roundoff of U^N's unitarity, so alternative_agreement gates it directly
    schedule = [1, 2, 5, 17, 64]

    def identities_row(thresholds, out):
        config = validate_config(pair_config(schedule=schedule, thresholds=thresholds))
        return run_config(config, tmp_path / out)["scenarios"][0]["tasks"][0]

    row = identities_row({}, "default")
    assert row["status"] == "pass" and "alternative_gaps" not in row["metrics"]
    worst = max(r / n for r, n in zip(row["metrics"]["residuals"], schedule))
    assert worst > 0.0
    below = identities_row({"alternative_agreement": math.nextafter(worst, 0.0)}, "below")
    assert below["status"] == "fail"
    assert below["metrics"] == row["metrics"]
    assert identities_row({"alternative_agreement": math.nextafter(worst, math.inf)}, "above")["status"] == "pass"


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


def test_scenario_names_stay_inside_the_output_directory(tmp_path, capsys):
    # '..' would put its artifacts beside --out; a report file's name would
    # collide with that report after every scenario had run
    for name in (".", "..", "report.json", "report.meta.json"):
        config = pair_config(name=name, tasks=["identities", "degree"])
        with pytest.raises(SchemaError, match=r"^config\.scenarios\[0\]\.name: "):
            validate_config(config)
        path = write_config(tmp_path, config)
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(tmp_path / "work" / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: config.scenarios[0].name: ")
        assert not (tmp_path / "work").exists()
    assert validate_config(pair_config(name="a..b"))["scenarios"][0]["name"] == "a..b"


def test_out_that_cannot_be_written_exits_two_with_one_line(tmp_path, capsys):
    path = write_config(tmp_path, pair_config())
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for verb in (["run", str(path)], ["emit-examples"]):
        for out in (taken, taken / "sub"):
            capsys.readouterr()
            assert main([*verb, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write to --out {str(out)!r}: ") and err.count("\n") == 1
    assert taken.read_text() == "kept"


def test_fourier_gamma_must_be_positive(tmp_path, capsys):
    for gamma in (0, -0.5):
        config = pair_config(tasks=["fourier"], thresholds={"fourier_gamma": gamma})
        want = f"config.scenarios[0].thresholds.fourier_gamma: must be positive, got {gamma!r}"
        with pytest.raises(SchemaError) as info:
            validate_config(config)
        assert str(info.value) == want
        path = write_config(tmp_path, config)
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert want in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    config = validate_config(pair_config(thresholds={"fourier_gamma": 0.25}))
    assert config["scenarios"][0]["thresholds"]["fourier_gamma"] == 0.25


_SIGNED = {"torus_slope_min", "torus_slope_max", "graph_psd_floor", "fourier_exponent_max"}


@pytest.mark.parametrize("overrides, key", [
    *[({key: -1}, key) for key in sorted(DEFAULT_THRESHOLDS.keys() - _SIGNED)],
    ({"torus_slope_min": 0.5, "torus_slope_max": -0.5}, "torus_slope_min"),
    ({"torus_slope_max": -2.0}, "torus_slope_max"),
])
def test_out_of_range_thresholds_are_config_errors(tmp_path, capsys, overrides, key):
    # before, kernel_tol -1 gave a degree fail row and gap_threshold -1 a silent warn
    config = pair_config(thresholds=overrides)
    want = f"config.scenarios[0].thresholds.{key}: "
    with pytest.raises(SchemaError, match=re.escape(want)):
        validate_config(config)
    path = write_config(tmp_path, config)
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_signed_thresholds_may_be_negative_and_the_others_zero():
    signed = {"torus_slope_min": -5.0, "torus_slope_max": -5.0, "graph_psd_floor": -1.0,
              "fourier_exponent_max": -3.0}
    zeros = {key: 0 for key in DEFAULT_THRESHOLDS.keys() - _SIGNED - {"fourier_n_max", "fourier_gamma"}}
    thresholds = validate_config(pair_config(thresholds={**signed, **zeros}))["scenarios"][0]["thresholds"]
    assert thresholds == {**DEFAULT_THRESHOLDS, **signed, **zeros}


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    path = write_config(tmp_path, pair_config())
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "x"), "--threads", threads]) == 2
    assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"
    assert not (tmp_path / "x").exists()


def test_flow_pair_runs_all_four_tasks_end_to_end(tmp_path):
    rng = np.random.default_rng(3)

    def hermitian():
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        return matrix_to_payload((z + z.conj().T) / 2.0)

    tasks = ["identities", "degree", "mixing", "summability"]
    config = {"version": 1, "scenarios": [{
        "name": "flow", "seed": 7, "tasks": tasks,
        "model": {"type": "matrix-pair", "generator": hermitian(), "conjugate": hermitian()}}]}
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    scenario = report["scenarios"][0]
    assert scenario["schedule"] == [0.5, 1.5, 3.0] and scenario["horizon"] == 128
    statuses = {row["task"]: row["status"] for row in scenario["tasks"]}
    assert statuses == {"identities": "pass", "degree": "warn", "mixing": "warn", "summability": "warn"}
    csv = (tmp_path / "a" / "flow" / "correlation.csv").read_text().splitlines()
    assert csv[0].endswith(" kind=continuous")
    times = [float(line.split(",")[0]) for line in csv[2:]]
    assert len(times) == 128 and times[0] == 0.0 and times[-1] == 3.0
    assert main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "report.json").read_bytes() == (tmp_path / "a" / "report.json").read_bytes()


def test_non_finite_numbers_are_rejected_with_their_path(tmp_path, capsys):
    nan_threshold = pair_config(thresholds={"identity_residual": float("nan")})
    infinite_time = {"version": 1, "scenarios": [{
        "name": "flow", "schedule": [0.5, float("inf")], "tasks": ["identities"],
        "model": {"type": "matrix-pair", "generator": matrix_to_payload(np.diag([1.0, 2.0])),
                  "conjugate": matrix_to_payload(np.eye(2))}}]}
    nan_translation = {"version": 1, "scenarios": [{
        "name": "t", "model": {"type": "torus", "y": [float("nan")]}, "tasks": ["degree"]}]}
    huge_threshold = pair_config(thresholds={"decay_fraction": 10**400})
    cases = [
        (nan_threshold, "scenarios[0].thresholds.identity_residual: expected a finite number, got nan"),
        (huge_threshold, "scenarios[0].thresholds.decay_fraction: expected a finite number, got inf"),
        (infinite_time, "scenarios[0].schedule[1]: expected a finite number, got inf"),
        (nan_translation, "scenarios[0].model.y[0]: expected a finite number, got nan"),
    ]
    for config, want in cases:
        with pytest.raises(SchemaError) as info:
            validate_config(config)
        assert want in str(info.value)
        # json.dumps writes NaN and Infinity, which json.loads reads back
        path = write_config(tmp_path, config)
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert want in capsys.readouterr().err


def test_malformed_graph_file_names_the_scenario_and_the_file(tmp_path, capsys):
    graph_file = tmp_path / "bad.graph"
    graph_file.write_text("# graph-window v1\n# vertices: 0..3\n# margin: 0\n0 9\n")
    config = {"version": 1, "scenarios": [{
        "name": "g", "model": {"type": "graph-file", "path": str(graph_file)},
        "tasks": ["admissibility"]}]}
    want = (f"scenario 'g' model.path: bad graph file {str(graph_file)!r}: "
            "edge (0, 9) references an unknown vertex")
    with pytest.raises(SchemaError) as info:
        build_model(validate_config(config)["scenarios"][0])
    assert str(info.value) == want
    path = write_config(tmp_path, config)
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert want in capsys.readouterr().err


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


def test_validating_and_building_the_examples_loads_no_scipy():
    # scipy is imported inside the functions that compute with it, so a run's
    # set-up (import, validate, build) does not pay for loading it
    code = (
        "import sys\n"
        "from commix.cli import EXAMPLE_CONFIGS, build_model, validate_config\n"
        "for config in EXAMPLE_CONFIGS.values():\n"
        "    for scenario in validate_config(config)['scenarios']:\n"
        "        build_model(scenario)\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


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
         [16, 32, 64, 128, 256, 512, 1024], 512, {"identities", "degree", "mixing", "summability"}),
        ("su2", {"type": "su2", "y": 0.41421356237309515}, [1000000], 128, {"identities", "degree"}),
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


def _readme_table(heading):
    """Rows of the first markdown table after the line starting with ``heading``,
    as lists of cells."""
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    table = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            table.append([cell.strip() for cell in line.strip("|").split("|")])
        elif table:
            break
    return table[2:]  # past the header and the --- row


def test_readme_tables_match_the_handlers_and_the_default_thresholds():
    def ticked(cell):
        return re.findall(r"`([^`]*)`", cell)

    families = {ticked(family)[0]: set(ticked(tasks))
                for family, _, tasks in _readme_table("Tasks per family")}
    assert families == {family: set(tasks) for family, tasks in cli.HANDLERS.items()}
    defaults = {}
    for keys, values, _ in _readme_table("Every threshold that feeds"):
        defaults.update(zip(ticked(keys), ticked(values), strict=True))
    assert defaults.keys() == DEFAULT_THRESHOLDS.keys()
    for key, text in defaults.items():
        assert float(text) == DEFAULT_THRESHOLDS[key], key


def test_validation_rejects_tasks_that_always_fail():
    generator = {"type": "matrix-pair", "generator": matrix_to_payload(np.diag([1.0, 2.0])),
                 "conjugate": matrix_to_payload(np.eye(2))}
    torus_2d = {"type": "torus", "y": [0.6180339887498949, 0.41421356237309515],
                "winding": [[2, 1]], "sector": 3, "grid": 64}
    cases = [
        (generator, ["identities", "fourier"], 1),
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
            # identities run on the sector operator itself, with no truncation
            {"name": "torus-identities", "model": {"type": "torus", "y": 0.6180339887498949,
                                                   "winding": 2, "sector": 3, "grid": 64},
             "tasks": ["identities"], "schedule": [1, 2, 3]},
            {"name": "line", "model": {"type": "graph-line", "length": 40, "margin": 2},
             "tasks": ["identities", "degree"], "thresholds": {"graph_flow_residual": 1.0}},
        ],
    })
    report = run_config(config, tmp_path / "out")
    for sc in report["scenarios"]:
        for row in sc["tasks"]:
            assert "error" not in row["metrics"], (sc["name"], row)
    assert calls == {"sector_matrix": 1, "build_operators": 1}


def test_identities_form_the_symbol_and_the_conjugate_norm_once_per_pair(tmp_path, monkeypatch):
    calls = {"matrix_power": 0, "spectral_norm": 0, "unitary_symbol": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # the checks look spectral_norm up in commutators, the runner in cli
    count(np.linalg, "matrix_power")
    count(commutators, "spectral_norm")
    count(cli, "spectral_norm")
    count(commutators, "unitary_symbol")
    schedule = [1, 2, 5, 17, 64]
    report = run_config(validate_config(pair_config(schedule=schedule)), tmp_path / "out")
    assert report["scenarios"][0]["status"] == "pass"
    # U^N comes from the schedule's Birkhoff ladder, not a matrix_power; per
    # entry: the norms of the residual and of D_N; once per pair: the symbol
    # and ||A||
    entries = len(schedule)
    assert calls == {"matrix_power": 0, "spectral_norm": 2 * entries + 1, "unitary_symbol": 1}


@pytest.mark.parametrize("schedule", [[1, 2, 5, 17, 64], [125, 250, 500, 1000]])
def test_identity_rows_agree_with_the_per_horizon_reference(tmp_path, schedule):
    # the runner walks one Birkhoff ladder; degree_identity_check takes a
    # matrix_power and a fresh doubling per horizon, so the two routes round
    # differently and must agree to roundoff at the scale N ||A|| of [A, U^N]
    config = validate_config(pair_config(schedule=schedule))
    pair = build_model(config["scenarios"][0])["pair"]
    row = run_config(config, tmp_path / "out")["scenarios"][0]["tasks"][0]
    assert row["status"] == "pass"
    floor = 64.0 * np.finfo(float).eps * max(1.0, pair.conjugate_norm)
    metrics = row["metrics"]
    for j, n in enumerate(schedule):
        check = commutators.degree_identity_check(pair, n)
        assert abs(metrics["residuals"][j] - check.residual) <= n * floor
        assert metrics["expected"][j] == pytest.approx(check.expected, rel=1e-12)


def test_torus_identities_gate_on_the_estimate_and_list_unresolved_horizons(tmp_path):
    torus = {"type": "torus", "y": 0.6180339887498949, "winding": 2, "sector": 3,
             "eta": [[[1], 0.0, -0.025], [[-1], 0.0, 0.025]], "grid": 1024}
    torus_2d = {"type": "torus", "y": [0.6180339887498949, 0.41421356237309515],
                "winding": [[2, 1]], "sector": 3, "grid": 64}
    # at N = 128 the sector shifts frequencies by 768, past the Nyquist 512
    scenarios = [
        {"name": "first", "model": torus, "tasks": ["identities", "degree"], "schedule": [4, 16, 128]},
        {"name": "second", "model": torus, "tasks": ["degree", "identities"], "schedule": [4, 16, 128]},
        {"name": "unresolved", "model": torus, "tasks": ["identities"], "schedule": [128, 256]},
        {"name": "tight", "model": torus, "tasks": ["identities"], "schedule": [4, 16],
         "thresholds": {"torus_identity_factor": 1e-3}},
        {"name": "plane", "model": torus_2d, "tasks": ["identities"], "schedule": [1, 2]},
    ]
    config = validate_config({"version": 1, "scenarios": [{**sc, "seed": 5} for sc in scenarios]})
    report = run_config(config, tmp_path / "out")
    rows = {sc["name"]: next(r for r in sc["tasks"] if r["task"] == "identities")
            for sc in report["scenarios"]}
    first = rows["first"]
    assert first["status"] == "pass"
    assert first["thresholds"] == {"torus_identity_factor": 10.0}
    metrics = first["metrics"]
    assert metrics["horizons"] == [4, 16] and metrics["unresolved_horizons"] == [128]
    assert all(r <= e for r, e in zip(metrics["residuals"], metrics["estimates"]))
    # the test field comes from its own stream, so task order cannot change it
    assert rows["second"]["metrics"] == metrics
    assert rows["unresolved"]["status"] == "warn"
    assert rows["unresolved"]["metrics"]["horizons"] == []
    assert rows["unresolved"]["metrics"]["unresolved_horizons"] == [128, 256]
    assert rows["tight"]["status"] == "fail"
    assert rows["plane"]["status"] == "pass"
    assert rows["plane"]["metrics"]["horizons"] == [1, 2]


def test_winding_rows_and_sector_reach_the_tasks_as_their_projection(tmp_path):
    # the sector sees W^T q only: [[2, 1], [1, 0]] under [1, 2] is [4, 1], so
    # both models must give the same rows and artifacts
    base = {"type": "torus", "y": [0.6180339887498949, 0.41421356237309515], "grid": 64}
    models = {"rows": {**base, "winding": [[2, 1], [1, 0]], "sector": [1, 2]},
              "projected": {**base, "winding": [[4, 1]], "sector": [1]}}
    config = validate_config({"version": 1, "scenarios": [
        {"name": name, "seed": 5, "model": model, "schedule": [1, 2, 4], "horizon": 64,
         "tasks": ["identities", "degree", "mixing", "summability"]} for name, model in models.items()]})
    report = run_config(config, tmp_path / "out")
    rows = {sc["name"]: json.dumps(sc["tasks"]) for sc in report["scenarios"]}
    assert rows["rows"] == rows["projected"]
    identities, degree = report["scenarios"][0]["tasks"][:2]
    assert identities["status"] == "pass" and identities["metrics"]["horizons"] == [1, 2, 4]
    assert degree["metrics"]["limit"] == pytest.approx(2 * np.pi * (4 * 0.6180339887498949 + 0.41421356237309515))
    for artifact in ("correlation.csv", "torus-degree.json"):
        assert ((tmp_path / "out" / "rows" / artifact).read_bytes()
                == (tmp_path / "out" / "projected" / artifact).read_bytes())


@pytest.mark.parametrize("eta, sector", [
    # within the old relative tolerance of the mirror check; built before
    ([[[1], 1000.0, 0.0], [[-1], 1000.005, 0.0]], 1),
    # the zero sector sees no eta, yet eta as configured is broken
    ([[[1], 0.0, 0.5], [[-1], 0.0, 0.5]], 0),
])
def test_torus_eta_mirror_is_checked_absolutely_as_configured(eta, sector):
    model = {"type": "torus", "y": 0.6180339887498949, "winding": 2, "sector": sector, "eta": eta}
    config = validate_config({"version": 1, "scenarios": [{"name": "t", "model": model, "tasks": ["degree"]}]})
    with pytest.raises(SchemaError, match="Hermitian-symmetric"):
        build_model(config["scenarios"][0])


def test_admissibility_is_checked_once_per_graph_scenario(tmp_path, monkeypatch):
    calls = []
    original = graphs.check_admissible

    def counting(window):
        calls.append(window)
        return original(window)

    # build_operators looks the check up in graphs, the runner in cli
    monkeypatch.setattr(graphs, "check_admissible", counting)
    monkeypatch.setattr(cli, "check_admissible", counting)
    config = validate_config(EXAMPLE_CONFIGS["graph-windows.json"])
    report = run_config(config, tmp_path / "out")
    assert [sc["status"] for sc in report["scenarios"]] == ["pass"] * 3
    assert len(calls) == 3


def test_correlation_series_is_serialized_once_per_scenario(tmp_path, monkeypatch):
    calls = []
    original = CorrelationSeries.to_csv

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CorrelationSeries, "to_csv", counting)
    config = validate_config({
        "version": 1,
        "scenarios": [
            {"name": "torus", "model": {"type": "torus", "y": 0.6180339887498949, "winding": 2,
                                        "sector": 3, "grid": 1024},
             "horizon": 16, "tasks": ["mixing", "summability"]},
        ],
    })
    report = run_config(config, tmp_path / "out")
    for row in report["scenarios"][0]["tasks"]:
        assert "error" not in row["metrics"], row
    assert len(calls) == 1
    assert (tmp_path / "out" / "torus" / "correlation.csv").read_text() == original(calls[0])


def test_failed_task_leaves_its_traceback_in_the_meta_file(tmp_path, monkeypatch):
    def broken_degree(runner):
        raise RuntimeError("degree handler broke")

    config = validate_config(pair_config(tasks=["identities", "degree"]))
    run_config(config, tmp_path / "clean")
    clean_meta = json.loads((tmp_path / "clean" / "report.meta.json").read_text())
    assert clean_meta["task_tracebacks"] == {}

    monkeypatch.setitem(cli.HANDLERS["pair"], "degree", broken_degree)
    report = run_config(config, tmp_path / "out")
    rows = {row["task"]: row for row in report["scenarios"][0]["tasks"]}
    assert rows["identities"]["status"] == "pass"
    assert rows["degree"]["status"] == "fail"
    assert rows["degree"]["metrics"] == {"error": "RuntimeError: degree handler broke"}
    assert "Traceback" not in (tmp_path / "out" / "report.json").read_text()
    meta = json.loads((tmp_path / "out" / "report.meta.json").read_text())
    assert set(meta["task_tracebacks"]) == {"quick"}
    assert set(meta["task_tracebacks"]["quick"]) == {"degree"}
    text = meta["task_tracebacks"]["quick"]["degree"]
    assert text.startswith("Traceback (most recent call last):")
    assert "in broken_degree" in text
    assert text.rstrip().endswith("RuntimeError: degree handler broke")


def _keys(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from _keys(item)


def _matrix_pair_config(unitary, conjugate, name="pair"):
    model = {"type": "matrix-pair", "unitary": unitary, "conjugate": conjugate}
    return {"version": 1, "scenarios": [{"name": name, "seed": 3, "model": model,
                                         "tasks": ["identities", "degree"]}]}


def test_report_echoes_matrices_as_digests(tmp_path):
    unitary, conjugate = matrix_to_payload(np.eye(2)), matrix_to_payload(np.diag([1.0, -1.0]))
    generator = {"type": "matrix-pair", "generator": matrix_to_payload(np.diag([1.0, 2.0])),
                 "conjugate": conjugate}
    config = _matrix_pair_config(unitary, conjugate)
    config["scenarios"].append({"name": "flow", "model": generator, "tasks": ["identities"]})
    report = run_config(validate_config(config), tmp_path / "out")
    assert "entries" not in set(_keys(json.loads((tmp_path / "out" / "report.json").read_text())))
    models = {sc["name"]: sc["model"] for sc in report["scenarios"]}
    # the digest covers the complex128 matrix as loaded, before the pair narrows it to float64
    for name, field, payload in [("pair", "unitary", unitary), ("pair", "conjugate", conjugate),
                                 ("flow", "generator", generator["generator"])]:
        m = cli.matrix_from_payload(payload)
        want = hashlib.sha256(np.ascontiguousarray(m, dtype="<c16").tobytes()).hexdigest()
        assert models[name][field] == {"dim": 2, "sha256": want}, (name, field)
    assert models["pair"]["type"] == models["flow"]["type"] == "matrix-pair"


def test_integer_and_float_spellings_of_a_matrix_give_identical_reports(tmp_path):
    def spelled(number):
        return {"format": "complex-matrix", "version": 1, "dim": 2,
                "entries": [[number(1), number(0)], [number(0), number(0)],
                            [number(0), number(0)], [number(-1), number(0)]]}

    unitary = matrix_to_payload(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for label, number in (("int", int), ("float", float)):
        path = write_config(tmp_path, _matrix_pair_config(unitary, spelled(number)), f"{label}.json")
        assert main(["run", str(path), "--out", str(tmp_path / label)]) == 0
    assert ((tmp_path / "int" / "report.json").read_bytes()
            == (tmp_path / "float" / "report.json").read_bytes())


def test_changing_one_entry_changes_only_that_digest_and_compare_reports_it(tmp_path, capsys):
    unitary = matrix_to_payload(np.array([[0.0, 1.0], [1.0, 0.0]]))
    conjugate = matrix_to_payload(np.diag([1.0, -1.0]))
    changed = matrix_to_payload(np.diag([1.0, -2.0]))
    for label, conj in (("left", conjugate), ("right", changed)):
        path = write_config(tmp_path, _matrix_pair_config(unitary, conj), f"{label}.json")
        assert main(["run", str(path), "--out", str(tmp_path / label)]) == 0
    left, right = (tmp_path / label / "report.json" for label in ("left", "right"))
    models = [json.loads(p.read_text())["scenarios"][0]["model"] for p in (left, right)]
    assert models[0]["unitary"] == models[1]["unitary"]
    assert models[0]["conjugate"]["dim"] == models[1]["conjugate"]["dim"] == 2
    assert models[0]["conjugate"]["sha256"] != models[1]["conjugate"]["sha256"]
    capsys.readouterr()
    assert main(["compare", str(left), str(right)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if ".model." in line] == [
        f"report.scenarios[0].model.conjugate.sha256: {models[0]['conjugate']['sha256']!r} != "
        f"{models[1]['conjugate']['sha256']!r}"]


def test_matrix_file_echoes_its_path_and_the_inline_digest(tmp_path):
    unitary = matrix_to_payload(np.array([[0.0, 1.0], [1.0, 0.0]]))
    conjugate = matrix_to_payload(np.diag([1.0, -1.0]))
    matrix_file = tmp_path / "unitary.json"
    matrix_file.write_text(json.dumps(unitary))
    inline = run_config(validate_config(_matrix_pair_config(unitary, conjugate)), tmp_path / "inline")
    filed = run_config(validate_config(_matrix_pair_config(str(matrix_file), conjugate)),
                       tmp_path / "filed")
    inline_model, filed_model = (r["scenarios"][0]["model"] for r in (inline, filed))
    assert filed_model["unitary"] == {**inline_model["unitary"], "path": str(matrix_file)}
    assert filed_model["conjugate"] == inline_model["conjugate"]
    assert inline["scenarios"][0]["tasks"] == filed["scenarios"][0]["tasks"]


def test_compare_names_both_report_versions(tmp_path, capsys):
    path = write_config(tmp_path, pair_config())
    assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    left = tmp_path / "a" / "report.json"
    doc = json.loads(left.read_text())
    older = tmp_path / "older.json"
    older.write_text(json.dumps(dict(doc, version=cli.REPORT_VERSION - 1)))
    capsys.readouterr()
    assert main(["compare", str(older), str(left)]) == 2
    assert f"report versions differ ({cli.REPORT_VERSION - 1} vs {cli.REPORT_VERSION})" in capsys.readouterr().err


def test_matrix_file_that_is_not_utf8_names_the_field_and_the_file(tmp_path, capsys):
    matrix_file = tmp_path / "unitary.json"
    matrix_file.write_bytes(b'\xff{"format": "complex-matrix"}')
    config = _matrix_pair_config(str(matrix_file), matrix_to_payload(np.diag([1.0, -1.0])), name="m")
    want = f"scenario 'm' model.unitary: cannot read matrix file {str(matrix_file)!r}: 'utf-8' codec"
    with pytest.raises(SchemaError) as info:
        build_model(validate_config(config)["scenarios"][0])
    assert str(info.value).startswith(want)
    path = write_config(tmp_path, config)
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert want in capsys.readouterr().err


def test_config_graph_and_report_files_that_are_not_utf8_exit_two(tmp_path, capsys):
    garbled = tmp_path / "garbled"
    garbled.write_bytes(b"\xff\xfe")
    graph = {"version": 1, "scenarios": [{"name": "g", "model": {"type": "graph-file", "path": str(garbled)},
                                          "tasks": ["admissibility"]}]}
    good = write_config(tmp_path, pair_config())
    assert main(["run", str(good), "--out", str(tmp_path / "a")]) == 0
    cases = [
        (["run", str(garbled), "--out", str(tmp_path / "b")],
         f"error: cannot read config {str(garbled)!r}: 'utf-8' codec"),
        (["run", str(write_config(tmp_path, graph, "graph.json")), "--out", str(tmp_path / "c")],
         f"error: scenario 'g' model.path: cannot read graph file {str(garbled)!r}: 'utf-8' codec"),
        (["compare", str(garbled), str(tmp_path / "a" / "report.json")],
         f"error: cannot load report {str(garbled)!r}: 'utf-8' codec"),
    ]
    for argv, want in cases:
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(want)


def test_degree_row_reports_the_telescoping_bound(tmp_path):
    config = validate_config(pair_config(tasks=["identities", "degree"], schedule=[1, 2, 5]))
    pair = build_model(config["scenarios"][0])["pair"]
    report = run_config(config, tmp_path / "out")
    row = next(t for t in report["scenarios"][0]["tasks"] if t["task"] == "degree")
    assert row["status"] == "warn"
    assert row["metrics"]["telescoping_bound"] == 2.0 * pair.conjugate_norm / 5
    assert row["metrics"]["limit_norm"] <= row["metrics"]["telescoping_bound"]
    artifact = json.loads((tmp_path / "out" / "quick" / "degree-estimate.json").read_text())
    assert artifact["version"] == commutators.DEGREE_ESTIMATE_VERSION
    assert set(artifact["limit"]) == {"dim", "sha256"}
    assert artifact["telescoping_bound"] == row["metrics"]["telescoping_bound"]
    assert max(map(abs, artifact["limit_eigenvalues"])) == row["metrics"]["limit_norm"]


def test_non_finite_degree_limit_fails_the_task_with_one_line(tmp_path, monkeypatch):
    real = cli.estimate_degree

    def spoiled(*args, **kwargs):
        estimate = real(*args, **kwargs)
        estimate.limit = estimate.limit.copy()
        estimate.limit[0, 0] = np.inf
        return estimate

    monkeypatch.setattr(cli, "estimate_degree", spoiled)
    report = run_config(validate_config(pair_config(tasks=["degree"])), tmp_path / "out")
    row = report["scenarios"][0]["tasks"][0]
    assert row["status"] == "fail"
    assert row["metrics"] == {"error": "ValueError: matrix serialization requires finite entries"}
    meta = json.loads((tmp_path / "out" / "report.meta.json").read_text())
    assert "Traceback" in meta["task_tracebacks"]["quick"]["degree"]


# -- config round trip ------------------------------------------------------

_numbers = st.floats(-10.0, 10.0, allow_nan=False)
_small_ints = st.integers(-3, 3)


def _eta(d):
    return st.lists(st.tuples(st.lists(_small_ints, min_size=d, max_size=d), _numbers, _numbers),
                    max_size=3, unique_by=lambda e: tuple(e[0])).map(lambda es: [list(e) for e in es])


@st.composite
def _model(draw, mtype):
    """A raw model of type ``mtype`` that validates, with optional fields left out at random."""
    powers = st.sampled_from([64, 128, 256, 512])
    payload = st.builds(lambda dim, seed: matrix_to_payload(np.random.default_rng(seed).standard_normal((dim, dim))),
                        st.integers(1, 3), st.integers(0, 99))
    d = draw(st.integers(1, 2))
    optional = {
        "random-pair": {"dim": st.integers(2, 64)},
        "shift": {"window": st.integers(4, 300), "margin": st.integers(0, 5)},
        "graph-line": {"length": st.integers(2, 300), "margin": st.integers(0, 5)},
        "graph-grid2d": {"nx": st.integers(2, 30), "ny": st.integers(2, 30), "margin": st.integers(0, 4)},
        "graph-cycle4-alt": {},
        "su2": {"frequency": st.lists(_small_ints, min_size=d, max_size=d), "label": st.integers(0, 6),
                "eta": _eta(d), "grid": st.integers(64, 1024),
                "h": st.sampled_from(["seeded", "identity", [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]])},
        "torus": {"grid": powers, "matrix_size": powers},
    }.get(mtype, {})
    model = {"type": mtype}
    for name, strategy in optional.items():
        if draw(st.booleans()):
            model[name] = draw(strategy)
    if mtype == "matrix-pair":
        main = draw(st.sampled_from(["unitary", "generator"]))
        model[main] = draw(payload | st.just("matrices/u.json"))
        model["conjugate"] = draw(payload)
    elif mtype == "graph-file":
        model["path"] = "windows/a.graph"
    elif mtype == "su2":
        model["y"] = draw(st.lists(_numbers, min_size=d, max_size=d))
        if d > 1:  # the default frequency is one-dimensional
            model["frequency"] = draw(st.lists(_small_ints, min_size=d, max_size=d))
    elif mtype == "torus":
        model["y"] = draw(st.lists(_numbers, min_size=d, max_size=d))
        rows = draw(st.integers(1, d))
        model["winding"] = draw(st.lists(st.lists(_small_ints, min_size=d, max_size=d),
                                         min_size=rows, max_size=rows))
        model["sector"] = draw(st.lists(_small_ints, min_size=rows, max_size=rows))
        if rows == 1 and draw(st.booleans()):
            model["eta"] = draw(_eta(d))
    return model


@st.composite
def _raw_config(draw):
    """One scenario of every model type, each with random optional fields."""
    scenarios = []
    for i, mtype in enumerate(sorted(cli.MODEL_TYPES)):
        model = draw(_model(mtype))
        family = cli.model_family(model)
        handlers = cli.HANDLERS[family]
        sc = {"name": f"s{i}", "model": model,
              "tasks": draw(st.lists(st.sampled_from(sorted(handlers)), min_size=1, unique=True))}
        if draw(st.booleans()):
            sc["seed"] = draw(st.integers(0, 2**31))
        if draw(st.booleans()):
            steps = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=6, unique=True))
            sc["schedule"] = sorted(s / 7.0 for s in steps) if family == "flow" else sorted(steps)
        if draw(st.booleans()):
            sc["horizon"] = draw(st.integers(16, 4096))
        if draw(st.booleans()):
            keys = draw(st.lists(st.sampled_from(sorted(DEFAULT_THRESHOLDS)), unique=True, max_size=4))
            # slopes drawn on either side of the default band always keep min <= max
            valid = {"fourier_n_max": st.integers(8, 512), "fourier_gamma": st.floats(0.01, 10.0),
                     "torus_slope_min": st.floats(-10.0, -1.3), "torus_slope_max": st.floats(-0.7, 10.0),
                     "graph_psd_floor": _numbers, "fourier_exponent_max": _numbers}
            sc["thresholds"] = {k: draw(valid.get(k, st.floats(0.0, 10.0))) for k in keys}
        if draw(st.booleans()):
            sc["expect_admissible"] = draw(st.booleans())
        scenarios.append(sc)
    return {"version": 1, "scenarios": scenarios}


# no shrink phase: shrinking a nine-scenario config takes minutes, and the
# first failing config already names the field that broke
@settings(max_examples=20, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(raw=_raw_config())
def test_validated_configs_survive_a_json_round_trip(raw):
    validated = validate_config(raw)
    assert validate_config(json.loads(json.dumps(validated))) == validated
