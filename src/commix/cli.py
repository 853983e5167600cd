"""Batch scenario runner.

Reads a versioned JSON config describing model scenarios, executes the
requested tasks, and writes a deterministic ``report.json`` (scenarios sorted
by name, floats in shortest round-trip form, no timestamps) next to the
per-scenario artifact files.  Wall-clock data and the tracebacks of failed
tasks go to a separate ``report.meta.json`` so that reruns of the same
config and seed are byte-identical.  Exit codes: 0 all tasks pass (warnings tolerated unless
--strict), 1 any failure, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import functools
import gc
import json
import math
import os
import pathlib
import re
import stat
import sys
import time
import traceback
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .commutators import DegreeEstimate, OperatorPair, SmoothWindow, degree_averages, identity_check
from .errors import SchemaError
from .graphs import (
    alternating_cycle4,
    build_operators,
    check_admissible,
    graph_degree,
    grid2d_window,
    interior_residuals,
    line_window,
    parse_graph_window,
)
from .mixing import (
    DecayReport,
    FourierCalculus,
    SummabilityReport,
    correlation_continuous,
    correlation_discrete,
)
# the runner calls no spectral_norm; perfbench's tracer test reads cli.spectral_norm
from .operators import matrix_digest, matrix_from_payload, spectral_norm  # noqa: F401
from .skew import (
    SU2Cocycle,
    TorusCocycle,
    TorusFlow,
    sector_correlation,
    sector_identity_check,
    shift_weyl_model,
    su2_degree_bound,
    su2_irrep,
    torus_degree_bound,
)

REPORT_FORMAT = "run-report"
REPORT_VERSION = 17
CONFIG_VERSION = 1

# every cutoff that feeds a status flag; a scenario may set graph_flow_residual
# only, since a flow's invariance residual grows with the window
DEFAULT_THRESHOLDS = {
    "identity_residual": 1e-9,
    "alternative_agreement": 1e-10,
    "flow_residual_factor": 10.0,
    "torus_identity_factor": 10.0,
    "graph_identity_residual": 1e-12,
    "representation_homomorphism": 1e-10,
    "torus_sup_error": 0.05,
    "graph_flow_residual": 1e-6,
    "decay_fraction": 0.1,
    "summability_rel_tail": 1e-4,
    "fourier_n_max": 256,
    "fourier_gamma": 1.0,
    "fourier_recon": 1e-6,
    "fourier_exponent_max": -2.0,
}

_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")


def _fail(path, message):
    raise SchemaError(f"{path}: {message}")


def _get_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _get_power_of_two(value, path, minimum):
    # torus fields and truncations live on the power-of-two grids GridField accepts
    value = _get_int(value, path, minimum=minimum)
    if value & (value - 1):
        _fail(path, f"must be a power of two, got {value}")
    return value


def _get_number(value, path):
    # json.loads reads NaN, Infinity and integers beyond the float range,
    # which no field of a config may hold
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {number!r}")
    return number


def _get_str(value, path):
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _int_vector(value, path, length=None):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        _fail(path, "expected an integer or a nonempty list of integers")
    out = []
    for i, v in enumerate(value):
        out.append(_get_int(v, f"{path}[{i}]"))
    if length is not None and len(out) != length:
        _fail(path, f"expected length {length}, got {len(out)}")
    return out


def _float_vector(value, path):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        _fail(path, "expected a number or a nonempty list of numbers")
    return [_get_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _eta_entries(value, path, dim):
    """Entries [frequency, re, im], kept in config shape for the report echo.

    Hermitian mirror entries must be explicit; the cocycle constructor
    enforces their consistency at build time.
    """
    if value is None:
        return []
    if not isinstance(value, list):
        _fail(path, "expected a list of [frequency, re, im] entries")
    out = []
    for i, entry in enumerate(value):
        epath = f"{path}[{i}]"
        if not isinstance(entry, list) or len(entry) != 3:
            _fail(epath, "expected [frequency, re, im]")
        freq = _int_vector(entry[0], f"{epath}[0]", length=dim)
        re_part = _get_number(entry[1], f"{epath}[1]")
        im_part = _get_number(entry[2], f"{epath}[2]")
        out.append([freq, re_part, im_part])
    keys = [tuple(k) for k, _, _ in out]
    if len(set(keys)) != len(keys):
        _fail(path, "duplicate frequency entries")
    return out


def _complex_2x2(value, path):
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "expected a 2x2 matrix as [[ [re,im], [re,im] ], ...]")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != 2:
            _fail(f"{path}[{i}]", "expected two [re, im] entries")
        cells = []
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                _fail(f"{path}[{i}][{j}]", "expected [re, im]")
            cells.append(complex(_get_number(cell[0], f"{path}[{i}][{j}][0]"),
                                 _get_number(cell[1], f"{path}[{i}][{j}][1]")))
        rows.append(cells)
    return np.array(rows, dtype=complex)


# -- model types: fields (raw model, path) -> validated fields with their
# documented defaults; build (fields, rng, path) -> the objects handlers read,
# plus an optional "echo" of model fields that the report shows in their place


def _int_fields(**fields):
    """Fields parser for integer fields given as ``name=(default, minimum)``."""
    return lambda model, path: {name: _get_int(model.get(name, default), f"{path}.{name}", minimum=low)
                                for name, (default, low) in fields.items()}


def _matrix_pair_fields(model, path):
    has_u = "unitary" in model
    if has_u == ("generator" in model):
        _fail(path, "matrix-pair needs exactly one of 'unitary' or 'generator'")
    fields = {}
    for field in ("unitary" if has_u else "generator", "conjugate"):
        value = model.get(field)
        if not isinstance(value, (str, dict)):
            _fail(f"{path}.{field}", "expected a matrix payload object or a file path")
        fields[field] = value
    return fields


def _build_matrix_pair(spec, rng, path):
    """The pair, and the report's echo of each matrix field as ``{"dim", "sha256"[, "path"]}``.

    The digest is taken over the complex128 matrix as loaded, before the pair
    narrows an exactly real pair to float64, so it depends on the matrix alone.
    """
    matrices, echo = {}, {}
    for field in ("unitary", "generator", "conjugate"):
        if field not in spec:
            continue
        value = spec[field]
        m = matrices[field] = _load_matrix(value, f"{path}.{field}")
        if m.size == 0:
            _fail(f"{path}.{field}", "expected a matrix of dimension at least 1, got 0x0")
        echo[field] = matrix_digest(m)
        if isinstance(value, str):
            echo[field]["path"] = value
    if "unitary" in matrices:
        pair = OperatorPair.discrete(matrices["unitary"], matrices["conjugate"])
    else:
        pair = OperatorPair.continuous(matrices["generator"], matrices["conjugate"])
    return {"pair": pair, "echo": echo}


def _torus_fields(model, path):
    y = _float_vector(model.get("y"), f"{path}.y")
    winding = model.get("winding")
    if isinstance(winding, (int, float)) and not isinstance(winding, bool):
        winding = [[winding]]
    if not isinstance(winding, list) or not winding or not isinstance(winding[0], list):
        _fail(f"{path}.winding", "expected an integer (d=1) or a matrix of integers")
    rows = [_int_vector(row, f"{path}.winding[{i}]", length=len(y)) for i, row in enumerate(winding)]
    fields = {
        "y": y,
        "winding": rows,
        "sector": _int_vector(model.get("sector"), f"{path}.sector", length=len(rows)),
        "eta": _eta_entries(model.get("eta"), f"{path}.eta", len(y)),
        "grid": _get_power_of_two(model.get("grid", 8192), f"{path}.grid", minimum=64),
        "matrix_size": _get_power_of_two(model.get("matrix_size", 256), f"{path}.matrix_size",
                                         minimum=64),
    }
    if len(rows) != 1 and fields["eta"]:
        _fail(f"{path}.eta", "perturbation entries are supported for single-row winding only")
    return fields


def _build_torus(spec, rng, path):
    # the sector sees W^T q, summed in exact integers, and q.eta; eta (one winding
    # row only) has its mirror checked as configured, by a cocycle of zero
    # winding, so a zero sector cannot hide it
    flow = TorusFlow(spec["y"])
    configured = {tuple(k): complex(re, im) for k, re, im in spec["eta"]}
    eta = TorusCocycle([0] * len(spec["y"]), configured).modes
    charge = spec["sector"][0]
    winding = [sum(w * q for w, q in zip(column, spec["sector"])) for column in zip(*spec["winding"])]
    cocycle = TorusCocycle(winding, {k: charge * c for k, c in eta.items()})
    return {"flow": flow, "cocycle": cocycle, "grid": spec["grid"]}


def _su2_fields(model, path):
    y = _float_vector(model.get("y"), f"{path}.y")
    fields = {
        "y": y,
        "frequency": _int_vector(model.get("frequency", 1), f"{path}.frequency", length=len(y)),
        "label": _get_int(model.get("label", 2), f"{path}.label", minimum=0),
        "eta": _eta_entries(model.get("eta"), f"{path}.eta", len(y)),
        "grid": _get_int(model.get("grid", 512), f"{path}.grid", minimum=64),
        "h": model.get("h", "seeded"),
    }
    if not isinstance(fields["h"], str):
        _complex_2x2(fields["h"], f"{path}.h")
    elif fields["h"] not in ("seeded", "identity"):
        _fail(f"{path}.h", "expected 'seeded', 'identity', or a 2x2 [re,im] matrix")
    return fields


def _build_su2(spec, rng, path):
    flow = TorusFlow(spec["y"])
    h = spec["h"]
    if isinstance(h, str):
        h = np.eye(2, dtype=complex) if h == "identity" else _random_su2(rng)
    else:
        h = _complex_2x2(h, f"{path}.h")
    modes = {tuple(k): complex(re, im) for k, re, im in spec["eta"]}
    return {"flow": flow, "cocycle": SU2Cocycle(h, spec["frequency"], modes, spec["label"])}


def _read_regular_file(name):
    """Text of the regular file ``name``: a model file, a config or a report.

    Anything else is refused with an OSError before it is opened: opening a
    FIFO blocks until a writer comes, and a device such as /dev/zero reads
    without end.
    """
    if not stat.S_ISREG(os.stat(name).st_mode):
        raise OSError("not a regular file")
    return pathlib.Path(name).read_text()


def _build_graph_file(spec, rng, path):
    try:
        text = _read_regular_file(spec["path"])
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"{path}.path", f"cannot read graph file {spec['path']!r}: {exc}")
    try:
        return {"window": parse_graph_window(text)}
    except SchemaError as exc:
        _fail(f"{path}.path", f"bad graph file {spec['path']!r}: {exc}")


DEFAULT_SCHEDULE = (1, 2, 5, 17, 64)


class ModelType(NamedTuple):
    """Fields parser, builder, task family, default schedule and horizon of a model type."""

    fields: Callable
    build: Callable
    family: object  # a family name, or a function of the validated fields returning one
    schedule: object = DEFAULT_SCHEDULE  # likewise a constant or a function of the fields
    horizon: int = 128


MODEL_TYPES = {
    "random-pair": ModelType(
        _int_fields(dim=(16, 2)),
        lambda s, rng, p: {"pair": OperatorPair.discrete(_random_unitary(rng, s["dim"]),
                                                         _random_hermitian(rng, s["dim"]))},
        "pair"),
    "matrix-pair": ModelType(
        _matrix_pair_fields, _build_matrix_pair,
        family=lambda s: "flow" if "generator" in s else "pair",
        schedule=lambda s: (0.5, 1.5, 3.0) if "generator" in s else DEFAULT_SCHEDULE),
    "shift": ModelType(
        _int_fields(window=(200, 4), margin=(3, 0)),
        lambda s, rng, p: {"pair": shift_weyl_model(s["window"], s["margin"]).pair},
        "pair", schedule=lambda s: [s["window"], 2 * s["window"], 4 * s["window"]]),
    "torus": ModelType(_torus_fields, _build_torus, "torus",
                       schedule=(16, 32, 64, 128, 256, 512, 1024), horizon=512),
    "su2": ModelType(_su2_fields, _build_su2, "su2", schedule=(1000000,)),
    "graph-line": ModelType(
        _int_fields(length=(200, 2), margin=(3, 0)),
        lambda s, rng, p: {"window": line_window(s["length"], s["margin"])}, "graph"),
    "graph-grid2d": ModelType(
        _int_fields(nx=(24, 2), ny=(24, 2), margin=(2, 0)),
        lambda s, rng, p: {"window": grid2d_window(s["nx"], s["ny"], s["margin"])}, "graph"),
    "graph-cycle4-alt": ModelType(
        _int_fields(), lambda s, rng, p: {"window": alternating_cycle4()}, "graph"),
    "graph-file": ModelType(lambda m, p: {"path": _get_str(m.get("path"), f"{p}.path")},
                            _build_graph_file, "graph"),
}


def _resolve(value, spec):
    return value(spec) if callable(value) else value


def model_family(spec):
    """Task family of a validated model: the key of its row in ``HANDLERS``."""
    return _resolve(MODEL_TYPES[spec["type"]].family, spec)


def _validate_model(model, path):
    if not isinstance(model, dict):
        _fail(path, "expected an object")
    mtype = _get_str(model.get("type"), f"{path}.type")
    if mtype not in MODEL_TYPES:
        _fail(f"{path}.type", f"unknown model type {mtype!r}; known: {sorted(MODEL_TYPES)}")
    spec = {"type": mtype, **MODEL_TYPES[mtype].fields(model, path)}
    extra = set(model) - set(spec)
    if extra:
        _fail(path, f"unknown model fields {sorted(extra)}")
    return spec


def validate_config(raw, default_seed=None):
    """Normalize a parsed config dict, filling documented defaults.

    Raises SchemaError with a field path on the first violation.
    """
    if not isinstance(raw, dict):
        _fail("config", "top level must be an object")
    version = raw.get("version")
    if version != CONFIG_VERSION:
        _fail("config.version", f"expected {CONFIG_VERSION}, got {version!r}")
    scenarios = raw.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        _fail("config.scenarios", "expected a nonempty list")
    extra = set(raw) - {"version", "scenarios"}
    if extra:
        _fail("config", f"unknown top-level fields {sorted(extra)}")
    default_seed = 0 if default_seed is None else _get_int(default_seed, "default_seed", minimum=0)

    seen_names = set()
    normalized = []
    for i, sc in enumerate(scenarios):
        path = f"config.scenarios[{i}]"
        if not isinstance(sc, dict):
            _fail(path, "expected an object")
        name = _get_str(sc.get("name"), f"{path}.name")
        # a name is a directory under --out, so it may not leave it or shadow a report file
        if not _NAME_RE.fullmatch(name) or name in (".", "..", "report.json", "report.meta.json"):
            _fail(f"{path}.name", "names are limited to letters, digits, dot, dash, underscore, "
                                  "and may not be '.', '..', 'report.json' or 'report.meta.json'")
        if name in seen_names:
            _fail(f"{path}.name", f"duplicate scenario name {name!r}")
        seen_names.add(name)

        model = _validate_model(sc.get("model"), f"{path}.model")
        entry = MODEL_TYPES[model["type"]]
        family = model_family(model)
        handlers = HANDLERS[family]

        tasks = sc.get("tasks")
        if not isinstance(tasks, list) or not tasks:
            _fail(f"{path}.tasks", "expected a nonempty list")
        for j, task in enumerate(tasks):
            if _get_str(task, f"{path}.tasks[{j}]") not in handlers:
                _fail(f"{path}.tasks[{j}]", f"task {task!r} is not supported for model type "
                                            f"{model['type']!r} (family {family!r} runs {sorted(handlers)})")
        if len(set(tasks)) != len(tasks):
            _fail(f"{path}.tasks", "duplicate tasks")

        seed = _get_int(sc.get("seed", default_seed), f"{path}.seed", minimum=0)

        schedule = sc.get("schedule")
        if schedule is None:
            schedule = list(_resolve(entry.schedule, model))
        if not isinstance(schedule, list) or not schedule:
            _fail(f"{path}.schedule", "expected a nonempty list")
        if family == "flow":
            schedule = [_get_number(v, f"{path}.schedule[{j}]") for j, v in enumerate(schedule)]
            if any(v <= 0 for v in schedule):
                _fail(f"{path}.schedule", "entries must be positive")
        else:
            schedule = [_get_int(v, f"{path}.schedule[{j}]", minimum=1) for j, v in enumerate(schedule)]
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            _fail(f"{path}.schedule", "entries must be strictly increasing")

        horizon = _get_int(sc.get("horizon", entry.horizon), f"{path}.horizon", minimum=16)

        # the one settable threshold; the runner reads the others from DEFAULT_THRESHOLDS
        thresholds = {"graph_flow_residual": DEFAULT_THRESHOLDS["graph_flow_residual"]}
        overrides = sc.get("thresholds", {})
        if not isinstance(overrides, dict):
            _fail(f"{path}.thresholds", "expected an object")
        for key, value in overrides.items():
            key_path = f"{path}.thresholds.{key}"
            if key not in thresholds:
                _fail(key_path, "unknown threshold key")
            thresholds[key] = _get_number(value, key_path)
            if thresholds[key] < 0:
                _fail(key_path, f"must be >= 0, got {value!r}")

        expect = sc.get("expect_admissible", True)
        if not isinstance(expect, bool):
            _fail(f"{path}.expect_admissible", "expected a boolean")

        extra = set(sc) - {"name", "seed", "model", "tasks", "schedule", "horizon",
                           "thresholds", "expect_admissible"}
        if extra:
            _fail(path, f"unknown scenario fields {sorted(extra)}")

        normalized.append({"name": name, "seed": seed, "model": model, "tasks": list(tasks),
                           "schedule": schedule, "horizon": horizon, "thresholds": thresholds,
                           "expect_admissible": expect})
    return {"version": CONFIG_VERSION, "scenarios": normalized}


def _random_unitary(rng, dim):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def _random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / (2.0 * np.sqrt(dim))


def _random_su2(rng):
    g = _random_unitary(rng, 2)
    return g / np.sqrt(complex(np.linalg.det(g)))


@contextlib.contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off, and restore the caller's state on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_matrix(value, path):
    # a parse makes dim^2 acyclic [re, im] lists, which no collection can free
    # but each one walks; they are dropped by reference counting before the
    # collector resumes, so no sweep ever sees them. The pair degree artifact
    # serializes under the same pause, because checking its limit builds and
    # drops the same dim^2 lists.
    # A file is parsed by orjson, strictly to RFC 8259 (no NaN or Infinity, no
    # number beyond the double range), with the same correctly rounded doubles
    # as json but in C; it is imported here, so runs that name no matrix file
    # do not load it. Its JSONDecodeError subclasses json's.
    with _collector_paused():
        if isinstance(value, str):
            import orjson

            try:
                payload = orjson.loads(_read_regular_file(value))
            except (OSError, UnicodeDecodeError) as exc:
                _fail(path, f"cannot read matrix file {value!r}: {exc}")
            except json.JSONDecodeError as exc:
                _fail(path, f"matrix file {value!r} is not valid JSON: {exc}")
        else:
            payload = value
        try:
            matrix = matrix_from_payload(payload)
        except SchemaError as exc:
            where = f" in file {value!r}" if isinstance(value, str) else ""
            _fail(path, f"bad matrix payload{where}: {exc}")
        del payload
    return matrix


def build_model(scenario):
    """Instantiate model objects for a normalized scenario.

    Construction problems (non-unitary data, inconsistent Fourier mirrors)
    are config errors and surface as SchemaError.
    """
    model = scenario["model"]
    path = f"scenario {scenario['name']!r} model"
    try:
        return MODEL_TYPES[model["type"]].build(model, np.random.default_rng(scenario["seed"]), path)
    except SchemaError:
        raise
    except Exception as exc:
        _fail(path, str(exc))


def _worst(statuses):
    rank = {"pass": 0, "warn": 1, "fail": 2}
    return max(statuses, key=lambda s: rank[s]) if statuses else "pass"


def _fourier_bump():
    # C^3 on the circle: smoothstep rise/fall with identical vanishing ends
    window = SmoothWindow(0.2, 0.8, order=3, ramp=0.2)

    def bump(theta):
        return window(np.asarray(theta) / (2.0 * np.pi))

    return bump


def _unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class ScenarioRunner:
    """Executes the tasks of one scenario and collects report rows.

    Objects that several tasks derive from the model are cached properties.
    """

    def __init__(self, scenario, built):
        self.scenario = scenario
        self.built = built
        self.handlers = HANDLERS[model_family(scenario["model"])]
        self.thresholds = {**DEFAULT_THRESHOLDS, **scenario["thresholds"]}
        self.artifacts = {}
        self.tracebacks = {}

    def run(self):
        """Run every task of the scenario.

        A task that raises fails with a one-line error; its traceback is kept
        in ``tracebacks``.  The model is echoed as validated, except that the
        builder's ``echo`` entries (the matrix digests of a matrix pair)
        replace the fields they name.
        """
        rows = []
        for task in self.scenario["tasks"]:
            try:
                status, metrics, used = self.handlers[task](self)
            except Exception as exc:
                status, metrics, used = "fail", {"error": f"{type(exc).__name__}: {exc}"}, {}
                self.tracebacks[task] = traceback.format_exc()
            rows.append({"task": task, "status": status, "metrics": metrics, "thresholds": used})
        echo = ("name", "seed", "model", "schedule", "horizon", "expect_admissible")
        result = {key: self.scenario[key] for key in echo}
        result["model"] = {**result["model"], **self.built.get("echo", {})}
        return {**result, "status": _worst([r["status"] for r in rows]), "tasks": rows}, self.artifacts

    def _used(self, *keys):
        return {k: self.thresholds[k] for k in keys}

    # -- derived objects ------------------------------------------------

    @functools.cached_property
    def admissibility_report(self):
        return check_admissible(self.built["window"])

    @functools.cached_property
    def graph_operators(self):
        return build_operators(self.built["window"], self.admissibility_report)

    def _correlation_vectors(self):
        # keyed by (seed, purpose), so task order cannot change the stream
        rng = np.random.default_rng([self.scenario["seed"], *b"correlation-vectors"])
        dim = self.built["pair"].dim
        return _unit_vector(rng, dim), _unit_vector(rng, dim)

    @functools.cached_property
    def pair_series(self):
        phi, psi = self._correlation_vectors()
        return correlation_discrete(self.built["pair"].main, phi, psi, self.scenario["horizon"])

    @functools.cached_property
    def flow_series(self):
        phi, psi = self._correlation_vectors()
        times = np.linspace(0.0, float(self.scenario["schedule"][-1]), self.scenario["horizon"])
        return correlation_continuous(self.built["pair"].main, phi, psi, times)

    @functools.cached_property
    def pair_averages(self):
        # one (N, D_N, U^N), or (t, D_t, e^{-itH}) for a flow, per horizon,
        # shared by identities and degree
        return degree_averages(self.built["pair"], self.scenario["schedule"])

    @functools.cached_property
    def torus_series(self):
        observable = {(1,) * self.built["cocycle"].d: 1.0}
        return sector_correlation(self.built["cocycle"], self.built["flow"],
                                  observable, observable, self.scenario["horizon"])

    # -- identities ---------------------------------------------------

    def discrete_identities(self):
        # residual/N is ||D_N - (1/N)[A, U^N]U^{-N}|| up to the roundoff of
        # U^N's unitarity, so alternative_agreement bounds it directly
        pair, schedule = self.built["pair"], self.scenario["schedule"]
        checks = [identity_check(pair, *row) for row in self.pair_averages]
        cap = self.thresholds["identity_residual"]
        agree_cap = self.thresholds["alternative_agreement"]
        ok = all(c.residual <= max(c.expected, cap) and c.residual / c.steps <= agree_cap for c in checks)
        metrics = {
            "schedule": list(schedule),
            "residuals": [c.residual for c in checks],
            "expected": [c.expected for c in checks],
        }
        return ("pass" if ok else "fail"), metrics, self._used("identity_residual", "alternative_agreement")

    def flow_identities(self):
        pair = self.built["pair"]
        checks = [identity_check(pair, *row) for row in self.pair_averages]
        metrics = {
            "durations": [c.duration for c in checks],
            "residuals": [c.residual for c in checks],
            "estimates": [c.error_estimate for c in checks],
        }
        factor = self.thresholds["flow_residual_factor"]
        ok = all(c.residual <= factor * c.error_estimate for c in checks)
        return ("pass" if ok else "fail"), metrics, self._used("flow_residual_factor")

    def graph_identities(self):
        ops = self.graph_operators
        res = interior_residuals(ops)
        cap = self.thresholds["graph_identity_residual"]
        ok = res.momentum_commutator <= cap and res.degree_identity <= cap
        metrics = {
            "momentum_commutator": res.momentum_commutator,
            "degree_identity": res.degree_identity,
            "interior_size": int(ops.interior_rows.size),
        }
        return ("pass" if ok else "fail"), metrics, self._used("graph_identity_residual")

    def torus_identities(self):
        cocycle = self.built["cocycle"]
        # the mode torus_series observes; every y_i > 0, so its eigenvalue under A is nonzero
        report = sector_identity_check(cocycle, self.built["flow"], (1,) * cocycle.d,
                                       (self.built["grid"],) * cocycle.d, self.scenario["schedule"])
        factor = self.thresholds["torus_identity_factor"]
        ok = all(r <= factor * e for r, e in zip(report.residuals, report.estimates))
        metrics = {
            "horizons": report.horizons,
            "residuals": report.residuals,
            "estimates": report.estimates,
            "unresolved_horizons": report.unresolved,
        }
        status = "fail" if not ok else "pass" if report.horizons else "warn"
        return status, metrics, self._used("torus_identity_factor")

    def su2_identities(self):
        cocycle = self.built["cocycle"]
        flow = self.built["flow"]
        label = cocycle.label
        xs = [np.full(cocycle.d, 0.15), np.full(cocycle.d, 0.45)]
        if cocycle.d == 1:
            xs = [x[0] for x in xs]
        g1 = cocycle.value(xs[0])
        g2 = cocycle.value(xs[1])
        hom_gap = float(np.max(np.abs(
            su2_irrep(label, g1 @ g2) - su2_irrep(label, g1) @ su2_irrep(label, g2)
        )))
        steps = 5
        x0 = xs[0]
        brute = np.eye(label + 1, dtype=complex)
        for m in range(steps):
            brute = cocycle.representation_value(flow.advance(x0, m)) @ brute
        closed = cocycle.accumulated_representation(flow, x0, steps)
        product_gap = float(np.max(np.abs(closed - brute)))
        cap = self.thresholds["representation_homomorphism"]
        ok = hom_gap <= cap and product_gap <= cap
        metrics = {"homomorphism_gap": hom_gap, "product_gap": product_gap, "steps": steps}
        return ("pass" if ok else "fail"), metrics, self._used("representation_homomorphism")

    # -- degree -------------------------------------------------------

    def pair_degree(self):
        # D_N = (A - U^N A U^-N)/N telescopes, so ||D_N|| <= 2||A||/N (2||A~||/t
        # for a flow) and D = 0: past the bound is a bug, at 0 the limit is reached
        pair = self.built["pair"]
        estimate = DegreeEstimate.from_averages(pair, self.pair_averages)
        # to_json checks the limit through matrix_to_payload, whose dim^2
        # acyclic entry lists are dropped before the collector resumes
        with _collector_paused():
            self.artifacts["degree-estimate.json"] = estimate.to_json() + "\n"
        norm, bound, floor = estimate.limit_norm, estimate.telescoping_bound, estimate.roundoff_floor
        metrics = {
            "limit_norm": norm,
            "telescoping_bound": bound,
            "roundoff_floor": floor,
            "boundary_ratio": norm / bound if norm else 0.0,
        }
        status = "fail" if not norm <= bound + floor else "pass" if norm <= floor else "warn"
        return status, metrics, self._used()

    def torus_degree(self):
        # pass iff the O(1/N) rate is certified and the last certified sup bound is small
        bound = torus_degree_bound(self.built["cocycle"], self.built["flow"], self.scenario["schedule"])
        self.artifacts["torus-degree.json"] = _dump_report(dataclasses.asdict(bound))
        ok = bound.rate_constant < math.inf and bound.sup_bounds[-1] <= self.thresholds["torus_sup_error"]
        metrics = {"limit": bound.limit, "final_sup_error": bound.sup_bounds[-1],
                   "final_l2_error": bound.l2_errors[-1], "rate_constant": bound.rate_constant,
                   "schedule": bound.schedule}
        return ("pass" if ok else "fail"), metrics, self._used("torus_sup_error")

    def su2_degree(self):
        # the torus gate on D_N - D = (rate_N - y.b) frame; D has eigenvalues 2 pi (y.b)(2k - n)
        cocycle, steps = self.built["cocycle"], self.scenario["schedule"][-1]
        bound = su2_degree_bound(cocycle, self.built["flow"], [steps])
        ok = bound.rate_constant < math.inf and bound.sup_bounds[-1] <= self.thresholds["torus_sup_error"]
        # + 0.0 turns the -0.0 of a zero weight or a zero y.b into 0.0
        predicted = np.sort(bound.limit * (2 * np.arange(cocycle.label + 1) - cocycle.label)) + 0.0
        metrics = {"steps": int(steps), "predicted": [float(v) for v in predicted],
                   "sup_bound": bound.sup_bounds[-1], "rate_constant": bound.rate_constant}
        return ("pass" if ok else "fail"), metrics, self._used("torus_sup_error")

    def graph_window_degree(self):
        # D >= 0 and dim ker D = dim ker K hold by Sylvester's law of inertia;
        # flow invariance is gated, and the sign of S^T S on the probe
        report = graph_degree(self.graph_operators)
        ok = (max(report.flow_residuals.values()) <= self.thresholds["graph_flow_residual"]
              and report.probe_gram >= -report.probe_gram_floor)
        metrics = {
            "kernel_dim": report.kernel_dim,
            "flow_residuals": {str(k): v for k, v in report.flow_residuals.items()},
            "probe_row": int(report.probe_row),
            "probe_gram": report.probe_gram,
        }
        return ("pass" if ok else "fail"), metrics, self._used("graph_flow_residual")

    # -- mixing / summability ------------------------------------------

    def mixing(self, series):
        self.artifacts["correlation.csv"] = series.to_csv()
        report = DecayReport(series, fraction=self.thresholds["decay_fraction"])
        metrics = {
            "head_peak": report.head_peak,
            "tail_peak": report.tail_peak,
            "decaying": bool(report.decaying),
            "samples": len(series),
        }
        return ("pass" if report.decaying else "warn"), metrics, self._used("decay_fraction")

    def summability(self, series):
        if "correlation.csv" not in self.artifacts:
            self.artifacts["correlation.csv"] = series.to_csv()
        report = SummabilityReport(series, rel_tail=self.thresholds["summability_rel_tail"])
        metrics = report.summary()
        metrics["saturating"] = bool(metrics["saturating"])
        status = "pass" if report.saturating else "warn"
        return status, metrics, self._used("summability_rel_tail")

    # -- fourier --------------------------------------------------------

    def fourier(self, unitary):
        calc = FourierCalculus(unitary, _fourier_bump(), self.thresholds["fourier_n_max"],
                               self.thresholds["fourier_gamma"])
        self.artifacts["fourier.csv"] = calc.to_csv()
        ok = (calc.recon_error <= self.thresholds["fourier_recon"]
              and calc.decay_exponent <= self.thresholds["fourier_exponent_max"])
        metrics = {
            "n_max": calc.n_max,
            "grid": calc.grid,
            "recon_error": calc.recon_error,
            "decomposition_residual": calc.decomposition_residual,
            "decay_exponent": calc.decay_exponent,
            "holder_constant": calc.holder_constant,
            "tail_bound": calc.tail_bound,
        }
        used = self._used("fourier_n_max", "fourier_gamma", "fourier_recon",
                          "fourier_exponent_max")
        return ("pass" if ok else "fail"), metrics, used

    # -- admissibility ---------------------------------------------------

    def admissibility(self):
        window = self.built["window"]
        report = self.admissibility_report
        expected = self.scenario["expect_admissible"]
        ok = report.admissible == expected
        metrics = {
            "admissible": bool(report.admissible),
            "expected": bool(expected),
            "path_balance_ok": bool(report.path_balance_ok),
            "pair_counts_ok": bool(report.pair_counts_ok),
            "vertices": len(window.vertices),
            "edges": len(window.edges),
            "boundary_size": len(window.boundary),
            "interior_size": len(window.interior),
        }
        if report.witness_cycle is not None:
            metrics["witness_cycle"] = [int(v) for v in report.witness_cycle]
            metrics["witness_balance"] = [int(c) for c in report.witness_balance]
        if report.witness_pair is not None:
            metrics["witness_pair"] = [int(v) for v in report.witness_pair]
            metrics["witness_counts"] = [int(c) for c in report.witness_counts]
        return ("pass" if ok else "fail"), metrics, {}



# task family -> task -> handler, which takes the ScenarioRunner and returns
# (status, metrics, thresholds used); validate_config accepts exactly these tasks
HANDLERS = {
    "pair": {
        "identities": ScenarioRunner.discrete_identities,
        "degree": ScenarioRunner.pair_degree,
        "mixing": lambda r: r.mixing(r.pair_series),
        "summability": lambda r: r.summability(r.pair_series),
        "fourier": lambda r: r.fourier(r.built["pair"].main),
    },
    "flow": {
        "identities": ScenarioRunner.flow_identities,
        "degree": ScenarioRunner.pair_degree,
        "mixing": lambda r: r.mixing(r.flow_series),
        "summability": lambda r: r.summability(r.flow_series),
    },
    "torus": {
        "identities": ScenarioRunner.torus_identities,
        "degree": ScenarioRunner.torus_degree,
        "mixing": lambda r: r.mixing(r.torus_series),
        "summability": lambda r: r.summability(r.torus_series),
    },
    "su2": {"identities": ScenarioRunner.su2_identities, "degree": ScenarioRunner.su2_degree},
    "graph": {"identities": ScenarioRunner.graph_identities, "degree": ScenarioRunner.graph_window_degree,
              "admissibility": ScenarioRunner.admissibility},
}


def _jsonable(obj):
    """``obj`` as values ``json.dumps`` writes as they are.

    Keys become ``str(k)`` (the last of equal keys wins), tuples and numpy
    arrays lists, numpy scalars Python ones, non-finite floats their ``repr``
    strings and complex numbers ``{"im": ..., "re": ...}``.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"im": _jsonable(obj.imag), "re": _jsonable(obj.real)}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _dump_report(report):
    """Deterministic report text: sorted keys, two-space indent, final newline."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def run_config(config, out_dir, threads=1):
    """Execute all scenarios in config order and write report, metadata, and artifacts.

    Scenarios run one at a time; ``threads`` accepts only 1.
    """
    if threads != 1:
        raise ValueError(f"scenarios run one at a time: threads must be 1, got {threads!r}")
    # build every model first, so that a build error leaves no output directory
    built = {sc["name"]: build_model(sc) for sc in config["scenarios"]}
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    outcomes = []
    scenario_walls = {}
    tracebacks = {}
    for sc in config["scenarios"]:
        tic = time.perf_counter()
        runner = ScenarioRunner(sc, built[sc["name"]])
        result, artifacts = runner.run()
        scenario_walls[sc["name"]] = time.perf_counter() - tic
        outcomes.append((sc["name"], result, artifacts))
        if runner.tracebacks:
            tracebacks[sc["name"]] = runner.tracebacks
    wall = time.perf_counter() - t0
    finished = datetime.datetime.now(datetime.timezone.utc)

    # artifacts are written once every scenario has run: writing them between
    # runs made 156 small scenarios 5-8% slower, runs included (2-core box,
    # OpenBLAS at two threads)
    results = []
    for name, result, artifacts in outcomes:
        rel = {}
        for fname, text in sorted(artifacts.items()):
            target = out / name / fname
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
            rel[fname.rsplit(".", 1)[0]] = f"{name}/{fname}"
        result["artifacts"] = rel
        results.append(result)

    # report assembly is ordered by scenario name regardless of run order
    results.sort(key=lambda r: r["name"])
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "tool": {"name": "commix", "version": __version__},
        "scenarios": results,
        "status": _worst([r["status"] for r in results]),
    }
    (out / "report.json").write_text(_dump_report(report))
    # report digits depend on the BLAS and its thread count; numpy exposes no
    # runtime thread count, so the variables that set it are recorded instead.
    # A pair, flow or Fourier run does all its dense LAPACK work on this BLAS
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    meta = {
        "started": started.isoformat(),
        "finished": finished.isoformat(),
        "wall_time_s": wall,
        "scenario_wall_times_s": {k: scenario_walls[k] for k in sorted(scenario_walls)},
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "task_tracebacks": tracebacks,
    }
    (out / "report.meta.json").write_text(_dump_report(meta))
    return report


def _diff_reports(a, b, path="report", rtol=1e-9, atol=1e-12):
    diffs = []
    if type(a) is not type(b):
        diffs.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        return diffs
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(f"{path}.{key}: missing on the left")
            elif key not in b:
                diffs.append(f"{path}.{key}: missing on the right")
            else:
                diffs.extend(_diff_reports(a[key], b[key], f"{path}.{key}", rtol, atol))
        return diffs
    if isinstance(a, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} != {len(b)}")
            return diffs
        for i, (x, y) in enumerate(zip(a, b)):
            diffs.extend(_diff_reports(x, y, f"{path}[{i}]", rtol, atol))
        return diffs
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if not np.isclose(fa, fb, rtol=rtol, atol=atol, equal_nan=True):
            diffs.append(f"{path}: {fa!r} != {fb!r}")
        return diffs
    if a != b:
        diffs.append(f"{path}: {a!r} != {b!r}")
    return diffs


EXAMPLE_CONFIGS = {
    "identities-random.json": {
        "version": 1,
        "scenarios": [
            {
                "name": "random-16-identities",
                "seed": 7,
                "model": {"type": "random-pair", "dim": 16},
                "tasks": ["identities"],
                "schedule": [1, 2, 5, 17, 64],
            }
        ],
    },
    "torus-sector.json": {
        "version": 1,
        "scenarios": [
            {
                "name": "torus-golden-sector",
                "seed": 1,
                "model": {
                    "type": "torus",
                    "y": 0.6180339887498949,
                    "winding": 2,
                    "sector": 3,
                    "eta": [[[1], 0.0, -0.025], [[-1], 0.0, 0.025]],
                    "grid": 8192,
                    "matrix_size": 256,
                },
                "tasks": ["identities", "degree", "mixing", "summability"],
                "schedule": [16, 32, 64, 128, 256, 512, 1024],
                "horizon": 512,
            }
        ],
    },
    "su2-transport.json": {
        "version": 1,
        "scenarios": [
            {
                "name": "su2-spin1-transport",
                "seed": 3,
                "model": {
                    "type": "su2",
                    "y": 0.41421356237309515,
                    "frequency": 1,
                    "label": 2,
                    "h": "seeded",
                    "eta": [[[1], 0.0, -0.05], [[-1], 0.0, 0.05]],
                    "grid": 512,
                },
                "tasks": ["identities", "degree"],
                "schedule": [2000],
            }
        ],
    },
    "graph-windows.json": {
        "version": 1,
        "scenarios": [
            {
                "name": "graph-line-200",
                "model": {"type": "graph-line", "length": 200, "margin": 3},
                "tasks": ["admissibility", "identities", "degree"],
            },
            {
                "name": "graph-grid-24",
                "model": {"type": "graph-grid2d", "nx": 24, "ny": 24, "margin": 2},
                "tasks": ["admissibility", "identities", "degree"],
                "thresholds": {"graph_flow_residual": 0.2},
            },
            {
                "name": "graph-cycle4-alternating",
                "model": {"type": "graph-cycle4-alt"},
                "tasks": ["admissibility"],
                "expect_admissible": False,
            },
        ],
    },
    "shift-cycle.json": {
        "version": 1,
        "scenarios": [
            {
                "name": "shift-200",
                "seed": 11,
                "model": {"type": "shift", "window": 200, "margin": 3},
                "tasks": ["identities", "degree"],
                "schedule": [200, 400, 800],
            }
        ],
    },
}


def _cmd_run(args):
    try:
        raw = json.loads(_read_regular_file(args.config))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config {args.config!r}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        config = validate_config(raw, default_seed=args.seed)
        report = run_config(config, args.out)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write to --out {args.out!r}: {exc}", file=sys.stderr)
        return 2
    for sc in report["scenarios"]:
        print(f"scenario {sc['name']}: {sc['status']}")
    print(f"overall: {report['status']}")
    print(f"report: {pathlib.Path(args.out) / 'report.json'}")
    if report["status"] == "fail":
        return 1
    if report["status"] == "warn" and args.strict:
        return 1
    return 0


def _cmd_compare(args):
    loaded = []
    for name in (args.left, args.right):
        try:
            loaded.append(json.loads(_read_regular_file(name)))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            print(f"error: cannot load report {name!r}: {exc}", file=sys.stderr)
            return 2
    for name, rep in zip((args.left, args.right), loaded):
        if not isinstance(rep, dict) or rep.get("format") != REPORT_FORMAT:
            print(f"error: {name!r} is not a {REPORT_FORMAT} document", file=sys.stderr)
            return 2
    if loaded[0].get("version") != loaded[1].get("version"):
        versions = " vs ".join(repr(rep.get("version")) for rep in loaded)
        print(f"error: report versions differ ({versions}); refusing to compare", file=sys.stderr)
        return 2
    diffs = _diff_reports(loaded[0], loaded[1])
    if not diffs:
        print("reports match")
        return 0
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)")
    return 1


def _cmd_emit_examples(args):
    out = pathlib.Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for fname in sorted(EXAMPLE_CONFIGS):
            target = out / fname
            target.write_text(json.dumps(EXAMPLE_CONFIGS[fname], indent=2, sort_keys=True) + "\n")
            print(f"wrote {target}")
    except OSError as exc:
        print(f"error: cannot write to --out {args.out!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="commix",
        description="Commutator-based mixing diagnostics: batch scenario runner.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute the scenarios of a config file")
    p_run.add_argument("config", help="path to a JSON scenario config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="default seed for scenarios that do not set one")
    p_run.add_argument("--out", default="commix-report", help="output directory")
    p_run.add_argument("--strict", action="store_true", help="treat warnings as failures")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="diff two run reports with numeric tolerance")
    p_cmp.add_argument("left")
    p_cmp.add_argument("right")
    p_cmp.set_defaults(func=_cmd_compare)

    p_ex = sub.add_parser("emit-examples", help="write the bundled example configs")
    p_ex.add_argument("--out", default="configs", help="output directory")
    p_ex.set_defaults(func=_cmd_emit_examples)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
