"""The one-pass report writer against the two-pass conversion and json.dumps it replaced."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from commix.cli import _dump_report, run_config, validate_config
from commix.operators import matrix_to_payload


def _jsonable(obj):
    """Recursively convert to JSON-safe values with deterministic floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"im": _jsonable(obj.imag), "re": _jsonable(obj.real)}
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def oracle(report):
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.text(),  # non-ASCII and control characters included
    st.complex_numbers(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
           array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
    # the writer joins a list of finite plain floats in one go
    st.lists(st.floats(allow_nan=False, allow_infinity=False)),
)
# int and str keys may collide after str(k), where the last one wins
keys = st.one_of(st.integers(-3, 3), st.sampled_from(["-1", "0", "1", "a", "b", "é", "☃"]), st.text())
reports = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(keys, children),
    ),
    max_leaves=25,
)


@settings(max_examples=100)
@given(reports)
def test_dump_report_matches_jsonable_then_json_dumps(report):
    assert _dump_report(report) == oracle(report)


def test_dump_report_edge_values():
    report = {
        2: [], "10": {}, 1: "one", "1": "uno", (): None,
        "floats": [0.1, -0.0, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"), -float("inf")],
        "numpy": [np.float32(0.1), np.int8(-3), np.bool_(True), np.complex64(1 - 2j), np.array([[1.5j]])],
        "text": "ünïcødé   \"quoted\" \\ \n",
    }
    assert _dump_report(report) == oracle(report)
    assert _dump_report([]) == "[]\n" and _dump_report({}) == "{}\n"


def test_report_files_are_sorted_indented_json(tmp_path):
    # matrix payloads inline, a torus scenario whose summability has tail_slope "nan",
    # and a graph scenario
    rng = np.random.default_rng(5)
    unitary, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    conjugate = rng.standard_normal((4, 4))
    config = validate_config({"version": 1, "scenarios": [
        {"name": "pair", "horizon": 16,
         "model": {"type": "matrix-pair", "unitary": matrix_to_payload(unitary),
                   "conjugate": matrix_to_payload(conjugate + conjugate.T)},
         "tasks": ["identities", "degree", "mixing", "summability", "fourier"]},
        {"name": "torus", "horizon": 16, "schedule": [16, 32],
         "model": {"type": "torus", "y": 0.6180339887498949, "winding": 2, "sector": 3,
                   "grid": 1024, "matrix_size": 64},
         "tasks": ["identities", "degree", "mixing", "summability"]},
        {"name": "line", "model": {"type": "graph-line", "length": 40, "margin": 2},
         "tasks": ["admissibility", "identities", "degree"],
         "thresholds": {"graph_flow_residual": 1.0}},
    ]})
    out = tmp_path / "out"
    report = run_config(config, out)
    assert [row["metrics"].get("error") for sc in report["scenarios"] for row in sc["tasks"]] == [None] * 12
    text = (out / "report.json").read_text()
    assert '"tail_slope": "nan"' in text
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    for name in ("report.meta.json", "torus/torus-degree.json"):
        other = (out / name).read_text()
        assert other == json.dumps(json.loads(other), sort_keys=True, indent=2) + "\n", name
