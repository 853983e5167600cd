"""The report writer: one conversion rule per value kind, then sorted, indented JSON."""

import json

import numpy as np

from commix.cli import _dump_report, run_config, validate_config
from commix.operators import matrix_to_payload


def test_dump_report_edge_values():
    report = {
        # int and str keys that collide after str(k): the last one wins
        "2": "dos", 2: [], "10": {}, 1: "one", "1": "uno", (): None,
        "floats": [0.1, -0.0, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"), -float("inf")],
        "numpy": [np.float32(0.1), np.int8(-3), np.bool_(True), np.complex64(1 - 2j), np.array([[1.5j]]),
                  np.float64("nan"), (3, False)],
        "text": "ünïcødé ☃ \"quoted\" \\ \n\t\x01",
    }
    assert _dump_report(report) == """{
  "()": null,
  "1": "uno",
  "10": {},
  "2": [],
  "floats": [
    0.1,
    -0.0,
    5e-324,
    1.7976931348623157e+308,
    "nan",
    "inf",
    "-inf"
  ],
  "numpy": [
    0.10000000149011612,
    -3,
    true,
    {
      "im": -2.0,
      "re": 1.0
    },
    [
      [
        {
          "im": 1.5,
          "re": 0.0
        }
      ]
    ],
    "nan",
    [
      3,
      false
    ]
  ],
  "text": "\\u00fcn\\u00efc\\u00f8d\\u00e9 \\u2603 \\"quoted\\" \\\\ \\n\\t\\u0001"
}
"""
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
