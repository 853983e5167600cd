"""Scenario configs for each benchmark workload, generated from a seed.

Structural sizes (dims, horizons, schedules, labels, grids, translation
vectors) are fixed per workload.  The seed feeds only scenario seeds and the
entries of generated matrices, so every generated config stays inside the
validated regime and its task statuses do not depend on the seed.  Each
scenario carries the status of every task as pinned at the commit that
introduced the benchmark; ``run.py`` counts any other status as a failure.
"""

from __future__ import annotations

import json

import numpy as np

from commix.cli import EXAMPLE_CONFIGS
from commix.operators import matrix_to_payload

WORKLOADS = ("examples", "pairs-long", "pairs-short", "skew-long")

GOLDEN = 0.6180339887498949
SILVER = 0.41421356237309515
SHORT_SCHEDULE = [1, 2, 5, 17, 64]

# Pinned statuses per scenario kind, in task order.  Random pairs never
# converge on these schedules ("warn"), but with at most five schedule entries
# the divergence test sees a single gap and cannot report "fail".  Random
# unitaries neither decay nor have summable correlations ("warn").
DISCRETE_PAIR = {"identities": "pass", "degree": "warn"}
DISCRETE_MIXING = {"mixing": "warn", "summability": "warn"}
FLOW_PAIR = {"identities": "pass", "degree": "warn"}
FOURIER = {"fourier": "pass"}
GRAPH = {"admissibility": "pass", "identities": "pass", "degree": "pass"}


def _random_unitary(rng, dim):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _unitary_with_fixed_spectrum(rng, dim):
    """Random eigenvectors around a spectrum that depends only on ``dim``.

    The eigenvalue angles follow the golden-ratio Weyl sequence, so the
    Fourier reconstruction error, which is set by where the eigenvalues sit
    on the circle, is the same for every seed.
    """
    angles = 2.0 * np.pi * ((np.arange(1, dim + 1) * GOLDEN) % 1.0)
    v = _random_unitary(rng, dim)
    return (v * np.exp(1j * angles)) @ v.conj().T


def _random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / (2.0 * np.sqrt(dim))


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _scenario(name, model, expect, **fields):
    """A config scenario whose ``tasks`` are the keys of ``expect``."""
    return {"name": name, "model": model, "tasks": list(expect), **fields}, dict(expect)


def _matrix_pair(rng, dim, kind, files=None, name=None):
    """``matrix-pair`` model: a unitary or a generator plus a conjugate.

    ``kind`` is ``"unitary"``, ``"spectrum"`` (a unitary with a fixed
    spectrum) or ``"generator"``.

    Payloads are inline unless ``files`` is given; then each payload goes to
    ``files`` under a relative path and the model names that path, which keeps
    large matrices out of the model that ``report.json`` echoes.
    """
    main = {"unitary": _random_unitary, "spectrum": _unitary_with_fixed_spectrum,
            "generator": _random_hermitian}[kind](rng, dim)
    kind = "generator" if kind == "generator" else "unitary"
    model = {"type": "matrix-pair"}
    for field, matrix in ((kind, main), ("conjugate", _random_hermitian(rng, dim))):
        payload = matrix_to_payload(matrix)
        if files is None:
            model[field] = payload
        else:
            path = f"matrices/{name}.{field}.json"
            files[path] = json.dumps(payload)
            model[field] = path
    return model


def examples(rng, files):
    """The bundled example configs merged as shipped, with seeds drawn from ``rng``.

    Every task of every bundled example passes.
    """
    out = []
    for fname in sorted(EXAMPLE_CONFIGS):
        for sc in EXAMPLE_CONFIGS[fname]["scenarios"]:
            sc = dict(sc)
            if "seed" in sc:
                sc["seed"] = _seed(rng)
            out.append((sc, {task: "pass" for task in sc["tasks"]}))
    return out


def pairs_long(rng, files):
    """Matrix pairs at long horizons: running sums, quadrature, dense Fourier."""
    return [
        _scenario("random-64-long", {"type": "random-pair", "dim": 64}, DISCRETE_PAIR,
                  seed=_seed(rng), schedule=[125, 250, 500, 1000]),
        _scenario("matrix-128-long", _matrix_pair(rng, 128, "unitary", files, "matrix-128-long"),
                  DISCRETE_PAIR, seed=_seed(rng), schedule=[32, 64, 128, 256]),
        _scenario("shift-96", {"type": "shift", "window": 96, "margin": 3},
                  {"identities": "pass", "degree": "pass"}, seed=_seed(rng), schedule=[96, 192, 384]),
        _scenario("flow-32-long", _matrix_pair(rng, 32, "generator", files, "flow-32-long"),
                  FLOW_PAIR, seed=_seed(rng), schedule=[1.0, 2.0, 4.0]),
        _scenario("fourier-256", _matrix_pair(rng, 256, "spectrum", files, "fourier-256"),
                  {**DISCRETE_MIXING, **FOURIER}, seed=_seed(rng), horizon=256),
    ]


def pairs_short(rng, files):
    """Many small scenarios: per-scenario overhead and small-N averaging."""
    out = []
    for i in range(64):
        dim = (8, 16, 24, 32)[i % 4]
        out.append(_scenario(f"random-{dim}-{i:03d}", {"type": "random-pair", "dim": dim},
                             DISCRETE_PAIR, seed=_seed(rng), schedule=SHORT_SCHEDULE))
    for i in range(64):
        dim = (8, 16, 24, 32)[i % 4]
        out.append(_scenario(f"matrix-{dim}-{i:03d}", _matrix_pair(rng, dim, "unitary"),
                             {**DISCRETE_PAIR, **DISCRETE_MIXING}, seed=_seed(rng),
                             schedule=SHORT_SCHEDULE))
    for i in range(8):
        dim = (8, 16)[i % 2]
        out.append(_scenario(f"fourier-{dim}-{i:03d}", _matrix_pair(rng, dim, "spectrum"),
                             FOURIER, seed=_seed(rng)))
    for i in range(16):
        dim = (8, 16)[i % 2]
        out.append(_scenario(f"flow-{dim}-{i:03d}", _matrix_pair(rng, dim, "generator"),
                             FLOW_PAIR, seed=_seed(rng), schedule=[0.5, 1.5, 3.0]))
    for i in range(4):
        out.append(_scenario(f"graph-line-{i:03d}",
                             {"type": "graph-line", "length": 200, "margin": 3}, GRAPH))
    return out


def skew_long(rng, files):
    """SU(2) transport at long step counts and a fine-grid torus sector."""
    out = []
    # the extra spin-1 scenario puts the median scenario time inside a
    # cluster of equal-cost samples rather than between two clusters
    for label, frequency in ((1, 1), (2, 1), (2, 2), (3, 1)):
        model = {"type": "su2", "y": SILVER, "frequency": frequency, "label": label,
                 "h": "seeded", "eta": [[[1], 0.0, -0.05], [[-1], 0.0, 0.05]], "grid": 512}
        out.append(_scenario(f"su2-label{label}-freq{frequency}-long", model,
                             {"identities": "pass", "degree": "pass"},
                             seed=_seed(rng), schedule=[500]))
    model = {"type": "torus", "y": GOLDEN, "winding": 2, "sector": 3,
             "eta": [[[1], 0.0, -0.025], [[-1], 0.0, 0.025]], "grid": 16384, "matrix_size": 256}
    out.append(_scenario("torus-golden-fine", model,
                         {"identities": "pass", "degree": "pass", "mixing": "pass",
                          "summability": "pass"},
                         seed=_seed(rng), schedule=[16, 32, 64, 128, 256, 512, 1024], horizon=384))
    return out


_GENERATORS = {
    "examples": examples,
    "pairs-long": pairs_long,
    "pairs-short": pairs_short,
    "skew-long": skew_long,
}


def make_config(workload, seed):
    """Raw config for ``workload``, its pinned statuses and the files it names.

    Returns ``(config, expected, files)``: ``expected`` maps scenario name to
    ``{task: status}`` and ``files`` maps paths relative to the config's
    directory to their text.  The same seed gives the same result.
    """
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    files = {}
    pairs = _GENERATORS[workload](rng, files)
    config = {"version": 1, "scenarios": [sc for sc, _ in pairs]}
    expected = {sc["name"]: statuses for sc, statuses in pairs}
    return config, expected, files
