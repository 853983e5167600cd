"""Acceptance gates: one test per shipping criterion, with pinned tolerances.

Each test prints its measured headline number so `pytest -v -s` doubles as an
acceptance protocol transcript.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

from commix import (
    FourierCalculus,
    OperatorPair,
    SmoothWindow,
    SU2Cocycle,
    TorusCocycle,
    TorusFlow,
    alternating_cycle4,
    build_operators,
    birkhoff_discrete,
    cayley_transform,
    check_admissible,
    degree_alternative,
    epsilon_commutator_slope,
    flow_identity_check,
    graph_degree,
    grid2d_window,
    interior_residuals,
    inverse_cayley_transform,
    line_window,
    sector_correlation,
    selfadjoint_symbol,
    spectral_norm,
    su2_degree_field,
    torus_degree_field,
    unitary_symbol,
)
from commix import cli
from commix.cli import run_config, validate_config

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def test_criterion_1_discrete_degree_identity():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_residual = 0.0
    worst_gap = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 65))
        u = random_unitary(rng, dim)
        a = random_hermitian(rng, dim)
        pair = OperatorPair.discrete(u, a)
        symbol = unitary_symbol(pair)
        norm_a = spectral_norm(a)
        for steps in (1, 2, 5, 17, 64):
            d_n = birkhoff_discrete(u, symbol, steps)
            u_n = np.linalg.matrix_power(u, steps)
            residual = spectral_norm((a @ u_n - u_n @ a) - steps * d_n @ u_n)
            bound = 1e-9 * (1.0 + norm_a) * (1.0 + steps)
            assert residual <= bound, f"dim={dim} N={steps}: {residual:.3e} > {bound:.3e}"
            worst_residual = max(worst_residual, residual / bound)
            gap = spectral_norm(degree_alternative(pair, steps) - d_n)
            assert gap <= 1e-10
            worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst residual {worst_residual:.2e} of bound, "
          f"worst alternative gap {worst_gap:.2e}, {elapsed:.1f}s")
    assert elapsed <= 30.0


def test_criterion_2_flow_identity():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        h = random_hermitian(rng, dim)
        a = random_hermitian(rng, dim)
        pair = OperatorPair.continuous(h, a)
        for duration in (0.5, 1.5, 3.0):
            chk = flow_identity_check(pair, duration)
            assert chk.residual <= 10.0 * chk.error_estimate, \
                f"dim={dim} t={duration}: {chk.residual:.3e} vs {chk.error_estimate:.3e}"
            assert chk.residual <= 1e-7
            worst = max(worst, chk.residual)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst residual {worst:.2e}, {elapsed:.1f}s")
    assert elapsed <= 60.0


def test_criterion_3_cayley_bridge():
    rng = np.random.default_rng(1003)
    worst_round = 0.0
    worst_bridge = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        angles = 0.2 + (2 * np.pi - 0.4) * rng.random(dim)
        basis = random_unitary(rng, dim)
        u = basis @ np.diag(np.exp(1j * angles)) @ basis.conj().T
        a = random_hermitian(rng, dim)
        h = cayley_transform(u)
        worst_round = max(worst_round, spectral_norm(inverse_cayley_transform(h) - u))
        sandwich = selfadjoint_symbol(OperatorPair.continuous(h, a))
        direct = 0.5 * (a @ u - u @ a) @ u.conj().T
        worst_bridge = max(worst_bridge, spectral_norm(sandwich + direct))
    print(f"criterion 3: round trip {worst_round:.2e}, bridge {worst_bridge:.2e}")
    assert worst_round <= 1e-9
    assert worst_bridge <= 1e-9


def test_criterion_4_torus_degree_and_correlation():
    t0 = time.perf_counter()
    flow = TorusFlow([GOLDEN])
    # winding 2 and eta modes +-0.025j, seen by the sector of charge 3
    coc = TorusCocycle([2 * 3], {(1,): 3 * -0.025j, (-1,): 3 * 0.025j})
    sup_at_1024 = torus_degree_field(coc, flow, (1024,), 1024).sup_error
    assert sup_at_1024 <= 0.05

    steps = [2**k for k in range(4, 11)]
    errors = [torus_degree_field(coc, flow, (1024,), n).sup_error for n in steps]
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    assert -1.3 <= slope <= -0.7

    amp = 1.0 / np.sqrt(2.0)
    f = {(1,): amp, (-1,): amp}
    series = sector_correlation(coc, flow, f, f, 512)
    window = np.abs(series.values[255:512])
    peak = float(np.max(window))
    assert peak <= 0.1 * sum(abs(c) ** 2 for c in f.values())
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: sup(1024) {sup_at_1024:.3e}, slope {slope:.3f}, "
          f"late-window peak {peak:.2e}, {elapsed:.1f}s")
    assert elapsed <= 60.0


def test_criterion_5_su2_transport():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    flow = TorusFlow([GOLDEN])
    # seeded non-diagonal conjugator
    phase = rng.standard_normal(3)
    c, s = np.cos(phase[0]), np.sin(phase[0])
    h = np.array(
        [[c * np.exp(1j * phase[1]), -s * np.exp(1j * phase[2])],
         [s * np.exp(-1j * phase[2]), c * np.exp(-1j * phase[1])]]
    )
    assert abs(h[0, 1]) > 0.1  # genuinely non-diagonal
    modes = {(1,): -0.05j, (-1,): 0.05j}
    for label in (1, 2, 3):
        rep = su2_degree_field(SU2Cocycle(h, [1], modes, label), flow, (512,), 2000)
        scale = max(np.max(np.abs(rep.predicted_eigenvalues)), 1e-12)
        rel = np.max(np.abs(np.sort(rep.eigenvalues) - np.sort(rep.predicted_eigenvalues))) / scale
        assert rel <= 2e-2, f"label {label}: relative eigenvalue error {rel:.3e}"
        expected_kernel = 1 if label % 2 == 0 else 0
        assert rep.kernel_dim == expected_kernel, f"label {label}"
        print(f"criterion 5: label {label} rel {rel:.2e} kernel {rep.kernel_dim}")
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: {elapsed:.1f}s")
    assert elapsed <= 120.0


def test_criterion_6_epsilon_commutator_slope():
    rng = np.random.default_rng(1006)
    slopes = []
    for _ in range(20):
        dim = int(rng.integers(2, 25))
        s = random_hermitian(rng, dim)
        a = random_hermitian(rng, dim)
        slope, _ = epsilon_commutator_slope(s, a, [1e-2, 1e-3, 1e-4])
        assert 0.9 <= slope <= 1.1, f"slope {slope:.4f}"
        slopes.append(slope)
    print(f"criterion 6: slopes in [{min(slopes):.4f}, {max(slopes):.4f}]")


def test_criterion_7_graph_windows():
    t0 = time.perf_counter()
    line = build_operators(line_window(200, 3))
    res_line = interior_residuals(line)
    assert res_line.momentum_commutator <= 1e-12
    assert res_line.degree_identity <= 1e-12
    deg_line = graph_degree(line)
    assert deg_line.kernel_match

    grid = build_operators(grid2d_window(24, 24, 2))
    res_grid = interior_residuals(grid)
    assert res_grid.momentum_commutator <= 1e-12
    assert res_grid.degree_identity <= 1e-12
    deg_grid = graph_degree(grid)
    assert deg_grid.kernel_match

    rep = check_admissible(alternating_cycle4())
    assert not rep.admissible
    assert rep.witness_counts == (2, 0)
    assert rep.witness_counts[0] != rep.witness_counts[1]
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: line residuals ({res_line.momentum_commutator:.1e}, "
          f"{res_line.degree_identity:.1e}), grid residuals ({res_grid.momentum_commutator:.1e}, "
          f"{res_grid.degree_identity:.1e}), cycle4 counts {rep.witness_counts}, {elapsed:.1f}s")
    assert elapsed <= 30.0


def test_criterion_8_fourier_tail_control():
    rng = np.random.default_rng(1008)
    u = random_unitary(rng, 24)
    bump = SmoothWindow(0.2, 0.8, order=3, ramp=0.2)
    fc = FourierCalculus(u, lambda th: bump(th / (2 * np.pi)), 256, 1.0, grid=1024)
    print(f"criterion 8: recon {fc.recon_error:.2e}, exponent {fc.decay_exponent:.2f}")
    assert fc.recon_error <= 1e-8
    assert fc.decay_exponent <= -2.0


def test_criterion_9_byte_identical_reruns(tmp_path):
    config = validate_config(
        {
            "version": 1,
            "scenarios": [
                {
                    "name": "pair",
                    "seed": 13,
                    "model": {"type": "random-pair", "dim": 12},
                    "tasks": ["identities", "degree", "mixing"],
                    "schedule": [1, 2, 5, 17],
                },
                {
                    "name": "window",
                    "seed": 5,
                    "model": {"type": "graph-line", "length": 60, "margin": 2},
                    "tasks": ["identities", "admissibility", "degree"],
                    "thresholds": {"graph_flow_residual": 1.0},
                },
            ],
        }
    )
    run_config(config, tmp_path / "first")
    run_config(config, tmp_path / "second")
    run_config(config, tmp_path / "threaded", threads=2)
    first = (tmp_path / "first" / "report.json").read_bytes()
    assert (tmp_path / "second" / "report.json").read_bytes() == first
    assert (tmp_path / "threaded" / "report.json").read_bytes() == first
    parsed = json.loads(first)
    assert parsed["format"] == "run-report"
    print(f"criterion 9: {len(first)} report bytes, stable across reruns and threads")


BLAS_RUN = """
import pathlib, sys
from commix.cli import EXAMPLE_CONFIGS, run_config, validate_config
for fname, raw in sorted(EXAMPLE_CONFIGS.items()):
    run_config(validate_config(raw, default_seed=7), pathlib.Path(sys.argv[1]) / fname)
"""


def test_examples_agree_across_blas_thread_counts(tmp_path):
    # byte identity holds within one BLAS thread count only; across counts
    # the contract is what `commix compare` accepts, with equal statuses
    t0 = time.perf_counter()
    src = str(pathlib.Path(cli.__file__).parents[1])
    runs = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs[threads] = subprocess.Popen([sys.executable, "-c", BLAS_RUN, str(tmp_path / str(threads))],
                                         env=env, stderr=subprocess.PIPE, text=True)
    for threads, proc in runs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{threads} BLAS threads: {err}"
    for fname in sorted(cli.EXAMPLE_CONFIGS):
        one, two = (json.loads((tmp_path / str(t) / fname / "report.json").read_text()) for t in (1, 2))
        assert cli._diff_reports(one, two) == [], fname
        statuses = [[(sc["name"], task["task"], task["status"]) for sc in rep["scenarios"]
                     for task in sc["tasks"]] for rep in (one, two)]
        assert statuses[0] == statuses[1], fname
    print(f"BLAS threads 1 vs 2: {len(cli.EXAMPLE_CONFIGS)} example reports compare equal, "
          f"{time.perf_counter() - t0:.1f}s")
