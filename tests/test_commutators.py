"""Commutator identities, Birkhoff averages, and the windowed mixing bound."""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from commix import (
    OperatorPair,
    SmoothWindow,
    StructureError,
    birkhoff_continuous,
    birkhoff_discrete,
    degree_alternative,
    degree_identity_check,
    estimate_degree,
    flow_identity_check,
    max_norm,
    mixing_bound,
    project_onto_window,
    selfadjoint_symbol,
    shift_weyl_model,
    spectral_norm,
    tilde_conjugate,
    unitary_symbol,
)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_discrete_pair(rng, dim):
    return OperatorPair.discrete(random_unitary(rng, dim), random_hermitian(rng, dim))


def test_pair_validation():
    rng = np.random.default_rng(101)
    u = random_unitary(rng, 5)
    a = random_hermitian(rng, 5)
    with pytest.raises(StructureError):
        OperatorPair.discrete(u + 0.01, a)
    with pytest.raises(StructureError):
        OperatorPair.discrete(u, a + 0.01j * np.eye(5))
    with pytest.raises(StructureError):
        OperatorPair.continuous(u, a)  # generator must be Hermitian


def test_unitary_symbol_formula():
    rng = np.random.default_rng(102)
    pair = random_discrete_pair(rng, 7)
    u, a = pair.main, pair.conjugate
    direct = (a @ u - u @ a) @ u.conj().T
    m = unitary_symbol(pair)
    assert max_norm(m - (direct + direct.conj().T) / 2) <= 1e-12
    assert max_norm(m - m.conj().T) <= 1e-12


def test_selfadjoint_symbol_resolvent_sandwich():
    rng = np.random.default_rng(103)
    h = random_hermitian(rng, 6)
    a = random_hermitian(rng, 6)
    m = selfadjoint_symbol(OperatorPair.continuous(h, a))
    eye = np.eye(6)
    oracle = np.linalg.inv(h + 1j * eye) @ (1j * (h @ a - a @ h)) @ np.linalg.inv(h - 1j * eye)
    assert max_norm(m - oracle) <= 1e-12
    assert max_norm(m - m.conj().T) <= 1e-12


def loop_average(u, m, steps):
    """Reference running sum ``(1/N) sum_{n<N} U^n M U^{-n}``, one conjugation per step."""
    total = m.copy()
    current = m
    for _ in range(steps - 1):
        current = u @ current @ u.conj().T
        total += current
    return total / steps


def test_birkhoff_discrete_matches_brute_conjugation():
    rng = np.random.default_rng(104)
    for dim in (2, 6, 12):
        pair = random_discrete_pair(rng, dim)
        u = pair.main
        m = unitary_symbol(pair)
        m = m / spectral_norm(m)
        for steps in (1, 2, 3, 7, 64, 1000):
            err = max_norm(birkhoff_discrete(u, m, steps) - loop_average(u, m, steps))
            assert err <= 1e-12, f"dim={dim} N={steps}: {err:.3e}"


def test_birkhoff_discrete_bit_identical_on_shift():
    # products of permutation matrices are exact and the symbol's entries add
    # exactly, so doubling and the running sum must agree to the last bit
    model = shift_weyl_model(40, 3)
    u = model.pair.main
    m = unitary_symbol(model.pair)
    for steps in (1, 5, 40, 77, 160):
        assert np.array_equal(birkhoff_discrete(u, m, steps), loop_average(u, m, steps))


def test_birkhoff_discrete_long_horizon_matches_dirichlet_kernel():
    # oracle: U = Z diag(e^{i theta}) Z* gives D_N = Z (C o K_N) Z* with the
    # Dirichlet kernel K_N = e^{i(N-1)x/2} sin(Nx/2) / (N sin(x/2)), x = theta_j - theta_k
    rng = np.random.default_rng(118)
    pair = random_discrete_pair(rng, 6)
    u = pair.main
    m = unitary_symbol(pair)
    m = m / spectral_norm(m)
    steps = 2**20 + 12345
    t, z = scipy.linalg.schur(u, output="complex")
    theta = np.angle(np.diag(t))
    x = theta[:, None] - theta[None, :]
    same = x == 0.0
    safe = np.where(same, 1.0, x)
    kernel = np.where(
        same, 1.0, np.exp(0.5j * (steps - 1) * safe) * np.sin(steps * safe / 2) / (steps * np.sin(safe / 2))
    )
    oracle = z @ ((z.conj().T @ m @ z) * kernel) @ z.conj().T
    assert max_norm(birkhoff_discrete(u, m, steps) - oracle) <= 1e-12


def test_degree_identity_exact():
    rng = np.random.default_rng(105)
    for dim in (3, 8, 21):
        pair = random_discrete_pair(rng, dim)
        for steps in (1, 2, 9):
            chk = degree_identity_check(pair, steps)
            assert chk.passed, f"dim={dim} N={steps}: {chk.residual:.3e}"


def test_degree_alternative_agrees():
    rng = np.random.default_rng(106)
    pair = random_discrete_pair(rng, 9)
    for steps in (1, 4, 16):
        d1 = birkhoff_discrete(pair.main, unitary_symbol(pair), steps)
        d2 = degree_alternative(pair, steps)
        assert max_norm(d1 - d2) <= 1e-12


def test_birkhoff_continuous_matches_adaptive_quadrature():
    rng = np.random.default_rng(107)
    for dim in (2, 5, 8):
        h = random_hermitian(rng, dim)
        m = random_hermitian(rng, dim)
        m = m / spectral_norm(m)
        for duration in (0.3, 1.3, 4.0):
            def conjugated(s):
                return scipy.linalg.expm(1j * s * h) @ m @ scipy.linalg.expm(-1j * s * h)

            integral, _ = scipy.integrate.quad_vec(conjugated, 0.0, duration, epsabs=1e-14, epsrel=1e-14)
            err = max_norm(birkhoff_continuous(h, m, duration) - integral / duration)
            assert err <= 1e-12, f"dim={dim} t={duration}: {err:.3e}"


def test_birkhoff_continuous_exact_on_commuting_pair():
    # phi_1(0) = 1 exactly: a symbol diagonal in the eigenbasis of H is its own average
    h = np.diag([0.0, 1.0, 1.0, 2.5]).astype(complex)
    m = np.diag([3.0, -1.0, 0.5, 2.0]).astype(complex)
    assert np.array_equal(birkhoff_continuous(h, m, 7.0), m)


def test_flow_identity_check_random_pairs():
    rng = np.random.default_rng(109)
    for _ in range(4):
        h = random_hermitian(rng, 7)
        a = random_hermitian(rng, 7)
        pair = OperatorPair.continuous(h, a)
        for t in (0.5, 2.0):
            chk = flow_identity_check(pair, t)
            assert chk.passed, f"t={t}: residual {chk.residual:.3e} vs {chk.error_estimate:.3e}"


def test_flow_identity_commuting_pair():
    # [A, e^{-itH}] vanishes when A = p(H); the check must not flag roundoff
    rng = np.random.default_rng(110)
    h = random_hermitian(rng, 6)
    pair = OperatorPair.continuous(h, h @ h / max(1.0, spectral_norm(h)))
    chk = flow_identity_check(pair, 1.0)
    assert chk.passed
    assert chk.residual <= 1e-12


def test_tilde_conjugate_hermitian():
    rng = np.random.default_rng(111)
    h = random_hermitian(rng, 6)
    a = random_hermitian(rng, 6)
    at = tilde_conjugate(OperatorPair.continuous(h, a))
    assert max_norm(at - at.conj().T) <= 1e-10


def test_estimate_degree_shift_model_converges_exactly():
    model = shift_weyl_model(12, 3)
    est = estimate_degree(model.pair, [12, 24, 48])
    assert est.converged and not est.diverging
    assert est.cauchy_gaps == [0.0, 0.0]
    assert max_norm(est.limit) == 0.0


def test_estimate_degree_short_schedule_unconverged():
    rng = np.random.default_rng(112)
    pair = random_discrete_pair(rng, 6)
    est = estimate_degree(pair, [2, 3, 5])
    assert not est.converged


def test_estimate_degree_probe_residuals():
    rng = np.random.default_rng(113)
    pair = random_discrete_pair(rng, 5)
    phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    phi = phi / np.linalg.norm(phi)
    est = estimate_degree(pair, [1, 2, 5], probes=[phi])
    assert len(est.probe_residuals) == 1
    assert len(est.probe_residuals[0]) == 3
    assert all(r >= 0.0 for r in est.probe_residuals[0])


def test_degree_payload_round_trip():
    import json

    model = shift_weyl_model(8, 2)
    est = estimate_degree(model.pair, [8, 16])
    payload = est.to_payload()
    assert payload["format"] == "degree-estimate"
    assert payload["version"] == 2
    text = est.to_json()
    assert json.loads(text) == json.loads(json.dumps(payload))


def test_epsilon_slope_near_one():
    from commix import epsilon_commutator, epsilon_commutator_slope

    rng = np.random.default_rng(114)
    s = random_hermitian(rng, 8)
    a = random_hermitian(rng, 8)
    slope, errors = epsilon_commutator_slope(s, a, [1e-2, 1e-3, 1e-4])
    assert 0.9 <= slope <= 1.1
    assert errors[0] > errors[1] > errors[2]
    with pytest.raises(ValueError):
        epsilon_commutator(s, a, 0.0)


def test_smooth_window_shape():
    w = SmoothWindow(0.2, 0.8, order=5)
    assert w(0.1) == 0.0 and w(0.9) == 0.0
    assert abs(w(0.5) - 1.0) <= 1e-12
    assert abs(w(0.2 + w.ramp / 2) - 0.5) <= 1e-12  # odd symmetry of the ramp
    xs = np.linspace(0.21, 0.34, 40)
    assert np.all(np.diff(w(xs)) > 0)
    with pytest.raises(ValueError):
        SmoothWindow(0.5, 0.4)
    with pytest.raises(ValueError):
        SmoothWindow(0.1, 1.0, ramp=0.6)


def test_project_onto_window():
    d = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
    w = SmoothWindow(2.4, 4.6)
    rng = np.random.default_rng(115)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    out = project_onto_window(d, w, v)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
    assert abs(out[0]) <= 1e-12 and abs(out[4]) <= 1e-12  # outside the plateau
    with pytest.raises(ValueError):
        project_onto_window(d, w, np.array([1.0, 0, 0, 0, 0]))


def test_mixing_bound_holds_for_any_hermitian_reference():
    rng = np.random.default_rng(116)
    pair = random_discrete_pair(rng, 6)
    d = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).astype(complex)
    w = SmoothWindow(2.4, 4.6)
    phi = project_onto_window(d, w, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for steps in (1, 5, 20):
        mb = mixing_bound(pair, d, w, phi, psi, steps)
        assert mb.satisfied, f"N={steps}: lhs {mb.lhs:.3e} > rhs {mb.rhs:.3e}"
        assert mb.rhs == pytest.approx(mb.cauchy_term + mb.commutator_term)


def test_mixing_bound_rejects_uninvariant_vector():
    rng = np.random.default_rng(117)
    pair = random_discrete_pair(rng, 5)
    d = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
    w = SmoothWindow(2.4, 4.6)
    with pytest.raises(ValueError):
        mixing_bound(pair, d, w, np.array([1.0, 0, 0, 0, 0]), np.ones(5), 4)
