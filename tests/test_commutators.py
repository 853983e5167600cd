"""Commutator identities, Birkhoff averages, and degree estimates."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from commix import (
    DegreeEstimate,
    FourierCalculus,
    OperatorPair,
    SmoothWindow,
    StructureError,
    birkhoff_continuous,
    birkhoff_discrete,
    correlation_discrete,
    degree_alternative,
    degree_averages,
    degree_identity_check,
    estimate_degree,
    flow_identity_check,
    identity_check,
    max_norm,
    selfadjoint_symbol,
    shift_weyl_model,
    spectral_norm,
    tilde_conjugate,
    unitary_symbol,
)
from commix import commutators
from commix.commutators import _birkhoff_ladder


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


@settings(max_examples=100)
@given(dim=st.integers(1, 16), steps=st.integers(1, 300), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_doubling_matches_the_loop(dim, steps, real, seed):
    rng = np.random.default_rng(seed)
    if real:
        u, m = random_orthogonal(rng, dim), random_symmetric(rng, dim)
    else:
        u, m = random_unitary(rng, dim), random_hermitian(rng, dim)
    average = birkhoff_discrete(u, m, steps)
    assert average.dtype == m.dtype
    # the loop's roundoff grows with each of its N conjugations and with the
    # length of the inner products in each
    bound = 4.0 * (dim + steps) * np.finfo(float).eps * max(1.0, spectral_norm(m))
    assert max_norm(average - loop_average(u, m, steps)) <= bound


def test_birkhoff_discrete_bit_identical_on_shift():
    # products of permutation matrices are exact and the symbol's entries add
    # exactly, so doubling, the ladder and the running sum must agree to the last bit
    model = shift_weyl_model(40, 3)
    u = model.pair.main
    m = unitary_symbol(model.pair)
    schedule = (1, 5, 40, 77, 160)
    for steps in schedule:
        assert np.array_equal(birkhoff_discrete(u, m, steps), loop_average(u, m, steps))
    for steps, total, power in _birkhoff_ladder(u, m, schedule):
        assert np.array_equal(total / steps, loop_average(u, m, steps))
        assert np.array_equal(power, np.linalg.matrix_power(u, steps))


@settings(max_examples=60)
@given(dim=st.integers(1, 40), shape=st.sampled_from(["identity", "cycle", "any"]), real=st.booleans(),
       schedule=st.lists(st.integers(1, 1000), min_size=1, max_size=5, unique=True).map(sorted),
       seed=st.integers(0, 2**32 - 1))
def test_permutation_ladder_gathers_what_the_dense_kernel_multiplies(dim, shape, real, schedule, seed):
    # a cycle of length >= 3 is not its own inverse, so conjugating by the
    # inverse permutation instead of by p shows here
    rng = np.random.default_rng(seed)
    rows = np.arange(dim)
    if shape == "cycle" and dim >= 3:
        ring = rng.permutation(dim)[: rng.integers(3, dim + 1)]
        rows[ring] = np.roll(ring, 1)
    elif shape == "any":
        rows = rng.permutation(dim)
    u = np.eye(dim)[rows]
    m = random_symmetric(rng, dim) if real else random_hermitian(rng, dim)
    # zeros as in a sparse symbol such as the shift's
    m = np.where(rng.random((dim, dim)) < 0.5, m, 0.0)
    m = (m + m.conj().T) / 2
    assert np.array_equal(commutators._permutation_rows(u), rows)
    gathered = list(_birkhoff_ladder(u, m, schedule))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(commutators, "_permutation_rows", lambda u: None)
        dense = list(_birkhoff_ladder(u, m, schedule))
    assert [n for n, _, _ in gathered] == [n for n, _, _ in dense] == schedule
    for (steps, total, power), (_, want_total, want_power) in zip(gathered, dense):
        assert total.dtype == want_total.dtype and total.tobytes() == want_total.tobytes()
        assert power.dtype == want_power.dtype and power.tobytes() == want_power.tobytes()
        assert np.array_equal(power, np.linalg.matrix_power(u, steps))


def _fold(m):
    """``m`` with each ``-0.0`` read as ``+0.0``, as the dense products' sums give it."""
    return (m + 0.0).tobytes()


@settings(max_examples=60)
@given(dim=st.integers(1, 40), shape=st.sampled_from(["identity", "cycle", "any"]), real=st.booleans(),
       steps=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
def test_gather_symbol_and_residual_equal_the_dense_products(dim, shape, real, steps, seed):
    # U x = x[p]; a cycle of length >= 3 is not its own inverse, so a residual
    # that gathers by q where q^-1 belongs shows here
    rng = np.random.default_rng(seed)
    rows = np.arange(dim)
    if shape == "cycle" and dim >= 3:
        rows = np.roll(rows, 1)
    elif shape == "any":
        rows = rng.permutation(dim)
    u = np.eye(dim)[rows]
    assert np.array_equal(commutators._permutation_rows(u), rows)
    hermitian = random_symmetric if real else random_hermitian
    # zeros of either sign, as a symbol or a matrix file may hold them
    a, d = (np.where(rng.random((dim, dim)) < 0.5, hermitian(rng, dim),
                     rng.choice([0.0, -0.0], (dim, dim))) for _ in range(2))
    a, d = (a + a.conj().T) / 2, (d + d.conj().T) / 2
    symbol = commutators._gather_symbol(a, rows)
    assert symbol.dtype == a.dtype and symbol.tobytes() == _fold((a @ u - u @ a) @ u.conj().T)
    residual = commutators._gather_residual(a, rows, d, steps)
    assert residual.dtype == a.dtype and residual.tobytes() == _fold(a @ u - u @ a - steps * (d @ u))


@pytest.mark.parametrize("name", ["shift", "short-of-one", "negative-zero", "complex"])
def test_symbol_and_identity_check_gather_only_on_a_permutation(monkeypatch, name):
    # the shift takes the gather kernels, and the pair's symbol and each
    # residual are the same bits as the dense products; a float64 matrix one
    # ulp off a permutation, one holding a -0.0, or a complex one takes the
    # products, but the products U^N (N > 1) of a permutation holding a -0.0
    # hold +0.0 and are gathered again
    if name == "shift":
        pair = shift_weyl_model(40, 3).pair
    else:
        u, rng = np.roll(np.eye(7), 1, axis=0), np.random.default_rng(123)
        if name == "complex":
            # a pair is held in complex arithmetic once an operator is complex
            pair = OperatorPair.discrete(u, random_hermitian(rng, 7))
        else:
            u[1, 0] = 1.0 - 2.0**-53 if name == "short-of-one" else u[1, 0]
            u[2, 0] = -0.0 if name == "negative-zero" else u[2, 0]
            pair = OperatorPair.discrete(u, random_symmetric(rng, 7))
    u, a = pair.main, pair.conjugate
    calls = []
    for name_ in ("_gather_symbol", "_gather_residual"):
        def recording(*args, _call=getattr(commutators, name_), _name=name_):
            calls.append(_name)
            return _call(*args)
        monkeypatch.setattr(commutators, name_, recording)
    schedule = [1, 3, 40]
    symbol = pair.symbol
    assert symbol.tobytes() == _fold((a @ u - u @ a) @ u.conj().T)
    for steps, total, power in _birkhoff_ladder(u, symbol, schedule):
        average = total / steps
        check = identity_check(pair, steps, average, power)
        assert check.residual == spectral_norm(a @ power - power @ a - steps * (average @ power))
        assert check == degree_identity_check(pair, steps)
    assert calls == {"shift": ["_gather_symbol"] + ["_gather_residual"] * 6,
                     "negative-zero": ["_gather_residual"] * 4}.get(name, [])


@pytest.mark.parametrize("schedule", [[1, 2, 4, 8], [3, 6, 12, 24], [125, 250, 500, 1000],
                                      [1, 2, 5, 17, 64], [1, 2, 3], [7], [1000]])
@pytest.mark.parametrize("real", [False, True])
def test_birkhoff_ladder_extends_each_horizon_from_the_previous_one(schedule, real):
    rng = np.random.default_rng(119)
    if real:
        pair = OperatorPair.discrete(random_orthogonal(rng, 12), random_symmetric(rng, 12))
    else:
        pair = random_discrete_pair(rng, 12)
    u, m = pair.main, pair.symbol
    ladder = list(_birkhoff_ladder(u, m, schedule))
    assert [n for n, _, _ in ladder] == schedule
    for steps, total, power in ladder:
        average = total / steps
        assert average.dtype == power.dtype == u.dtype
        # each horizon walks its own binary digits, whatever the schedule shares
        assert average.tobytes() == birkhoff_discrete(u, m, steps).tobytes()
        # U^N by doubling and by matrix_power: both round O(log N) products
        assert max_norm(power - np.linalg.matrix_power(u, steps)) <= 1e-12
    table = degree_averages(pair, schedule)
    for (n, average, power), (steps, total, ladder_power) in zip(table, ladder, strict=True):
        assert n == steps and np.array_equal(average, total / steps) and np.array_equal(power, ladder_power)
    assert np.array_equal(estimate_degree(pair, schedule).limit, table[-1][1])


class _CountingArray(np.ndarray):
    """An ndarray that counts the matrix products taken on it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingArray.products += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _CountingArray) else x for x in inputs]
        out = getattr(ufunc, method)(*inputs, **kwargs)
        return out.view(_CountingArray) if isinstance(out, np.ndarray) else out


def _ladder_inputs(name):
    """``(U, M)``: a complex pair, the shift, or a 6-cycle one entry or its dtype away from a permutation."""
    if name == "random":
        pair = random_discrete_pair(np.random.default_rng(121), 6)
    elif name == "shift-200":
        pair = shift_weyl_model(200, 3).pair
    else:
        u = np.roll(np.eye(6), 1, axis=0)
        if name == "complex":
            u = u.astype(complex)
        else:
            u[0, 5] = -1.0 if name == "signed" else 1.0 - 2.0**-53
        return u, random_symmetric(np.random.default_rng(122), 6)
    return pair.main, pair.symbol


@pytest.mark.parametrize("inputs, schedule, products", [
    ("random", [1, 2, 5, 17, 64], 24),
    ("random", [125, 250, 500, 1000], 42),
    ("random", [200, 400, 800], 33),
    ("random", [32, 64, 128, 256], 24),
    ("random", [96, 192, 384], 27),
    # the gather kernel reindexes a permutation and takes no product; the
    # near-permutations below take the dense kernel
    ("shift-200", [200, 400, 800], 0),
    ("signed", [200, 400, 800], 33),
    ("complex", [200, 400, 800], 33),
    ("short-of-one", [200, 400, 800], 33),
])
def test_birkhoff_ladder_forms_each_binary_prefix_once(monkeypatch, inputs, schedule, products):
    # three products per doubling and three per appended 1, each step taken
    # once per schedule: 1 -> 2 -> 4 -> 5 -> 8 -> 16 -> 17 -> 32 -> 64 is 8
    # steps, 24 products
    main, symbol = _ladder_inputs(inputs)
    u, m = main.view(_CountingArray), symbol.view(_CountingArray)
    monkeypatch.setattr(_CountingArray, "products", 0)
    ladder = list(_birkhoff_ladder(u, m, schedule))
    assert _CountingArray.products == products
    for steps, total, _ in ladder:
        average = total.view(np.ndarray) / steps
        assert average.tobytes() == birkhoff_discrete(main, symbol, steps).tobytes()


def test_discrete_horizons_must_be_integral():
    # a fractional horizon used to be truncated: N = 2.9 ran N = 2, and the
    # schedule [1.2, 1.7] ran N = 1 twice and reported a Cauchy gap of 0
    pair = random_discrete_pair(np.random.default_rng(120), 4)
    for call in (lambda n: birkhoff_discrete(pair.main, pair.symbol, n),
                 lambda n: degree_identity_check(pair, n),
                 lambda n: degree_alternative(pair, n),
                 lambda n: estimate_degree(pair, [n])):
        # text and complex horizons used to be converted ("3" ran N = 3) or
        # failed the >= 1 comparison with a TypeError; a boolean ran N = 1
        for bad in (2.9, 0.5, np.float64(1.5), 0, -2, float("nan"), float("inf"),
                    "3", b"4", 3 + 0j, np.complex128(2), True, np.True_):
            with pytest.raises(ValueError, match="discrete horizons must be integers >= 1"):
                call(bad)
    with pytest.raises(ValueError, match="discrete horizons must be integers >= 1"):
        estimate_degree(pair, [1.2, 1.7])
    # integral values of any numeric type still count
    assert degree_identity_check(pair, np.float64(3.0)).horizon == 3
    assert np.array_equal(birkhoff_discrete(pair.main, pair.symbol, np.int32(5)),
                          birkhoff_discrete(pair.main, pair.symbol, 5))
    est = estimate_degree(pair, [np.int64(2), 4.0])
    assert np.array_equal(est.limit, estimate_degree(pair, [2, 4]).limit)


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
            assert chk.residual <= 10.0 * chk.error_estimate, f"dim={dim} N={steps}: {chk.residual:.3e}"


@settings(max_examples=60)
@given(dim=st.integers(2, 24), steps=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_degree_identity_holds_on_random_complex_pairs(dim, steps, seed):
    pair = random_discrete_pair(np.random.default_rng(seed), dim)
    assert pair.main.dtype == np.complex128
    chk = degree_identity_check(pair, steps)
    assert chk.residual <= 10.0 * chk.error_estimate, \
        f"dim={dim} N={steps}: {chk.residual:.3e} > 10 x {chk.error_estimate:.3e}"


def test_identity_estimate_covers_the_steps_unitarity_defect():
    # A = 1e4 (U + U* + 1e-6 H) nearly commutes with a dense U, so ||M|| is
    # about 4e-6 ||A||: the sum of conjugates rounds at N 64 eps ||M||, but the
    # ladder's powers carry U's defect ||U*U - I||_F ~ 10 eps N-fold, about
    # N ||A|| eps, which the estimate's 2 N ||A|| delta term takes from the input
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 16)
    h = rng.standard_normal((16, 16))
    pair = OperatorPair.discrete(u, 1e4 * (u + u.conj().T + 1e-6 * (h + h.T) / 2))
    assert 0.0 < pair.unitarity_defect < 64 * np.finfo(float).eps
    assert pair.symbol_norm < 1e-5 * pair.conjugate_norm
    floor = commutators._roundoff_floor
    for n, average, power in degree_averages(pair, [1, 1000, 10000]):
        chk = identity_check(pair, n, average, power)
        assert chk.residual <= 10.0 * chk.error_estimate, f"N={n}: {chk.residual:.3e}"
        without_defect = max(n * floor(pair.symbol_norm), floor(pair.conjugate_norm))
        assert n < 10000 or chk.residual > 10.0 * without_defect


def test_a_permutation_step_has_no_unitarity_defect():
    pair = shift_weyl_model(8, 2).pair
    assert pair.unitarity_defect == 0.0
    with pytest.raises(ValueError):
        OperatorPair.continuous(np.eye(2), np.eye(2)).unitarity_defect


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
            assert chk.residual <= 10.0 * chk.error_estimate, \
                f"t={t}: residual {chk.residual:.3e} vs {chk.error_estimate:.3e}"


def test_flow_identity_commuting_pair():
    # [A, e^{-itH}] vanishes when A = p(H); the check must not flag roundoff
    rng = np.random.default_rng(110)
    h = random_hermitian(rng, 6)
    pair = OperatorPair.continuous(h, h @ h / max(1.0, spectral_norm(h)))
    chk = flow_identity_check(pair, 1.0)
    assert chk.residual <= 10.0 * chk.error_estimate
    assert chk.residual <= 1e-12


def _flow_check_per_call(pair, duration):
    """The flow identity check with every per-pair quantity formed afresh, as a bit-exact oracle."""
    h = pair.main
    a_tilde = tilde_conjugate(pair)
    floor = 64.0 * np.finfo(float).eps * max(1.0, spectral_norm(pair.conjugate))
    eigvals, eigvecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    propagator = (eigvecs * np.exp(-1j * duration * eigvals)) @ eigvecs.conj().T
    average = birkhoff_continuous(h, selfadjoint_symbol(pair), duration)
    residual = spectral_norm((a_tilde @ propagator - propagator @ a_tilde) - duration * (propagator @ average))
    symbol_floor = 64.0 * np.finfo(float).eps * max(1.0, spectral_norm(selfadjoint_symbol(pair)))
    return residual, max(duration * symbol_floor, floor)


def test_flow_identity_check_is_bit_identical_to_the_per_call_formulas():
    rng = np.random.default_rng(112)
    real = random_hermitian(rng, 6).real
    pairs = [OperatorPair.continuous(random_hermitian(rng, 7), random_hermitian(rng, 7)),
             OperatorPair.continuous(real, real @ real.T / 10.0)]
    assert pairs[1].main.dtype == np.float64
    for pair in pairs:
        for t in (0.5, 1.5, 3.0):
            chk = flow_identity_check(pair, t)
            assert (chk.residual, chk.error_estimate) == _flow_check_per_call(pair, t)
        for t, avg, _ in degree_averages(pair, [0.5, 1.5, 3.0]):
            assert np.array_equal(avg, birkhoff_continuous(pair.main, pair.symbol, t))


def test_flow_identity_check_decomposes_each_pair_once(monkeypatch):
    rng = np.random.default_rng(113)
    pair = OperatorPair.continuous(random_hermitian(rng, 6), random_hermitian(rng, 6))
    calls = {"tilde_conjugate": 0, "eigh": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(commutators, "tilde_conjugate")
    count(np.linalg, "eigh")
    checks = [flow_identity_check(pair, t) for t in (0.5, 1.5, 3.0)]
    assert all(c.residual <= 10.0 * c.error_estimate for c in checks)
    assert calls == {"tilde_conjugate": 1, "eigh": 1}


def test_tilde_conjugate_hermitian():
    rng = np.random.default_rng(111)
    h = random_hermitian(rng, 6)
    a = random_hermitian(rng, 6)
    at = tilde_conjugate(OperatorPair.continuous(h, a))
    assert max_norm(at - at.conj().T) <= 1e-10


def test_estimate_degree_shift_model_converges_exactly():
    # U^12 = I, so D_N = (A - U^N A U^-N)/N is exactly 0 at every horizon
    model = shift_weyl_model(12, 3)
    est = estimate_degree(model.pair, [12, 24, 48])
    assert max_norm(est.limit) == 0.0 and est.limit_norm == 0.0
    assert est.telescoping_bound == 2.0 * model.pair.conjugate_norm / 48
    assert est.roundoff_floor == 64.0 * np.finfo(float).eps * model.pair.conjugate_norm


def test_estimate_degree_short_schedule_unconverged():
    # D_N is bounded by the telescoping sum but has not reached 0
    rng = np.random.default_rng(112)
    pair = random_discrete_pair(rng, 6)
    est = estimate_degree(pair, [2, 3, 5])
    assert est.roundoff_floor < est.limit_norm <= est.telescoping_bound


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_empty_rows_are_refused_by_name(kind):
    rng = np.random.default_rng(119)
    if kind == "discrete":
        pair = random_discrete_pair(rng, 4)
    else:
        pair = OperatorPair.continuous(random_hermitian(rng, 4), random_hermitian(rng, 4))
    with pytest.raises(ValueError, match="rows must be nonempty"):
        DegreeEstimate.from_averages(pair, [])


def test_flow_degree_averages_feed_identity_check_and_from_averages_bit_for_bit():
    # the runner's one table of (t, D_t, e^{-itH}) per duration, read by
    # identity_check and DegreeEstimate.from_averages as by the one-call routes
    rng = np.random.default_rng(117)
    pair = OperatorPair.continuous(random_hermitian(rng, 7), random_hermitian(rng, 7))
    schedule = [0.5, 1.5, 3.0]
    table = degree_averages(pair, schedule)
    assert [t for t, _, _ in table] == schedule
    for t, average, propagator in table:
        assert np.array_equal(average, birkhoff_continuous(pair.main, pair.symbol, t))
        assert max_norm(propagator - scipy.linalg.expm(-1j * t * pair.main)) <= 1e-12
        assert identity_check(pair, t, average, propagator) == flow_identity_check(pair, t)
    estimate = DegreeEstimate.from_averages(pair, table)
    public = estimate_degree(pair, schedule)
    assert estimate.to_json() == public.to_json()
    assert estimate.limit.tobytes() == public.limit.tobytes() == table[-1][1].tobytes()


def test_degree_averages_check_the_schedule_once_per_kind():
    rng = np.random.default_rng(118)
    discrete = random_discrete_pair(rng, 4)
    flow = OperatorPair.continuous(random_hermitian(rng, 4), random_hermitian(rng, 4))
    horizons = [n for n, _, _ in degree_averages(discrete, [1, 3.0, np.int64(8)])]
    assert horizons == [1, 3, 8] and all(type(n) is int for n in horizons)
    assert [t for t, _, _ in degree_averages(flow, [1, 2.5])] == [1.0, 2.5]
    for pair, schedule, match in [(discrete, [], "nonempty"), (flow, [], "nonempty"),
                                  (discrete, [2, 2], "strictly increasing"),
                                  (flow, [1.5, 0.5], "strictly increasing"),
                                  (discrete, [1, 2.9], "integer"), (discrete, [0, 1], ">= 1"),
                                  (flow, [0.0, 1.0], "finite and positive, got 0.0")]:
        with pytest.raises(ValueError, match=match):
            degree_averages(pair, schedule)


@pytest.mark.parametrize("entry", ["birkhoff_continuous", "degree_averages", "estimate_degree",
                                   "flow_identity_check"])
@pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
def test_non_finite_durations_are_refused_by_name(entry, duration):
    # a NaN or infinite duration used to reach the eigensolver or come back as NaN
    rng = np.random.default_rng(121)
    pair = OperatorPair.continuous(random_hermitian(rng, 4), random_hermitian(rng, 4))
    call = {"birkhoff_continuous": lambda: birkhoff_continuous(pair.main, pair.symbol, duration),
            "degree_averages": lambda: degree_averages(pair, [duration]),
            "estimate_degree": lambda: estimate_degree(pair, [duration]),
            "flow_identity_check": lambda: flow_identity_check(pair, duration)}[entry]
    with pytest.raises(ValueError, match=re.escape(f"durations must be finite and positive, got {duration!r}")):
        call()


def test_degree_payload_round_trip():
    model = shift_weyl_model(8, 2)
    est = estimate_degree(model.pair, [8, 16])
    payload = est.to_payload()
    assert payload["format"] == "degree-estimate"
    assert payload["version"] == commutators.DEGREE_ESTIMATE_VERSION
    text = est.to_json()
    assert json.loads(text) == json.loads(json.dumps(payload))


def _echo_digest(m):
    # the rule of the report's matrix echo: sha256 of the complex128 little-endian bytes
    return hashlib.sha256(np.ascontiguousarray(m, dtype="<c16").tobytes()).hexdigest()


@pytest.mark.parametrize("kind", ["complex", "real", "continuous"])
def test_degree_artifact_carries_the_limit_digest_and_spectrum(kind):
    rng = np.random.default_rng(115)
    if kind == "continuous":
        pair = OperatorPair.continuous(random_hermitian(rng, 6), random_hermitian(rng, 6))
        schedule, horizon, conjugate = [0.5, 1.5], 1.5, pair.bounded_conjugate
    else:
        u, a = ((random_orthogonal(rng, 6), random_symmetric(rng, 6)) if kind == "real"
                else (random_unitary(rng, 6), random_hermitian(rng, 6)))
        pair = OperatorPair.discrete(u, a)
        schedule, horizon, conjugate = [1, 2, 5], 5, pair.conjugate
    est = estimate_degree(pair, schedule)
    doc = json.loads(est.to_json())
    assert doc["version"] == commutators.DEGREE_ESTIMATE_VERSION == 5
    assert set(doc) == {"format", "version", "kind", "schedule", "limit", "limit_eigenvalues",
                        "telescoping_bound", "roundoff_floor"}
    assert doc["limit"] == {"dim": 6, "sha256": _echo_digest(est.limit)}
    assert "entries" not in doc and "entries" not in doc["limit"]
    limit = est.limit
    spectrum = np.linalg.eigvalsh((limit + limit.conj().T) / 2.0)
    assert np.array(doc["limit_eigenvalues"]).tobytes() == spectrum.tobytes()
    assert est.limit_norm == np.max(np.abs(spectrum))
    assert doc["telescoping_bound"] == est.telescoping_bound == 2.0 * spectral_norm(conjugate) / horizon
    assert doc["roundoff_floor"] == est.roundoff_floor == 64.0 * np.finfo(float).eps * max(1.0, spectral_norm(conjugate))
    assert est.limit_norm <= est.telescoping_bound


def test_degree_artifact_refuses_a_non_finite_limit():
    est = estimate_degree(random_discrete_pair(np.random.default_rng(116), 4), [1, 2])
    est.limit = est.limit.copy()
    est.limit[1, 2] = np.nan
    with pytest.raises(ValueError, match="requires finite entries"):
        est.to_json()


def _within_telescoping_bound(pair, est):
    slack = 64.0 * np.finfo(float).eps * max(1.0, pair.conjugate_norm)
    # the largest eigenvalue modulus is the spectral norm of the Hermitian limit
    assert abs(est.limit_norm - spectral_norm(est.limit)) <= slack
    # the runner's rule: past the bound and its own roundoff floor is a bug
    assert est.limit_norm <= est.telescoping_bound + est.roundoff_floor
    return est.limit_norm <= est.telescoping_bound * (1.0 + 1e-12) + slack


@settings(max_examples=60)
@given(dim=st.integers(1, 16), steps=st.integers(1, 300), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_discrete_limit_is_within_the_telescoping_bound(dim, steps, real, seed):
    rng = np.random.default_rng(seed)
    if real:
        pair = OperatorPair.discrete(random_orthogonal(rng, dim), random_symmetric(rng, dim))
    else:
        pair = random_discrete_pair(rng, dim)
    est = estimate_degree(pair, [steps])
    assert est.telescoping_bound == 2.0 * pair.conjugate_norm / steps
    assert _within_telescoping_bound(pair, est)


@settings(max_examples=40)
@given(dim=st.integers(1, 16), duration=st.floats(1e-3, 4.0), seed=st.integers(0, 2**32 - 1))
def test_continuous_limit_is_within_the_telescoping_bound(dim, duration, seed):
    rng = np.random.default_rng(seed)
    pair = OperatorPair.continuous(random_hermitian(rng, dim), random_hermitian(rng, dim))
    est = estimate_degree(pair, [duration])
    assert est.telescoping_bound == 2.0 * spectral_norm(pair.bounded_conjugate) / duration
    assert _within_telescoping_bound(pair, est)


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


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


def random_symmetric(rng, dim):
    z = rng.standard_normal((dim, dim))
    return (z + z.T) / 2


def complex_twin(pair):
    """The same pair held in complex arithmetic, as the oracle for the real route.

    ``OperatorPair`` narrows exactly real operators to float64, so the twin
    is built real and its fields are then replaced by their complex casts.
    """
    twin = OperatorPair(pair.main, pair.conjugate, pair.kind)
    object.__setattr__(twin, "main", pair.main.astype(complex))
    object.__setattr__(twin, "conjugate", pair.conjugate.astype(complex))
    return twin


def test_pair_is_real_exactly_when_both_operators_are_real():
    rng = np.random.default_rng(130)
    u, a = random_orthogonal(rng, 5), random_symmetric(rng, 5)
    for main, conj in ((u, a), (u.astype(complex), a.astype(complex)), (u, a.astype(complex))):
        pair = OperatorPair.discrete(main, conj)
        assert pair.main.dtype == pair.conjugate.dtype == np.float64
        assert np.array_equal(pair.main, u) and np.array_equal(pair.conjugate, a)
    flow = OperatorPair.continuous(a, random_symmetric(rng, 5))
    assert flow.main.dtype == flow.conjugate.dtype == np.float64
    # one imaginary entry anywhere keeps both operators complex
    tiny_u = u.astype(complex)
    tiny_u[2, 3] += 1e-300j
    tiny_a = a.astype(complex)
    tiny_a[1, 1] += 1e-300j
    for main, conj in ((tiny_u, a), (u, tiny_a), (tiny_u, tiny_a)):
        pair = OperatorPair.discrete(main, conj)
        assert pair.main.dtype == pair.conjugate.dtype == np.complex128
    pair = OperatorPair.discrete(tiny_u, a)
    assert pair.main[2, 3].imag == 1e-300 and np.array_equal(pair.conjugate, a)
    assert random_discrete_pair(rng, 4).main.dtype == np.complex128
    assert tiny_u[2, 3].imag == 1e-300 and a.dtype == np.float64  # inputs untouched


def test_pair_values_are_computed_once_and_are_not_fields():
    rng = np.random.default_rng(131)
    pair = random_discrete_pair(rng, 6)
    assert [f.name for f in dataclasses.fields(OperatorPair)] == ["main", "conjugate", "kind"]
    assert pair.symbol is pair.symbol
    assert np.array_equal(pair.symbol, unitary_symbol(pair))
    assert not pair.symbol.flags.writeable
    assert pair.conjugate_norm == spectral_norm(pair.conjugate)
    h, a = random_hermitian(rng, 5), random_hermitian(rng, 5)
    flow = OperatorPair.continuous(h, a)
    assert np.array_equal(flow.symbol, selfadjoint_symbol(flow))
    assert "symbol" not in repr(flow) and "conjugate_norm" not in repr(flow)


@settings(max_examples=30)
@given(dim=st.integers(2, 24), steps=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_real_pairs_agree_with_their_complex_twins(dim, steps, seed):
    rng = np.random.default_rng(seed)
    pair = OperatorPair.discrete(random_orthogonal(rng, dim), random_symmetric(rng, dim))
    twin = complex_twin(pair)
    assert pair.main.dtype == np.float64 and twin.main.dtype == np.complex128
    u, m = pair.main, pair.symbol
    scale = max(1.0, spectral_norm(m))
    assert max_norm(m - twin.symbol) <= 1e-12 * scale
    assert max_norm(birkhoff_discrete(u, m, steps) - birkhoff_discrete(twin.main, twin.symbol, steps)) \
        <= 1e-12 * scale

    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi, psi = phi / np.linalg.norm(phi), psi / np.linalg.norm(psi)
    real_series = correlation_discrete(u, phi, psi, steps).values
    assert np.max(np.abs(real_series - correlation_discrete(twin.main, phi, psi, steps).values)) <= 1e-12

    def fn(theta):
        return np.cos(theta) + 0.5 * np.sin(2 * theta)

    calc, twin_calc = FourierCalculus(u, fn, 8, 1.0), FourierCalculus(twin.main, fn, 8, 1.0)
    assert max_norm(calc.reconstruction - twin_calc.reconstruction) <= 1e-12


@settings(max_examples=20)
@given(window=st.integers(4, 24), steps=st.integers(1, 200), octaves=st.integers(0, 7),
       seed=st.integers(0, 2**32 - 1))
def test_shift_model_is_bit_identical_in_real_and_complex_arithmetic(window, steps, octaves, seed):
    # every product and sum on the shift is exact, so the real route must not
    # move a bit; the one rounding is the division by N, which real
    # arithmetic rounds once and complex division (a reciprocal, then a
    # product) may round twice, so quotients agree to the last bit when N is
    # a power of two and to one ulp otherwise
    pair = shift_weyl_model(window, 1).pair
    twin = complex_twin(pair)
    assert pair.main.dtype == pair.conjugate.dtype == np.float64
    assert np.array_equal(pair.symbol, twin.symbol)
    for got, want in zip(next(_birkhoff_ladder(pair.main, pair.symbol, [steps]))[1:],
                         next(_birkhoff_ladder(twin.main, twin.symbol, [steps]))[1:]):
        assert np.array_equal(got, want)
    average = birkhoff_discrete(pair.main, pair.symbol, steps)
    twin_average = birkhoff_discrete(twin.main, twin.symbol, steps)
    assert not twin_average.imag.any()
    np.testing.assert_array_max_ulp(average, twin_average.real, maxulp=1)

    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(window) + 1j * rng.standard_normal(window)
    psi = rng.standard_normal(window) + 1j * rng.standard_normal(window)
    assert np.array_equal(correlation_discrete(pair.main, phi, psi, steps).values,
                          correlation_discrete(twin.main, phi, psi, steps).values)

    exact = 2**octaves
    check, twin_check = degree_identity_check(pair, exact), degree_identity_check(twin, exact)
    assert (check.residual, check.error_estimate) == (twin_check.residual, twin_check.error_estimate)
    assert np.array_equal(birkhoff_discrete(pair.main, pair.symbol, exact),
                          birkhoff_discrete(twin.main, twin.symbol, exact))
    assert np.array_equal(degree_alternative(pair, exact), degree_alternative(twin, exact))
