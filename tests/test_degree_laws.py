"""The degree behaves as a degree: power, inverse, shift and covariance laws of D_N.

Each law is checked through ``degree_averages``, the route the runner takes,
on random complex pairs (the dense Birkhoff ladder) and on
``shift_weyl_model`` pairs, whose permutation step takes the gather kernels.
The laws are exact for the telescoped sums ``D_N = (A - U^N A U^-N)/N``:

- power: ``D_N(U^k) = k D_{kN}(U)``;
- inverse: ``D_N(U*) = -U^-N D_N(U) U^N``;
- shift: ``D_N(U; A + c) = D_N(U; A)`` for a real constant ``c``;
- covariance: ``D_N(V U V*; V A V*) = V D_N V*`` for a unitary ``V``.

So the two sides agree to roundoff, measured in units of ``||A||/N``, the
scale of the telescoping bound ``||D_N|| <= 2||A||/N``.

A flow has no power law to check: its symbol is sandwiched by the resolvent
of ``H``, so ``A~ = (H+i)^-1 A (H-i)^-1`` changes with ``H``, and
``D_t(kH) = (e^{iktH} A~_k e^{-iktH} - A~_k)/t`` with ``A~_k != A~`` is not
``k D_{kt}(H)``: on a random 6-dimensional flow at ``k = 2`` the two differ
by more than ``D_{kt}``'s own size.
"""

import numpy as np
import pytest

from commix import OperatorPair, degree_averages, shift_weyl_model, spectral_norm
from commix.commutators import _permutation_rows

SCHEDULE = [1, 2, 5, 17, 64]
# the laws hold to below 1e-13 of ||A||/N on these pairs
TOLERANCE = 1e-12


def _random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_pair(seed, dim):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return OperatorPair.discrete(_random_unitary(rng, dim), (z + z.conj().T) / 2.0)


PAIRS = {
    "random-3": lambda: _random_pair(201, 3),
    "random-8": lambda: _random_pair(202, 8),
    "random-16": lambda: _random_pair(203, 16),
    "shift-8": lambda: shift_weyl_model(8, 1).pair,
    "shift-13": lambda: shift_weyl_model(13, 2).pair,
}


@pytest.fixture(params=sorted(PAIRS))
def pair(request):
    return PAIRS[request.param]()


def _assert_law(pair, rows, expected):
    """Each ``D_N`` of ``rows`` equals ``expected[N]`` within TOLERANCE of ``||A||/N``."""
    for n, average, _ in rows:
        gap = spectral_norm(average - expected[n])
        assert gap <= TOLERANCE * pair.conjugate_norm / n, f"N={n}: {gap:.3e}"


def test_shift_pairs_take_the_gather_kernels():
    # the shift's permutation step, its powers, its inverse and its conjugates
    # by a permutation take the gather route of the ladder
    u = shift_weyl_model(8, 1).pair.main
    v = np.eye(8)[np.random.default_rng(204).permutation(8)]
    for step in (u, np.linalg.matrix_power(u, 3), u.conj().T, v @ u @ v.conj().T):
        assert _permutation_rows(step) is not None


@pytest.mark.parametrize("k", [2, 3])
def test_power_law(pair, k):
    power_pair = OperatorPair.discrete(np.linalg.matrix_power(pair.main, k), pair.conjugate)
    longer = degree_averages(pair, [k * n for n in SCHEDULE])
    _assert_law(pair, degree_averages(power_pair, SCHEDULE),
                {n: k * average for n, (_, average, _) in zip(SCHEDULE, longer)})


def test_inverse_law(pair):
    inverse = OperatorPair.discrete(pair.main.conj().T, pair.conjugate)
    expected = {n: -(power.conj().T @ average @ power) for n, average, power in degree_averages(pair, SCHEDULE)}
    _assert_law(pair, degree_averages(inverse, SCHEDULE), expected)


def test_constant_shift_law(pair):
    shifted = OperatorPair.discrete(pair.main, pair.conjugate + 2.5 * np.eye(pair.dim))
    expected = {n: average for n, average, _ in degree_averages(pair, SCHEDULE)}
    _assert_law(pair, degree_averages(shifted, SCHEDULE), expected)


@pytest.mark.parametrize("kind", ["unitary", "permutation"])
def test_covariance_law(pair, kind):
    rng = np.random.default_rng(204)
    if kind == "unitary":
        v = _random_unitary(rng, pair.dim)
    else:
        v = np.eye(pair.dim)[rng.permutation(pair.dim)]
    conjugated = OperatorPair.discrete(v @ pair.main @ v.conj().T, v @ pair.conjugate @ v.conj().T)
    expected = {n: v @ average @ v.conj().T for n, average, _ in degree_averages(pair, SCHEDULE)}
    _assert_law(pair, degree_averages(conjugated, SCHEDULE), expected)
