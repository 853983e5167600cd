"""Birkhoff-averaged commutator symbols and degree estimation.

The discrete side works with a unitary step ``U`` and a Hermitian conjugate
operator ``A``; the continuous side with a Hermitian generator ``H``.  Both
share the same storyline: an exact commutator identity turns correlation
decay into a statement about the Birkhoff average of a fixed symbol, and the
limit of those averages acts as a renormalized winding number ("degree") for
the flow.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError
from .operators import (
    _resolvent_sandwich,
    as_square_matrix,
    check_structure,
    matrix_to_payload,
    max_norm,
    spectral_norm,
)

__all__ = [
    "OperatorPair",
    "SmoothWindow",
    "DegreeEstimate",
    "IdentityCheck",
    "FlowIdentityCheck",
    "unitary_symbol",
    "selfadjoint_symbol",
    "birkhoff_discrete",
    "birkhoff_continuous",
    "degree_identity_check",
    "degree_alternative",
    "estimate_degree",
    "epsilon_commutator",
    "epsilon_commutator_slope",
    "tilde_conjugate",
    "flow_identity_check",
]

DEGREE_ESTIMATE_FORMAT = "degree-estimate"
DEGREE_ESTIMATE_VERSION = 2


@dataclass(frozen=True)
class OperatorPair:
    """A flow generator paired with a Hermitian conjugate operator.

    ``kind == "discrete"`` means ``main`` is the unitary step of the flow;
    ``kind == "continuous"`` means ``main`` is the Hermitian generator.  The
    conjugate operator is Hermitian in both cases.  Structure is validated at
    construction with max-norm tolerance 1e-10.

    Both operators are stored as float64 when every entry of both has an
    imaginary part of exactly zero, and as complex128 otherwise, so products
    of the two never mix arithmetic.  The commutator ``symbol`` and the norm
    ``conjugate_norm`` are computed on first use and kept with the pair.
    """

    main: np.ndarray
    conjugate: np.ndarray
    kind: str

    def __post_init__(self):
        main = as_square_matrix(self.main, "main")
        conj = as_square_matrix(self.conjugate, "conjugate")
        if main.shape != conj.shape:
            raise StructureError(f"operator shapes differ: {main.shape} vs {conj.shape}")
        if self.kind not in ("discrete", "continuous"):
            raise ValueError(f"kind must be 'discrete' or 'continuous', got {self.kind!r}")
        if main.imag.any() or conj.imag.any():
            main, conj = main.astype(complex, copy=False), conj.astype(complex, copy=False)
        else:
            main, conj = np.ascontiguousarray(main.real), np.ascontiguousarray(conj.real)
        structure = "unitary" if self.kind == "discrete" else "hermitian"
        rep = check_structure(main, structure, tol=1e-10 * max(1.0, max_norm(main)))
        if not rep.passed:
            raise StructureError(f"main operator fails {structure} check: deviation {rep.deviation:.3e}")
        rep = check_structure(conj, "hermitian", tol=1e-10 * max(1.0, max_norm(conj)))
        if not rep.passed:
            raise StructureError(f"conjugate operator is not Hermitian: deviation {rep.deviation:.3e}")
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "conjugate", conj)

    @classmethod
    def discrete(cls, unitary, conjugate):
        return cls(main=unitary, conjugate=conjugate, kind="discrete")

    @classmethod
    def continuous(cls, generator, conjugate):
        return cls(main=generator, conjugate=conjugate, kind="continuous")

    @property
    def dim(self):
        return self.main.shape[0]

    @functools.cached_property
    def symbol(self):
        """:func:`unitary_symbol` of a discrete pair, :func:`selfadjoint_symbol` of a continuous one."""
        symbol = unitary_symbol(self) if self.kind == "discrete" else selfadjoint_symbol(self)
        symbol.flags.writeable = False  # shared by every caller of this pair
        return symbol

    @functools.cached_property
    def conjugate_norm(self):
        """Spectral norm ``||A||`` of the conjugate operator."""
        return spectral_norm(self.conjugate)

    @functools.cached_property
    def symbol_norm(self):
        """Spectral norm of the commutator ``symbol``."""
        return spectral_norm(self.symbol)

    @functools.cached_property
    def spectrum(self):
        """``(eigenvalues, eigenvectors)`` of the Hermitian part of a continuous pair's generator."""
        if self.kind != "continuous":
            raise ValueError("spectrum needs a continuous pair")
        h = self.main
        eigvals, eigvecs = np.linalg.eigh((h + h.conj().T) / 2.0)
        eigvals.flags.writeable = eigvecs.flags.writeable = False
        return eigvals, eigvecs

    @functools.cached_property
    def bounded_conjugate(self):
        """:func:`tilde_conjugate` of a continuous pair."""
        m = tilde_conjugate(self)
        m.flags.writeable = False
        return m


def _assert_hermitian(m, context, tol_scale):
    dev = max_norm(m - m.conj().T)
    tol = 1e-10 * tol_scale
    if dev > tol:
        raise StructureError(
            f"{context} is not Hermitian (deviation {dev:.3e} > {tol:.3e}); "
            "check the structure of the input pair"
        )


def unitary_symbol(pair):
    """Commutator symbol ``(A U - U A) U*`` of a discrete pair.

    The result is Hermitian whenever ``U`` is unitary and ``A`` Hermitian; a
    violation is reported as a StructureError rather than silently averaged
    away.
    """
    if pair.kind != "discrete":
        raise ValueError("unitary_symbol needs a discrete pair")
    u, a = pair.main, pair.conjugate
    m = (a @ u - u @ a) @ u.conj().T
    _assert_hermitian(m, "commutator symbol", max(1.0, max_norm(a)))
    return m


def selfadjoint_symbol(pair):
    """Resolvent-sandwiched symbol ``(H+i)^{-1} i[H, A] (H-i)^{-1}``."""
    if pair.kind != "continuous":
        raise ValueError("selfadjoint_symbol needs a continuous pair")
    h, a = pair.main, pair.conjugate
    m = _resolvent_sandwich(h, 1j * (h @ a - a @ h))
    _assert_hermitian(m, "resolvent-sandwiched symbol", max(1.0, max_norm(a)))
    return m


def _conjugation_sum(u, m, steps):
    """Return ``(sum_{n<N} U^n M U^{-n}, U^N)`` in at most six products per bit of N.

    Doubling over the binary digits of ``N``: ``S_{2a} = S_a + U^a S_a U^{-a}``
    and ``S_{a+1} = M + U S_a U^{-1}``, with ``U^a`` carried alongside.  On
    permutation matrices every product is exact, so the sum is too whenever
    the entries of ``M`` add exactly.
    """
    uh = u.conj().T
    total, power = m, u
    for bit in bin(steps)[3:]:
        total = total + power @ total @ power.conj().T
        power = power @ power
        if bit == "1":
            total = m + u @ total @ uh
            power = u @ power
    return total, power


def birkhoff_discrete(unitary, symbol, steps):
    """Average ``(1/N) sum_{n<N} U^n M U^{-n}`` in ``O(log N)`` matrix products."""
    u = as_square_matrix(unitary, "unitary")
    m = as_square_matrix(symbol, "symbol")
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return _conjugation_sum(u, m, steps)[0] / steps


def _roundoff_floor(norm):
    return 64.0 * np.finfo(float).eps * max(1.0, norm)


def _phi1_imaginary(y):
    """``phi_1(iy) = (e^{iy} - 1)/(iy)`` for real ``y``, exactly 1 at ``y = 0``.

    Written as ``sin(y)/y + i (1 - cos y)/y`` through ``np.sinc``, which has
    no cancellation near 0 and needs no branch there.
    """
    return np.sinc(y / np.pi) + 0.5j * y * np.sinc(y / (2.0 * np.pi)) ** 2


def birkhoff_continuous(generator, symbol, duration):
    """Time average ``(1/t) int_0^t e^{isH} M e^{-isH} ds`` in closed form.

    With ``H = V diag(lambda) V*`` and ``C = V* M V`` the average is
    ``V (C o phi_1(i t (lambda_j - lambda_k))) V*``, where ``o`` is the
    entrywise product and ``phi_1(z) = (e^z - 1)/z``.  Its error is roundoff
    in the decomposition and the two products.
    """
    h = as_square_matrix(generator, "generator")
    m = as_square_matrix(symbol, "symbol")
    duration = float(duration)
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    eigvals, eigvecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return _time_average(eigvals, eigvecs, m, duration)


def _time_average(eigvals, eigvecs, m, duration):
    """:func:`birkhoff_continuous` on the decomposition ``H = V diag(lambda) V*``."""
    coeff = eigvecs.conj().T @ m @ eigvecs
    kernel = _phi1_imaginary(duration * (eigvals[:, None] - eigvals[None, :]))
    value = eigvecs @ (coeff * kernel) @ eigvecs.conj().T
    return (value + value.conj().T) / 2.0


@dataclass(frozen=True)
class IdentityCheck:
    """Residual of ``[A, U^N] = N D_N U^N`` with the average ``D_N`` it used.

    ``alternative`` is the other side of the identity, ``(1/N) [A, U^N] U^{-N}``,
    from the same ``U^N``; it equals :func:`degree_alternative` bit for bit.
    """

    steps: int
    residual: float
    expected: float
    passed: bool
    average: np.ndarray = field(repr=False, compare=False)
    alternative: np.ndarray = field(repr=False, compare=False)


def degree_identity_check(pair, steps):
    """Residual of the exact identity ``[A, U^N] = N * D_N * U^N``."""
    if pair.kind != "discrete":
        raise ValueError("degree_identity_check needs a discrete pair")
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u, a = pair.main, pair.conjugate
    power = np.linalg.matrix_power(u, steps)
    avg = birkhoff_discrete(u, pair.symbol, steps)
    comm = a @ power - power @ a
    residual = spectral_norm(comm - steps * (avg @ power))
    expected = pair.dim * 1e-12 * (pair.conjugate_norm + steps * spectral_norm(avg))
    return IdentityCheck(steps=steps, residual=residual, expected=expected,
                         passed=residual <= expected, average=avg,
                         alternative=comm @ power.conj().T / steps)


def degree_alternative(pair, steps):
    """Equivalent degree formula ``(1/N) [A, U^N] U^{-N}``."""
    if pair.kind != "discrete":
        raise ValueError("degree_alternative needs a discrete pair")
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u, a = pair.main, pair.conjugate
    power = np.linalg.matrix_power(u, steps)
    return (a @ power - power @ a) @ power.conj().T / steps


@dataclass
class DegreeEstimate:
    """Schedule of Birkhoff averages with Cauchy-gap convergence evidence.

    ``limit`` is the final average.  ``converged`` means every gap over the
    last third of the schedule sits below ``gap_threshold`` and each probe
    residual sequence decays; ``diverging`` flags a non-decreasing gap trend
    over that same stretch.  On finite truncations these are surrogates for
    an operator limit, and they are reported as such rather than hidden.
    """

    kind: str
    schedule: list
    averages: list
    limit: np.ndarray
    cauchy_gaps: list
    probe_residuals: list
    gap_threshold: float
    converged: bool
    diverging: bool

    def to_payload(self):
        return {
            "format": DEGREE_ESTIMATE_FORMAT,
            "version": DEGREE_ESTIMATE_VERSION,
            "kind": self.kind,
            "schedule": [float(s) for s in self.schedule],
            "cauchy_gaps": [float(g) for g in self.cauchy_gaps],
            "probe_residuals": [[float(r) for r in row] for row in self.probe_residuals],
            "gap_threshold": float(self.gap_threshold),
            "converged": bool(self.converged),
            "diverging": bool(self.diverging),
            "limit": matrix_to_payload(self.limit),
        }

    def to_json(self):
        return json.dumps(self.to_payload())


def _convergence_flags(gaps, residual_rows, threshold):
    if not gaps:
        return True, False
    tail_start = max(0, len(gaps) - max(1, len(gaps) // 3))
    tail = gaps[tail_start:]
    gaps_ok = all(g <= threshold for g in tail)
    probes_ok = True
    for row in residual_rows:
        # ignore the final entry: the residual against the last average is 0 there
        seq = row[:-1] if len(row) > 1 else row
        start = max(0, len(seq) - max(1, len(seq) // 3))
        window = seq[start:]
        for earlier, later in zip(window, window[1:]):
            if later > earlier * 1.1 + threshold:
                probes_ok = False
    converged = gaps_ok and probes_ok
    trending_up = len(tail) >= 2 and all(b >= a * (1.0 - 1e-12) for a, b in zip(tail, tail[1:]))
    diverging = (not converged) and trending_up and tail[-1] > threshold
    return converged, diverging


def estimate_degree(pair, schedule, probes=(), gap_threshold=1e-6):
    """Estimate the degree operator along an increasing schedule of horizons.

    Each schedule entry gets its own average: the doubling sum behind
    ``birkhoff_discrete`` (``O(log N)`` products) for discrete pairs, the
    closed form of ``birkhoff_continuous`` on the pair's one decomposition of
    ``H`` for continuous ones.  Probes must
    be unit vectors; each row of ``probe_residuals`` tracks
    ``||(D_k - limit) probe||`` along the schedule.
    """
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    probe_vecs = []
    for p in probes:
        v = np.asarray(p, dtype=complex).reshape(-1)
        if v.shape[0] != pair.dim:
            raise ValueError("probe dimension mismatch")
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("probes must be normalized")
        probe_vecs.append(v)

    if pair.kind == "discrete":
        horizons = [int(s) for s in schedule]
        if horizons[0] < 1:
            raise ValueError("discrete schedule entries must be >= 1")
        averages = [_conjugation_sum(pair.main, pair.symbol, n)[0] / n for n in horizons]
    else:
        if schedule[0] <= 0:
            raise ValueError("continuous schedule entries must be positive")
        averages = [_time_average(*pair.spectrum, pair.symbol, float(t)) for t in schedule]

    limit = averages[-1]
    gaps = [spectral_norm(b - a) for a, b in zip(averages, averages[1:])]
    residual_rows = [[float(np.linalg.norm((avg - limit) @ v)) for avg in averages] for v in probe_vecs]
    converged, diverging = _convergence_flags(gaps, residual_rows, gap_threshold)
    return DegreeEstimate(
        kind=pair.kind,
        schedule=schedule,
        averages=averages,
        limit=limit,
        cauchy_gaps=gaps,
        probe_residuals=residual_rows,
        gap_threshold=gap_threshold,
        converged=converged,
        diverging=diverging,
    )


def epsilon_commutator(operator, conjugate, epsilon):
    """Regularized commutator ``[iS, A_eps]`` with ``A_eps = (e^{i eps A} - 1)/(i eps)``.

    ``A_eps`` is bounded for every ``eps != 0`` even when ``A`` itself has bad
    scaling, and ``[iS, A_eps] -> [iS, A]`` linearly in ``eps``.
    """
    s = as_square_matrix(operator, "operator")
    a = as_square_matrix(conjugate, "conjugate")
    eps = float(epsilon)
    if eps == 0.0:
        raise ValueError("epsilon must be nonzero")
    eigvals, eigvecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    mapped = (np.exp(1j * eps * eigvals) - 1.0) / (1j * eps)
    a_eps = (eigvecs * mapped) @ eigvecs.conj().T
    return 1j * (s @ a_eps - a_eps @ s)


def epsilon_commutator_slope(operator, conjugate, epsilons):
    """Log-log convergence rate of ``[iS, A_eps]`` toward ``[iS, A]``.

    Returns ``(slope, errors)`` from a least-squares fit of ``log err`` against
    ``log eps``; a healthy first-order regularization sits near slope 1.
    """
    s = as_square_matrix(operator, "operator")
    a = as_square_matrix(conjugate, "conjugate")
    exact = 1j * (s @ a - a @ s)
    errors = [spectral_norm(epsilon_commutator(s, a, eps) - exact) for eps in epsilons]
    xs = np.log(np.asarray(epsilons, dtype=float))
    ys = np.log(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, errors


@dataclass(frozen=True)
class SmoothWindow:
    """C^k bump supported on ``[lower, upper]`` with ``0 < lower < upper``.

    Built from polynomial smoothstep ramps of the given order (order 5 gives a
    C^5 junction), with a flat plateau ``[lower + ramp, upper - ramp]`` at
    height 1.  Because the support stays away from 0, ``window(x)/x`` is a
    bounded function that vanishes near the origin.
    """

    lower: float
    upper: float
    order: int = 5
    ramp: float = None

    def __post_init__(self):
        if not (0.0 < self.lower < self.upper):
            raise ValueError("window support must satisfy 0 < lower < upper")
        ramp = self.ramp if self.ramp is not None else (self.upper - self.lower) / 4.0
        if not (0.0 < ramp <= (self.upper - self.lower) / 2.0):
            raise ValueError("ramp must be positive and at most half the support width")
        object.__setattr__(self, "ramp", float(ramp))

    def _smoothstep(self, t):
        t = np.clip(t, 0.0, 1.0)
        n = self.order
        acc = np.zeros_like(t)
        for k in range(n + 1):
            acc += math.comb(n + k, k) * math.comb(2 * n + 1, n - k) * (-t) ** k
        return t ** (n + 1) * acc

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        rise = self._smoothstep((x - self.lower) / self.ramp)
        fall = self._smoothstep((self.upper - x) / self.ramp)
        return rise * fall

    @property
    def plateau(self):
        return (self.lower + self.ramp, self.upper - self.ramp)


def tilde_conjugate(pair):
    """Bounded conjugate ``(H+i)^{-1} A (H-i)^{-1}`` of a continuous pair."""
    if pair.kind != "continuous":
        raise ValueError("tilde_conjugate needs a continuous pair")
    m = _resolvent_sandwich(pair.main, pair.conjugate)
    _assert_hermitian(m, "tilde conjugate", max(1.0, max_norm(pair.conjugate)))
    return m


@dataclass(frozen=True)
class FlowIdentityCheck:
    duration: float
    residual: float
    error_estimate: float
    passed: bool


def flow_identity_check(pair, duration):
    """Residual of the exact flow identity ``[A~, e^{-itH}] = t e^{-itH} D_t``.

    The identity is exact in finite dimension and ``D_t`` comes in closed
    form, so the residual is roundoff; ``error_estimate`` is the roundoff
    floor ``t * 64 eps ||M||`` of the symbol's average (at least that of
    ``A``), and ``passed`` compares against ten times it.  The symbol, its
    norm, ``||A||``, ``A~`` and the decomposition of ``H`` are the pair's
    own, computed once per pair.
    """
    if pair.kind != "continuous":
        raise ValueError("flow_identity_check needs a continuous pair")
    duration = float(duration)
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    a_tilde = pair.bounded_conjugate
    floor = _roundoff_floor(pair.conjugate_norm)
    if duration == 0.0:
        return FlowIdentityCheck(duration=0.0, residual=0.0, error_estimate=floor, passed=True)
    eigvals, eigvecs = pair.spectrum
    propagator = (eigvecs * np.exp(-1j * duration * eigvals)) @ eigvecs.conj().T
    average = _time_average(eigvals, eigvecs, pair.symbol, duration)
    residual = spectral_norm(
        (a_tilde @ propagator - propagator @ a_tilde) - duration * (propagator @ average)
    )
    estimate = max(duration * _roundoff_floor(pair.symbol_norm), floor)
    return FlowIdentityCheck(
        duration=duration,
        residual=float(residual),
        error_estimate=float(estimate),
        passed=residual <= 10.0 * estimate,
    )
