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
from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .operators import (
    _integral,
    _resolvent_sandwich,
    as_square_matrix,
    check_structure,
    matrix_digest,
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
DEGREE_ESTIMATE_VERSION = 3


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
        check_structure(main, structure, 1e-10 * max(1.0, max_norm(main)), "main operator")
        check_structure(conj, "hermitian", 1e-10 * max(1.0, max_norm(conj)), "conjugate operator")
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
    check_structure(m, "hermitian", 1e-10 * max(1.0, max_norm(a)), "commutator symbol")
    return m


def selfadjoint_symbol(pair):
    """Resolvent-sandwiched symbol ``(H+i)^{-1} i[H, A] (H-i)^{-1}``."""
    if pair.kind != "continuous":
        raise ValueError("selfadjoint_symbol needs a continuous pair")
    h, a = pair.main, pair.conjugate
    m = _resolvent_sandwich(h, 1j * (h @ a - a @ h))
    check_structure(m, "hermitian", 1e-10 * max(1.0, max_norm(a)), "resolvent-sandwiched symbol")
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


def _birkhoff_ladder(u, m, horizons):
    """Yield ``(N, sum_{n<N} U^n M U^{-n}, U^N)`` along strictly increasing integer horizons.

    Each entry extends the previous one, ``S_{a+b} = S_a + U^a S_b U^{-a}``
    and ``U^{a+b} = U^a U^b``: a step ``b`` equal to the previous horizon
    ``a`` reuses ``(S_a, U^a)``, which is the doubling step of
    :func:`_conjugation_sum`, so on a schedule whose entries double the sums
    are bit-identical to its own; any other step takes ``(S_b, U^b)`` from
    :func:`_conjugation_sum`.  Only the previous entry is held.
    """
    done = 0
    for steps in horizons:
        if not done:
            total, power = _conjugation_sum(u, m, steps)
        else:
            step_total, step_power = ((total, power) if steps == 2 * done
                                      else _conjugation_sum(u, m, steps - done))
            total = total + power @ step_total @ power.conj().T
            power = power @ step_power
        done = steps
        yield steps, total, power


def _horizon(steps):
    """A discrete horizon as an ``int >= 1``; a value that is not integral is refused, not truncated."""
    return _integral(steps, "discrete horizons", 1)


def birkhoff_discrete(unitary, symbol, steps):
    """Average ``(1/N) sum_{n<N} U^n M U^{-n}`` in ``O(log N)`` matrix products."""
    u = as_square_matrix(unitary, "unitary")
    m = as_square_matrix(symbol, "symbol")
    steps = _horizon(steps)
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
    """Residual of ``[A, U^N] = N D_N U^N`` at one horizon.

    ``expected`` is the roundoff scale ``dim * 1e-12 * (||A|| + N ||D_N||)``
    of the two sides; the verdict is the caller's, against its own bounds.
    """

    steps: int
    residual: float
    expected: float


def _identity_check(pair, steps, power, avg):
    """:class:`IdentityCheck` of ``[A, U^N] = N D_N U^N`` from ``U^N`` and ``D_N``."""
    a = pair.conjugate
    residual = spectral_norm(a @ power - power @ a - steps * (avg @ power))
    expected = pair.dim * 1e-12 * (pair.conjugate_norm + steps * spectral_norm(avg))
    return IdentityCheck(steps=steps, residual=residual, expected=expected)


def degree_identity_check(pair, steps):
    """Residual of the exact identity ``[A, U^N] = N * D_N * U^N`` at one horizon.

    The per-horizon reference: ``U^N`` from ``np.linalg.matrix_power`` and
    ``D_N`` from :func:`birkhoff_discrete`.  The runner checks a whole
    schedule from one :func:`_birkhoff_ladder` instead.
    """
    if pair.kind != "discrete":
        raise ValueError("degree_identity_check needs a discrete pair")
    steps = _horizon(steps)
    u = pair.main
    power = np.linalg.matrix_power(u, steps)
    return _identity_check(pair, steps, power, birkhoff_discrete(u, pair.symbol, steps))


def degree_alternative(pair, steps):
    """Equivalent degree formula ``(1/N) [A, U^N] U^{-N}``."""
    if pair.kind != "discrete":
        raise ValueError("degree_alternative needs a discrete pair")
    steps = _horizon(steps)
    u, a = pair.main, pair.conjugate
    power = np.linalg.matrix_power(u, steps)
    return (a @ power - power @ a) @ power.conj().T / steps


@dataclass
class DegreeEstimate:
    """Schedule of Birkhoff averages with Cauchy-gap convergence evidence.

    ``limit`` is the final average, ``limit_eigenvalues`` the ascending
    spectrum of its Hermitian part and ``limit_norm`` their largest modulus.
    ``telescoping_bound`` is the a-priori bound on ``||limit||`` at the final
    horizon: the Birkhoff sum telescopes, so ``2||A||/N`` for a discrete pair
    and ``2||A~||/t`` for a continuous one (see :func:`estimate_degree`).
    ``converged`` means every gap over the last third of the schedule sits
    below ``gap_threshold`` and each probe residual sequence decays;
    ``diverging`` flags a non-decreasing gap trend over that same stretch.
    On finite truncations these are surrogates for an operator limit, and
    they are reported as such rather than hidden.
    """

    kind: str
    schedule: list
    averages: list
    limit: np.ndarray
    limit_eigenvalues: np.ndarray
    limit_norm: float
    telescoping_bound: float
    cauchy_gaps: list
    probe_residuals: list
    gap_threshold: float
    converged: bool
    diverging: bool

    def to_payload(self):
        """Artifact form: the limit as its digest and spectrum, not its entries.

        The limit still goes through :func:`matrix_to_payload`, which refuses
        a non-finite limit; its ``entries`` list is not written.  (perfbench's
        tracer test also counts that call as a serializer span nested in
        ``to_json``.)
        """
        matrix_to_payload(self.limit)
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
            "limit": matrix_digest(self.limit),
            "limit_eigenvalues": self.limit_eigenvalues.tolist(),
            "telescoping_bound": float(self.telescoping_bound),
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

    A discrete pair's averages come from one :func:`_birkhoff_ladder` along
    the schedule, each entry extending the previous one; its horizons must be
    integers (``3.0`` is one, ``2.9`` is refused, not truncated).  On a
    schedule whose entries double, the averages equal
    :func:`birkhoff_discrete` bit for bit; otherwise they agree to roundoff.
    A continuous pair's come from the closed form of
    :func:`birkhoff_continuous` on the pair's one decomposition of ``H``.
    Probes must be unit vectors; each row of ``probe_residuals`` tracks
    ``||(D_k - limit) probe||`` along the schedule.

    The limit is read through one ``eigvalsh`` of its Hermitian part.  Its
    a-priori bound at the final horizon comes from the telescoping sum: the
    discrete symbol is ``A - U A U*``, so ``D_N = (A - U^N A U^-N)/N`` and
    ``||D_N|| <= 2||A||/N``; the continuous symbol is ``i[H, A~]`` with
    ``A~`` the bounded conjugate, so ``D_t = (e^{itH} A~ e^{-itH} - A~)/t``
    and ``||D_t|| <= 2||A~||/t``.
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
        horizons = [_horizon(s) for s in schedule]
        averages = [total / n for n, total, _ in _birkhoff_ladder(pair.main, pair.symbol, horizons)]
        bound = 2.0 * pair.conjugate_norm / horizons[-1]
    else:
        if schedule[0] <= 0:
            raise ValueError("continuous schedule entries must be positive")
        averages = [_time_average(*pair.spectrum, pair.symbol, float(t)) for t in schedule]
        bound = 2.0 * spectral_norm(pair.bounded_conjugate) / float(schedule[-1])

    limit = averages[-1]
    eigvals = np.linalg.eigvalsh((limit + limit.conj().T) / 2.0)
    gaps = [spectral_norm(b - a) for a, b in zip(averages, averages[1:])]
    residual_rows = [[float(np.linalg.norm((avg - limit) @ v)) for avg in averages] for v in probe_vecs]
    converged, diverging = _convergence_flags(gaps, residual_rows, gap_threshold)
    return DegreeEstimate(
        kind=pair.kind,
        schedule=schedule,
        averages=averages,
        limit=limit,
        limit_eigenvalues=eigvals,
        limit_norm=float(np.max(np.abs(eigvals), initial=0.0)),
        telescoping_bound=bound,
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


def tilde_conjugate(pair):
    """Bounded conjugate ``(H+i)^{-1} A (H-i)^{-1}`` of a continuous pair."""
    if pair.kind != "continuous":
        raise ValueError("tilde_conjugate needs a continuous pair")
    m = _resolvent_sandwich(pair.main, pair.conjugate)
    check_structure(m, "hermitian", 1e-10 * max(1.0, max_norm(pair.conjugate)), "tilde conjugate")
    return m


@dataclass(frozen=True)
class FlowIdentityCheck:
    duration: float
    residual: float
    error_estimate: float


def flow_identity_check(pair, duration):
    """Residual of the exact flow identity ``[A~, e^{-itH}] = t e^{-itH} D_t``.

    The identity is exact in finite dimension and ``D_t`` comes in closed
    form, so the residual is roundoff; ``error_estimate`` is the roundoff
    floor ``t * 64 eps ||M||`` of the symbol's average (at least that of
    ``A``); the verdict is the caller's.  The symbol, its norm, ``||A||``,
    ``A~`` and the decomposition of ``H`` are the pair's own, computed once
    per pair.
    """
    if pair.kind != "continuous":
        raise ValueError("flow_identity_check needs a continuous pair")
    duration = float(duration)
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    a_tilde = pair.bounded_conjugate
    floor = _roundoff_floor(pair.conjugate_norm)
    if duration == 0.0:
        return FlowIdentityCheck(duration=0.0, residual=0.0, error_estimate=floor)
    eigvals, eigvecs = pair.spectrum
    propagator = (eigvecs * np.exp(-1j * duration * eigvals)) @ eigvecs.conj().T
    average = _time_average(eigvals, eigvecs, pair.symbol, duration)
    residual = spectral_norm(
        (a_tilde @ propagator - propagator @ a_tilde) - duration * (propagator @ average)
    )
    estimate = max(duration * _roundoff_floor(pair.symbol_norm), floor)
    return FlowIdentityCheck(duration=duration, residual=float(residual), error_estimate=float(estimate))
