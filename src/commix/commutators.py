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
    "degree_averages",
    "identity_check",
    "estimate_degree",
    "epsilon_commutator",
    "epsilon_commutator_slope",
    "tilde_conjugate",
    "flow_identity_check",
]

DEGREE_ESTIMATE_FORMAT = "degree-estimate"
DEGREE_ESTIMATE_VERSION = 4


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
    rows = _permutation_rows(u)
    if rows is None:
        m = (a @ u - u @ a) @ u.conj().T
    else:
        m = _gather_symbol(a, rows)
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


def _permutation_rows(u):
    """``p`` with ``U x = x[p]`` when ``u`` is a permutation matrix, else None.

    A permutation matrix here is float64 with every entry exactly ``+0.0`` or
    ``1.0`` and one ``1.0`` in each row and column; on it every product of the
    dense ladder is an exact reindexing.
    """
    if u.dtype != np.float64:
        return None
    ones = u == 1.0
    if not ((ones | ((u == 0.0) & ~np.signbit(u))).all()
            and (ones.sum(axis=0) == 1).all() and (ones.sum(axis=1) == 1).all()):
        return None
    return ones.argmax(axis=1)


def _birkhoff_ladder(u, m, horizons):
    """Yield ``(N, sum_{n<N} U^n M U^{-n}, U^N)`` for each integer horizon ``N >= 1``.

    Each horizon walks its binary digits from ``(S_1, U^1) = (M, U)``: a digit
    doubles, ``S_{2a} = S_a + U^a S_a U^{-a}``, and a 1 then appends,
    ``S_{2a+1} = M + U S_{2a} U^{-1}``, with ``U^a`` alongside.  Each step is
    taken once per schedule and held only while a later horizon needs it, so
    every sum equals :func:`birkhoff_discrete`'s bit for bit.

    The step kernel is chosen once per call.  The dense kernel takes three
    O(n³) matrix products a step.  When ``u`` is a permutation matrix
    (:func:`_permutation_rows`), the gather kernel holds ``U^a`` as its row
    indices ``p_a``, with ``U^a x = x[p_a]``, and takes each step as O(n²)
    index gathers: ``S_{2a} = S_a + S_a[p_a][:, p_a]``, ``p_{2a} = p_a[p_a]``,
    ``S_{2a+1} = M + S_{2a}[p_1][:, p_1]``, ``p_{2a+1} = p_{2a}[p_1]``; ``U^N``
    is yielded as ``eye(n)[p_N]``.  The dense products on a permutation are
    exact reindexings too, so the two kernels agree bit for bit while the sums
    are finite (up to the sign of a zero where ``M`` holds a ``-0.0``), and
    the sum itself is exact whenever ``M``'s entries add exactly.
    """
    # plan[i]: the (from, to) steps horizon i forms first; need[k]: the last
    # horizon that forms a step from k or yields k
    formed, need, plan = {1}, {}, []
    for i, steps in enumerate(horizons):
        new, key = [], 1
        for bit in bin(steps)[3:]:
            for prev, key in ((key, 2 * key), (2 * key, 2 * key + 1))[: 1 + int(bit)]:
                if key not in formed:
                    formed.add(key)
                    need[prev] = i
                    new.append((prev, key))
        need[steps] = i
        plan.append((steps, new))
    rows = _permutation_rows(u)
    if rows is None:
        uh = u.conj().T

        def step(odd, total, power):
            if odd:
                return m + u @ total @ uh, u @ power
            return total + power @ total @ power.conj().T, power @ power
    else:
        def step(odd, total, p):
            if odd:
                return m + total[np.ix_(rows, rows)], p[rows]
            return total + total[np.ix_(p, p)], p[p]
    held = {1: (m, u if rows is None else rows)}
    for i, (steps, new) in enumerate(plan):
        for prev, key in new:
            # a spent step is freed once its successor is formed
            held[key] = step(key % 2, *(held[prev] if need[prev] > i else held.pop(prev)))
        total, power = held[steps] if need[steps] > i else held.pop(steps)
        yield steps, total, power if rows is None else np.eye(len(power))[power]


def _horizon(steps):
    """A discrete horizon as an ``int >= 1``; a value that is not integral is refused, not truncated."""
    return _integral(steps, "discrete horizons", 1)


def birkhoff_discrete(unitary, symbol, steps):
    """Average ``(1/N) sum_{n<N} U^n M U^{-n}``: a one-horizon :func:`_birkhoff_ladder`."""
    u = as_square_matrix(unitary, "unitary")
    m = as_square_matrix(symbol, "symbol")
    steps = _horizon(steps)
    return next(_birkhoff_ladder(u, m, [steps]))[1] / steps


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
    duration = _duration(duration)
    eigvals, eigvecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return _time_average(eigvals, eigvecs, m, duration)


def _duration(t):
    """A flow duration as a finite positive float; NaN and the infinities are refused."""
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"durations must be finite and positive, got {t!r}")
    return t


def _time_average(eigvals, eigvecs, m, duration):
    """:func:`birkhoff_continuous` on the decomposition ``H = V diag(lambda) V*``."""
    coeff = eigvecs.conj().T @ m @ eigvecs
    kernel = _phi1_imaginary(duration * (eigvals[:, None] - eigvals[None, :]))
    value = eigvecs @ (coeff * kernel) @ eigvecs.conj().T
    return (value + value.conj().T) / 2.0


def degree_averages(pair, schedule):
    """One ``(horizon, D, propagator)`` row per entry of a strictly increasing schedule.

    A discrete pair's rows are ``(N, D_N, U^N)`` from one
    :func:`_birkhoff_ladder` along the schedule, which forms each binary
    prefix of its horizons once; its horizons must be integers (``3.0`` is
    one, ``2.9`` is refused, not truncated), and every ``D_N`` equals
    :func:`birkhoff_discrete`'s bit for bit.  A continuous pair's rows are
    ``(t, D_t, e^{-itH})`` from the closed form of :func:`birkhoff_continuous`
    on the pair's one ``spectrum``; its durations must be finite and positive.
    """
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if pair.kind == "discrete":
        ladder = _birkhoff_ladder(pair.main, pair.symbol, [_horizon(s) for s in schedule])
        return [(n, total / n, power) for n, total, power in ladder]
    durations = [_duration(t) for t in schedule]
    eigvals, eigvecs = pair.spectrum
    return [(t, _time_average(eigvals, eigvecs, pair.symbol, t),
             (eigvecs * np.exp(-1j * t * eigvals)) @ eigvecs.conj().T) for t in durations]


@dataclass(frozen=True)
class IdentityCheck:
    """Residual of ``[A, U^N] = N D_N U^N`` at one horizon.

    ``expected`` is the roundoff scale ``dim * 1e-12 * (||A|| + N ||D_N||)``
    of the two sides; the verdict is the caller's, against its own bounds.
    """

    steps: int
    residual: float
    expected: float


def _gather_symbol(a, p):
    """``(A U - U A) U*`` for the permutation ``U x = x[p]``: ``A - A[p][:, p]``.

    The dense products on a permutation are exact reindexings of the same
    operands, and their sums start from ``+0.0``; adding ``+0.0`` folds a
    ``-0.0`` the same way, so the result equals the dense one bit for bit
    while ``A`` is finite.
    """
    m = a - a[np.ix_(p, p)]
    m += 0.0
    return m


def _gather_residual(a, q, avg, steps):
    """``A U^N - U^N A - N D_N U^N`` for the permutation ``U^N x = x[q]``.

    ``X U^N`` gathers the columns of ``X`` by ``q^-1 = argsort(q)`` and
    ``U^N X`` its rows by ``q``: ``A[:, q^-1] - A[q] - N D_N[:, q^-1]``,
    equal to the dense products bit for bit while the operands are finite,
    as in :func:`_gather_symbol`.
    """
    inverse = np.argsort(q)
    r = a[:, inverse] - a[q] - steps * avg[:, inverse]
    r += 0.0
    return r


def identity_check(pair, horizon, average, propagator):
    """Check the commutator identity on one row of :func:`degree_averages`.

    A discrete pair's row ``(N, D_N, U^N)`` gives the :class:`IdentityCheck`
    of ``[A, U^N] = N D_N U^N``; when ``U^N`` is a permutation matrix
    (:func:`_permutation_rows`), as the ladder yields for a permutation ``U``,
    the residual is formed by :func:`_gather_residual` instead of three dense
    products.  A continuous pair's row ``(t, D_t, e^{-itH})`` gives the
    :class:`FlowIdentityCheck` of ``[A~, e^{-itH}] = t e^{-itH} D_t`` (see
    :func:`flow_identity_check`).
    """
    if pair.kind == "continuous":
        a_tilde = pair.bounded_conjugate
        residual = spectral_norm(
            (a_tilde @ propagator - propagator @ a_tilde) - horizon * (propagator @ average)
        )
        estimate = max(horizon * _roundoff_floor(pair.symbol_norm), _roundoff_floor(pair.conjugate_norm))
        return FlowIdentityCheck(duration=horizon, residual=float(residual), error_estimate=float(estimate))
    a = pair.conjugate
    rows = _permutation_rows(propagator)
    if rows is None:
        residual = spectral_norm(a @ propagator - propagator @ a - horizon * (average @ propagator))
    else:
        residual = spectral_norm(_gather_residual(a, rows, average, horizon))
    expected = pair.dim * 1e-12 * (pair.conjugate_norm + horizon * spectral_norm(average))
    return IdentityCheck(steps=horizon, residual=residual, expected=expected)


def degree_identity_check(pair, steps):
    """Residual of the exact identity ``[A, U^N] = N * D_N * U^N`` at one horizon.

    The per-horizon reference: ``U^N`` from ``np.linalg.matrix_power`` and
    ``D_N`` from :func:`birkhoff_discrete`.  :func:`degree_averages` forms a
    whole schedule's rows from one ladder instead.
    """
    if pair.kind != "discrete":
        raise ValueError("degree_identity_check needs a discrete pair")
    steps = _horizon(steps)
    u = pair.main
    power = np.linalg.matrix_power(u, steps)
    return identity_check(pair, steps, birkhoff_discrete(u, pair.symbol, steps), power)


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
    ``converged`` means every gap over the last third of the schedule is at
    most ``gap_threshold``; ``diverging`` flags a non-decreasing gap trend
    over that same stretch.
    A one-horizon schedule has no gap, so it is neither.
    On finite truncations these are surrogates for an operator limit, and
    they are reported as such rather than hidden.
    """

    kind: str
    schedule: list
    limit: np.ndarray
    limit_eigenvalues: np.ndarray
    limit_norm: float
    telescoping_bound: float
    cauchy_gaps: list
    gap_threshold: float
    converged: bool
    diverging: bool

    @classmethod
    def from_averages(cls, pair, rows, gap_threshold=1e-6):
        """The estimate along the nonempty rows of :func:`degree_averages`.

        The limit is read through one ``eigvalsh`` of its Hermitian part.
        """
        if not rows:
            raise ValueError("rows must be nonempty")
        schedule = [horizon for horizon, _, _ in rows]
        averages = [average for _, average, _ in rows]
        norm = pair.conjugate_norm if pair.kind == "discrete" else spectral_norm(pair.bounded_conjugate)
        limit = averages[-1]
        eigvals = np.linalg.eigvalsh((limit + limit.conj().T) / 2.0)
        gaps = [spectral_norm(b - a) for a, b in zip(averages, averages[1:])]
        converged, diverging = _convergence_flags(gaps, gap_threshold)
        return cls(
            kind=pair.kind,
            schedule=schedule,
            limit=limit,
            limit_eigenvalues=eigvals,
            limit_norm=float(np.max(np.abs(eigvals), initial=0.0)),
            telescoping_bound=2.0 * norm / float(schedule[-1]),
            cauchy_gaps=gaps,
            gap_threshold=gap_threshold,
            converged=converged,
            diverging=diverging,
        )

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
            "gap_threshold": float(self.gap_threshold),
            "converged": bool(self.converged),
            "diverging": bool(self.diverging),
            "limit": matrix_digest(self.limit),
            "limit_eigenvalues": self.limit_eigenvalues.tolist(),
            "telescoping_bound": float(self.telescoping_bound),
        }

    def to_json(self):
        return json.dumps(self.to_payload())


def _convergence_flags(gaps, threshold):
    # one horizon gives no Cauchy gap, so no evidence of convergence either way
    if not gaps:
        return False, False
    tail_start = max(0, len(gaps) - max(1, len(gaps) // 3))
    tail = gaps[tail_start:]
    converged = all(g <= threshold for g in tail)
    trending_up = len(tail) >= 2 and all(b >= a * (1.0 - 1e-12) for a, b in zip(tail, tail[1:]))
    diverging = (not converged) and trending_up and tail[-1] > threshold
    return converged, diverging


def estimate_degree(pair, schedule, gap_threshold=1e-6):
    """Estimate the degree operator along an increasing schedule of horizons.

    :meth:`DegreeEstimate.from_averages` on the rows of
    :func:`degree_averages`; it is ``converged`` iff every Cauchy gap over the
    last third of the schedule is at most ``gap_threshold``.  The a-priori
    bound on the limit at the final horizon comes from the telescoping sum:
    the discrete symbol is ``A - U A U*``, so ``D_N = (A - U^N A U^-N)/N`` and
    ``||D_N|| <= 2||A||/N``;
    the continuous symbol is ``i[H, A~]`` with ``A~`` the bounded conjugate,
    so ``D_t = (e^{itH} A~ e^{-itH} - A~)/t`` and ``||D_t|| <= 2||A~||/t``.
    """
    return DegreeEstimate.from_averages(pair, degree_averages(pair, schedule), gap_threshold)


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
    if duration == 0.0:
        return FlowIdentityCheck(duration=0.0, residual=0.0, error_estimate=_roundoff_floor(pair.conjugate_norm))
    return identity_check(pair, *degree_averages(pair, [duration])[0])
