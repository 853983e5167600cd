"""Correlation decay diagnostics: series, summability and Fourier tails.

Everything here consumes plain dense matrices and vectors.  The routines are
deliberately model-agnostic; the model constructors in :mod:`commix.skew` and
:mod:`commix.graphs` produce inputs for them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import EvaluationError, ResolutionError, SchemaError
from .operators import (
    _integral,
    as_square_matrix,
    check_structure,
    max_norm,
    spectral_decomposition,
)

__all__ = [
    "CorrelationSeries",
    "correlation_discrete",
    "correlation_continuous",
    "SummabilityReport",
    "DecayReport",
    "FourierCalculus",
]

SERIES_FORMAT = "correlation-series"
SERIES_VERSION = 2
FOURIER_FORMAT = "fourier-series"
FOURIER_VERSION = 2


class CorrelationSeries:
    """Sampled correlation function with cumulative squared mass.

    ``abscissae`` are the sample points (integer horizons or real times),
    ``values`` the complex correlations.  ``partial_l2[k]`` accumulates the
    squared modulus up to sample ``k``: a plain running sum for discrete
    series, trapezoidal in the abscissa for continuous ones.  The CSV form
    holds the abscissae and values only; ``partial_l2`` is rebuilt on read.
    """

    def __init__(self, abscissae, values, kind):
        self.abscissae = np.asarray(abscissae, dtype=float).reshape(-1)
        self.values = np.asarray(values, dtype=complex).reshape(-1)
        if self.abscissae.shape != self.values.shape:
            raise ValueError("abscissae and values must have equal length")
        if kind not in ("discrete", "continuous"):
            raise ValueError(f"kind must be 'discrete' or 'continuous', got {kind!r}")
        self.kind = kind
        sq = np.abs(self.values) ** 2
        if kind == "discrete":
            self.partial_l2 = np.cumsum(sq)
        else:
            steps = np.diff(self.abscissae)
            if np.any(steps <= 0):
                raise ValueError("continuous abscissae must be strictly increasing")
            inc = 0.5 * (sq[1:] + sq[:-1]) * steps
            self.partial_l2 = np.concatenate([[0.0], np.cumsum(inc)])

    def __len__(self):
        return self.values.shape[0]

    def to_csv(self):
        rows = [f"# {SERIES_FORMAT} v{SERIES_VERSION} kind={self.kind}\nabscissa,re,im\n"]
        rows += [f"{x!r},{re!r},{im!r}\n" for x, re, im in
                 zip(self.abscissae.tolist(), self.values.real.tolist(), self.values.imag.tolist())]
        return "".join(rows)

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise SchemaError("missing correlation-series header comment")
        header = lines[0][1:].split()
        if len(header) < 3 or header[0] != SERIES_FORMAT or header[1] != f"v{SERIES_VERSION}":
            raise SchemaError(f"unsupported series header: {lines[0]!r} "
                              f"(this reader takes {SERIES_FORMAT} v{SERIES_VERSION})")
        kind = None
        for tok in header[2:]:
            if tok.startswith("kind="):
                kind = tok[5:]
        if kind is None:
            raise SchemaError("series header lacks kind=")
        columns = lines[1] if len(lines) > 1 else None
        if columns != "abscissa,re,im":
            raise SchemaError(f"unexpected column row: {columns!r}")
        abscissae, values = [], []
        for ln in lines[2:]:
            parts = ln.split(",")
            if len(parts) != 3:
                raise SchemaError(f"malformed series row: {ln!r}")
            try:
                abscissae.append(float(parts[0]))
                values.append(complex(float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise SchemaError(f"non-numeric series row: {ln!r}") from exc
        try:
            return cls(abscissae, values, kind)
        except ValueError as exc:  # an unknown kind, or continuous abscissae that do not increase
            raise SchemaError(f"invalid correlation series: {exc}") from exc


def correlation_discrete(unitary, phi, psi, horizon):
    """Series ``c_N = <phi, U^N psi>`` for ``N = 1..horizon`` by iterated application."""
    u = as_square_matrix(unitary, "unitary")
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    horizon = _integral(horizon, "horizons", 1)
    values = np.empty(horizon, dtype=complex)
    current = psi
    for n in range(horizon):
        current = u @ current
        values[n] = np.vdot(phi, current)
    return CorrelationSeries(np.arange(1, horizon + 1), values, "discrete")


def correlation_continuous(generator, phi, psi, times):
    """Series ``c_t = <phi, e^{-itH} psi>`` evaluated through one eigendecomposition."""
    h = as_square_matrix(generator, "generator")
    check_structure(h, "hermitian", 1e-8 * max(1.0, max_norm(h)), "generator")
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    times = np.asarray(times, dtype=float).reshape(-1)
    eigvals, eigvecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    alpha = eigvecs.conj().T @ phi
    beta = eigvecs.conj().T @ psi
    phases = np.exp(-1j * times[:, None] * eigvals[None, :])
    values = phases @ (np.conj(alpha) * beta)
    return CorrelationSeries(times, values, "continuous")


class SummabilityReport:
    """Verdict on whether a correlation series has square-summable tails.

    ``saturating`` asks whether the cumulative squared mass has flattened:
    the increments over the last third must contribute at most ``rel_tail``
    of the total, or the total itself must sit at or below the roundoff floor
    1e-28.  ``tail_slope`` is the log-log slope of the squared-modulus
    increments over the last half of the series (NaN when fewer than four
    positive increments are available).  For a power tail with slope < -1 the
    report extrapolates the remaining mass; otherwise the extrapolated total
    is infinite.
    """

    def __init__(self, series, rel_tail=1e-4):
        if len(series) < 16:
            raise ValueError("summability needs at least 16 samples")
        self.series = series
        self.rel_tail = float(rel_tail)
        total = float(series.partial_l2[-1])
        self.total = total

        n = len(series)
        tail_start = n - n // 3
        tail_mass = total - float(series.partial_l2[tail_start - 1])
        self.tail_mass = tail_mass
        # a series that never rises above roundoff is trivially summable
        self.saturating = total <= 1e-28 or tail_mass <= rel_tail * total

        half = n // 2
        xs = series.abscissae[half:]
        inc = np.abs(series.values[half:]) ** 2
        keep = inc > 0
        if keep.sum() >= 4:
            coeff = np.polyfit(np.log(xs[keep]), np.log(inc[keep]), 1)
            self.tail_slope = float(coeff[0])
            self._tail_intercept = float(coeff[1])
        else:
            self.tail_slope = float("nan")
            self._tail_intercept = float("nan")

        if np.isfinite(self.tail_slope) and self.tail_slope < -1.0:
            h = float(series.abscissae[-1])
            rest = np.exp(self._tail_intercept) * h ** (self.tail_slope + 1.0) / (-self.tail_slope - 1.0)
            self.extrapolated_total = total + float(rest)
        else:
            self.extrapolated_total = float("inf")

    def summary(self):
        return {
            "total": self.total,
            "tail_mass": self.tail_mass,
            "saturating": bool(self.saturating),
            "tail_slope": self.tail_slope,
            "extrapolated_total": self.extrapolated_total,
        }


class DecayReport:
    """Crude mixing check: late-window peak against early-window peak."""

    def __init__(self, series, fraction=0.1):
        n = len(series)
        if n < 8:
            raise ValueError("decay check needs at least 8 samples")
        quarter = max(1, n // 4)
        head = np.max(np.abs(series.values[:quarter]))
        tail = np.max(np.abs(series.values[-quarter:]))
        self.head_peak = float(head)
        self.tail_peak = float(tail)
        self.fraction = float(fraction)
        self.decaying = tail <= fraction * head


class FourierCalculus:
    """Fourier-series functional calculus for a unitary, with tail control.

    Coefficients come from an FFT over ``grid`` equispaced points of the
    circle; the reconstruction sums ``c_n U^n`` for ``|n| <= n_max`` on the
    eigenvalues of ``U``, from the same decomposition that evaluates ``fn(U)``
    directly (``U^{-n}`` as ``(U*)^n``, eigenvalue ``conj(lambda)^n``).  With a
    smoothness exponent ``gamma`` the coefficient envelope
    ``C (1+|n|)^{-(2+gamma)}`` yields an a-priori tail bound that must
    dominate the observed reconstruction error ``recon_error``, the largest
    ``|sum_n c_n lambda^n - fn(lambda)|`` over the eigenvalues: both sides are
    diagonal in one orthonormal eigenbasis, so that is the spectral norm of
    their difference up to roundoff.  ``reconstruction`` assembles the matrix
    on first read.  ``decomposition_residual`` is the eigensolver residual of
    that decomposition (:attr:`SpectralDecomposition.residual`).
    """

    def __init__(self, unitary, fn, n_max, gamma, grid=None):
        u = as_square_matrix(unitary, "unitary")
        check_structure(u, "unitary", 1e-8 * max(1.0, max_norm(u)), "FourierCalculus input")
        n_max = int(n_max)
        if n_max < 8:
            raise ValueError("n_max must be >= 8")
        grid = int(grid) if grid is not None else 4 * n_max
        if grid < 4 * n_max:
            raise ValueError("grid must be at least 4 * n_max")
        gamma = float(gamma)
        if gamma <= 0:
            raise ValueError("gamma must be positive")

        theta = 2.0 * np.pi * np.arange(grid) / grid
        samples = np.asarray(fn(theta), dtype=complex)
        if samples.shape != theta.shape:
            raise ValueError("fn must map a sample array to an equal-length array")
        coeffs = np.fft.fft(samples) / grid

        # an occupied top octave means the sampling grid cannot separate the
        # requested band from its aliases
        octave = coeffs[grid // 2 - grid // 16 : grid // 2 + grid // 16]
        scale = np.max(np.abs(coeffs)) or 1.0
        if np.max(np.abs(octave)) > 1e-8 * scale:
            raise ResolutionError(
                "sample spectrum reaches the top octave of the grid; "
                "increase grid or smooth the symbol"
            )

        ns = np.arange(-n_max, n_max + 1)
        self.indices = ns
        self.coefficients = coeffs[ns % grid]
        self.gamma = gamma
        self.n_max = n_max
        self.grid = grid

        dec = spectral_decomposition(u)
        self.decomposition_residual = dec.residual
        lam = dec.eigenvalues
        # lambda^n for n = 0..n_max by one cumulative product; order -n reads conj(lambda^n)
        powers = np.ones((n_max + 1, lam.size), dtype=complex)
        powers[1:] = lam
        powers = np.cumprod(powers, axis=0)
        values = self.coefficients[n_max:] @ powers + self.coefficients[n_max - 1 :: -1] @ powers[1:].conj()
        self._decomposition, self._values = dec, values

        direct = np.asarray(fn(np.angle(lam) % (2.0 * np.pi)), dtype=complex)
        if not np.isfinite(direct).all():
            raise EvaluationError(f"fn is not finite at eigenvalue(s) {lam[~np.isfinite(direct)]}")
        self.recon_error = float(np.max(np.abs(values - direct), initial=0.0))

        mags = np.abs(self.coefficients)
        envelope = (1.0 + np.abs(ns)) ** (2.0 + gamma)
        self.holder_constant = float(np.max(mags * envelope))

        fit_mask = (np.abs(ns) >= 8) & (mags > 0)
        if fit_mask.sum() >= 4:
            self.decay_exponent = float(
                np.polyfit(np.log1p(np.abs(ns[fit_mask])), np.log(mags[fit_mask]), 1)[0]
            )
        else:
            self.decay_exponent = float("nan")

        # sum_{|n| > n_max} C (1+|n|)^{-(2+gamma)}, integral remainder
        p = 2.0 + gamma
        tail = 2.0 * self.holder_constant * (1.0 + n_max) ** (1.0 - p) / (p - 1.0)
        self.tail_bound = float(tail)

    @functools.cached_property
    def reconstruction(self):
        """``sum_n c_n U^n`` over ``|n| <= n_max``, assembled on first read."""
        return self._decomposition.assemble(self._values)

    def to_csv(self):
        rows = [f"# {FOURIER_FORMAT} v{FOURIER_VERSION} n_max={self.n_max} gamma={self.gamma!r}\nn,re,im\n"]
        rows += [f"{n},{re!r},{im!r}\n" for n, re, im in
                 zip(self.indices.tolist(), self.coefficients.real.tolist(), self.coefficients.imag.tolist())]
        return "".join(rows)
