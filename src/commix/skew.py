"""Skew-product models over torus translations.

Concrete builders for the worked examples: abelian sector operators driven by
a winding-plus-perturbation cocycle, their scalar degree fields, SU(2)-valued
cocycles with matrix degree fields, and the cyclic shift/position pair.

Sector operators are applied function-analytically on periodic grids, where
their commutator identity is checked too; the matrix truncation is a
cross-check in the tests.  All grid resolutions are powers of two so
spectral interpolation is exact on band-limited data.  Sector correlation
series need no grid: they are summed in closed form from the Fourier data of
the observables.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .commutators import OperatorPair
from .errors import RationalApproximationWarning, ResolutionError, StructureError
from .mixing import CorrelationSeries
from .operators import _integer_array, _integral, _kernel_mask, check_structure, spectral_norm

__all__ = [
    "TorusFlow",
    "GridField",
    "unit_grid",
    "TorusCocycle",
    "cocycle_sum",
    "sector_apply",
    "sector_matrix",
    "sector_correlation",
    "TorusDegreeReport",
    "torus_degree_field",
    "TorusDegreeBound",
    "torus_degree_bound",
    "SectorIdentityReport",
    "sector_identity_check",
    "su2_irrep",
    "SU2Cocycle",
    "SU2DegreeReport",
    "su2_degree_field",
    "su2_degree_bound",
    "ShiftModel",
    "shift_weyl_model",
]


class TorusFlow:
    """Translation flow x -> x + t*y (mod 1) on the d-torus.

    Irrationality of the translation vector cannot be certified in floating
    point; instead every component is compared against its best rational
    approximation with denominator at most 10^4 and a warning is emitted when
    the distance falls below 1e-10.
    """

    def __init__(self, y):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("translation vector must be one-dimensional and nonempty")
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise ValueError("translation components must lie in (0, 1)")
        self.y = arr
        self.d = arr.size
        for i, yi in enumerate(arr):
            frac = Fraction(yi).limit_denominator(10**4)
            err = abs(yi - float(frac))
            if err < 1e-10:
                warnings.warn(
                    f"translation component {i} = {yi!r} is within {err:.2e} of "
                    f"{frac.numerator}/{frac.denominator}; orbits will be nearly periodic",
                    RationalApproximationWarning,
                    stacklevel=2,
                )

    def advance(self, x, t=1.0):
        x = np.asarray(x, dtype=float)
        if self.d == 1:
            return np.mod(x + t * self.y[0], 1.0)
        if x.shape[-1:] != (self.d,):
            raise ValueError(f"points must have a trailing axis of length {self.d}")
        return np.mod(x + t * self.y, 1.0)


def unit_grid(shape):
    """Coordinate arrays of the uniform grid {0, 1/m, ..., (m-1)/m} per axis."""
    shape = tuple(int(m) for m in shape)
    axes = [np.arange(m) / m for m in shape]
    if len(shape) == 1:
        return axes[0]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _check_power_of_two(m):
    return m >= 2 and (m & (m - 1)) == 0


def _check_grid_shape(shape):
    if not all(_check_power_of_two(m) for m in shape):
        raise ValueError(f"grid sizes must be powers of two, got {shape}")


class GridField:
    """Complex samples on a uniform periodic grid, power-of-two per axis."""

    def __init__(self, values):
        v = np.asarray(values, dtype=complex)
        if v.ndim < 1:
            raise ValueError("field values must have at least one axis")
        _check_grid_shape(v.shape)
        self.values = v

    @classmethod
    def from_modes(cls, modes, shape):
        shape = tuple(int(m) for m in shape)
        return cls(_fourier_values(_observable_modes(modes, len(shape)), unit_grid(shape), len(shape)))

    # ufunc reductions rather than np.vdot, whose threaded BLAS can stall
    # for milliseconds on grid-sized vectors
    def inner(self, other):
        if self.values.shape != other.values.shape:
            raise ValueError("field shapes differ")
        return complex(np.sum(self.values.conj() * other.values) / self.values.size)

    def norm(self):
        v = self.values
        return float(np.sqrt(np.mean(v.real * v.real + v.imag * v.imag)))


def _frequencies(shape):
    """Integer-valued frequency of every FFT bin, one array per axis."""
    return [np.fft.fftfreq(m) * m for m in shape]


def _frequency_dot(freqs, vec):
    """k.vec over the frequency table ``freqs``, broadcast to the grid shape."""
    total = 0.0
    for axis, freq in enumerate(freqs):
        axis_shape = [1] * len(freqs)
        axis_shape[axis] = -1
        total = total + freq.reshape(axis_shape) * vec[axis]
    return total


def _occupied_band(spec, freqs):
    """Per-axis largest |frequency| whose coefficient in ``spec`` exceeds 1e-8 of the peak.

    A spectrum whose peak is below the smallest normal double times the grid
    size comes from subnormal samples, whose FFT roundoff is as large as the
    samples themselves; it counts as empty, like an all-zero one.
    """
    spec = np.abs(spec)
    peak = spec.max()
    if peak < np.finfo(float).tiny * spec.size:
        return [0] * spec.ndim
    mask = spec > 1e-8 * peak
    band = []
    for axis, freq in enumerate(freqs):
        hit = mask.any(axis=tuple(i for i in range(spec.ndim) if i != axis))
        band.append(int(np.abs(freq[hit]).max()) if hit.any() else 0)
    return band


def _dot(x, vec):
    """x.vec at points x: scalars on a one-dimensional base, else a trailing axis of len(vec)."""
    x = np.asarray(x, dtype=float)
    if len(vec) == 1:
        return x * float(vec[0])
    if x.shape[-1:] != (len(vec),):
        raise ValueError(f"points must have a trailing axis of length {len(vec)}")
    return x @ np.asarray(vec, dtype=float)


def _base_shape(x, d):
    """Shape of the points x of the d-torus, without the trailing coordinate axis when d > 1."""
    return x.shape if d == 1 else x.shape[:-1]


def _wave_table(keys, x):
    """{k: e(k.x)} at the points x for every mode k in ``keys``: len(keys) x points x 16 B."""
    x = np.asarray(x, dtype=float)
    return {k: np.exp(2j * np.pi * _dot(x, k)) for k in keys}


def _wave_sum(coefficients, waves, shape, start=0.0):
    """start + sum_k c_k waves[k] over points of ``shape``, for Fourier data {k: c_k}."""
    out = np.full(shape, start, dtype=complex)
    for k, c in coefficients.items():
        out += c * waves[k]
    return out


def _fourier_values(modes, x, d, start=0.0):
    """start + sum_k c_k e(k.x) at the points x of the d-torus, for Fourier data {k: c_k}."""
    x = np.asarray(x, dtype=float)
    return _wave_sum(modes, _wave_table(modes, x), _base_shape(x, d), start)


def _real_modes(modes, d):
    """Scalar Fourier data {k: c} of a real function on the d-torus.

    The mirror c_{-k} = conj(c_k) of every mode must be present and hold to
    1e-12 absolutely; StructureError otherwise.
    """
    parsed = _observable_modes(modes or {}, d)
    for k, c in parsed.items():
        mirror = parsed.get(tuple(-v for v in k))
        # absolute, so that large modes get no slack; written so NaN fails
        if mirror is None or not abs(mirror - c.conjugate()) <= 1e-12:
            raise StructureError(
                "perturbation coefficients must be Hermitian-symmetric "
                f"(missing or inconsistent mirror of mode {k})"
            )
    return parsed


def _integer_vector(values, what):
    """``values`` as a nonempty int64 vector (see _integer_array)."""
    entries = _integer_array(np.atleast_1d(np.asarray(values, dtype=object)), what)
    if entries.ndim != 1 or not entries.size:
        raise ValueError(f"{what} must be nonempty integers below 2^63 in modulus, got {values!r}")
    return entries


class TorusCocycle:
    """The scalar q.phi(x) = W^T q.x + q.eta(x) that a sector operator sees.

    A cocycle generator phi(x) = W x + eta(x) with values in R^r enters the
    sector of character q only through this scalar: ``winding`` is the
    integer vector W^T q and ``modes`` the finite Fourier data of the real
    periodic perturbation q.eta (Hermitian-symmetric, see _real_modes).
    """

    def __init__(self, winding, modes):
        self.winding = _integer_vector(winding, "winding")
        self.d = self.winding.size
        self.modes = _real_modes(modes, self.d)

    def eta(self, x):
        """Perturbation values q.eta(x), shaped like the points."""
        return _fourier_values(self.modes, x, self.d).real


def _geometric_phase_sum(u, n):
    # sum_{j=0}^{n-1} e(j u) in closed form, for a step count n or an array of
    # them; near an integer u the form runs on delta = u - round(u), which
    # leaves every term unchanged, and an integer u sums n ones
    s = math.sin(math.pi * u)
    if abs(s) < 1e-9:
        u = u - round(u)
        if u == 0.0:
            return n * (1.0 + 0.0j)
        s = math.sin(math.pi * u)
    return np.exp(1j * np.pi * (n - 1) * u) * np.sin(math.pi * n * u) / s


def _phase_sums(cocycle, flow, n):
    # per nonzero mode g e(k.x) of q.eta: k, its rotation number k.y, g and
    # the geometric phase sum S_n(k.y), through which e(k.x) enters n steps
    for k, g in cocycle.modes.items():
        if g != 0:
            u = float(np.dot(k, flow.y))
            yield k, u, g, _geometric_phase_sum(u, n)


def cocycle_sum(cocycle, flow, x, n):
    """Accumulated sector phase q.phi^(n)(x), as an unwrapped real number.

    n >= 1 sums q.phi over the first n flow steps starting at x, n = 0 gives
    0, and negative n uses the cocycle inverse, so the cocycle law
    value(n+m, x) = value(n, x) + value(m, F_n x) holds for all integers.
    The winding part is summed in closed form (arithmetic progression), the
    perturbation part mode-by-mode through geometric phase sums.
    """
    n = _integral(n, "step counts")
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.zeros(_base_shape(x, cocycle.d))
    if n < 0:
        return -cocycle_sum(cocycle, flow, flow.advance(x, n), -n)
    return _forward_sum(cocycle, flow, x, n, _mode_waves(cocycle, x))


def _mode_waves(cocycle, x):
    # the wave table of the nonzero modes of q.eta, the only ones _phase_sums yields
    return _wave_table([k for k, g in cocycle.modes.items() if g != 0], x)


def _forward_sum(cocycle, flow, x, n, waves):
    # cocycle_sum at n >= 1, from the wave table of q.eta at the points x
    wy = float(np.dot(cocycle.winding, flow.y))
    lin = n * _dot(x, cocycle.winding) + wy * n * (n - 1) / 2.0
    coefficients = {k: g * s for k, _, g, s in _phase_sums(cocycle, flow, n)}
    return lin + _wave_sum(coefficients, waves, _base_shape(x, cocycle.d)).real


def _modulation_margin(cocycle, flow, steps):
    # spectral spread of exp(2 pi i q.eta-cocycle-sum): each base mode of
    # amplitude beta radians scatters onto harmonics, negligible beyond
    # roughly |k|*(beta + 8); summed in Python numbers, so that no beta
    # overflows, and a non-finite beta spreads without bound on every axis
    # its mode moves (0 * inf would be NaN, which passes any budget)
    margin = [0] * cocycle.d
    for k, g in cocycle.modes.items():
        if g == 0:
            continue
        u = float(np.dot(k, flow.y))
        s = abs(math.sin(math.pi * u))
        envelope = abs(steps) if s < 1e-9 else min(abs(steps), 1.0 / s)
        beta = 2.0 * np.pi * abs(g) * envelope
        spread = math.ceil(beta + 8.0) if math.isfinite(beta) else math.inf
        margin = [total + abs(v) * spread if v else total for total, v in zip(margin, k)]
    return margin


def _orbit_average_rate(cocycle, flow, points, steps, waves=None):
    """(1/N) sum_{m<N} of the sector rate q.W y + y.grad(q.eta) at F_m x, in closed form.

    The constant q.W y averages to itself; a mode g e(k.x) of q.eta has rate
    2 pi i (k.y) g e(k.x), and along the orbit e(k.F_m x) = e(k.x) e(m k.y),
    so its average is that rate times the mean geometric phase sum.  Works
    on any array of points, grid or not; ``waves`` is the wave table of
    q.eta at the points (_mode_waves), formed here when not given.
    """
    points = np.asarray(points, dtype=float)
    if waves is None:
        waves = _mode_waves(cocycle, points)
    rates = _rate_coefficients(cocycle, flow, steps)
    return _wave_sum(rates, waves, _base_shape(points, cocycle.d), float(np.dot(cocycle.winding, flow.y)))


def _rate_coefficients(cocycle, flow, steps):
    # {k: 2 pi i (k.y) g S_N(k.y) / N}, N = steps: rate_N - q.W y on the nonzero modes g e(k.x) of q.eta
    return {k: (2j * np.pi * u * g) * (s / steps) for k, u, g, s in _phase_sums(cocycle, flow, steps)}


def _read_only(array):
    array.setflags(write=False)
    return array


class _SectorGrid:
    """The quantities of one sector on one periodic grid that no step count changes.

    Holds the grid points, the FFT frequencies and the wave table
    {k: e(k.x)} of the nonzero modes of q.eta (_mode_waves), formed on first
    use; the phase q.phi^(N) and D_N = 2 pi rate_N (_orbit_average_rate) at
    any horizon are weighted sums over that table, which takes (nonzero
    modes of q.eta) x (grid points) x 16 B and is read-only, like every table
    here; no D_N is kept.  A sector step runs the checks sector_apply
    describes around the values of U^N f, which sector_apply forms by
    spectral translation, for any field, and identity_check in closed form,
    for a Fourier mode.  Each public grid route forms one per call.
    """

    def __init__(self, cocycle, flow, shape):
        self.shape = tuple(int(m) for m in shape)
        if len(self.shape) != cocycle.d:
            raise ValueError("grid dimension does not match the cocycle base")
        self.cocycle, self.flow = cocycle, flow
        self.points = _read_only(unit_grid(self.shape))
        self.freqs = [_read_only(f) for f in _frequencies(self.shape)]

    @functools.cached_property
    def waves(self):
        return {k: _read_only(w) for k, w in _mode_waves(self.cocycle, self.points).items()}

    def step(self, band, steps, carry):
        """U^steps of a field of occupied band ``band``, with the checks sector_apply describes.

        ``carry`` maps the sector phase q.phi^(steps) on the grid to the
        values of U^steps of the field.  The a-priori budget runs before any
        grid work; then the phase and the result must be finite and the
        result's spectrum must stay below the top of the band.  Returns the
        result and its spectrum; ResolutionError if a check fails.
        """
        cocycle, flow = self.cocycle, self.flow
        margin = _modulation_margin(cocycle, flow, steps)
        for i, m in enumerate(self.shape):
            needed = abs(steps * int(cocycle.winding[i])) + band[i] + margin[i]
            if needed >= m // 2:
                raise ResolutionError(
                    f"axis {i}: predicted bandwidth {needed} at {steps} steps exceeds "
                    f"the grid Nyquist {m // 2}; enlarge the grid or reduce the step count"
                )
        # a mode that moves no axis adds nothing to the margin, yet its phase can
        # pass float range; the result is then NaN, whose band reads empty
        with np.errstate(over="ignore", invalid="ignore"):
            if steps > 0:
                summed = _forward_sum(cocycle, flow, self.points, steps, self.waves)
            else:
                summed = cocycle_sum(cocycle, flow, self.points, steps)
            out = carry(summed)
        if not (np.all(np.isfinite(summed)) and np.all(np.isfinite(out))):
            raise ResolutionError(
                f"the sector phase at {steps} steps is not finite; no grid resolves it"
            )
        out_spec = np.fft.fftn(out)
        out_band = _occupied_band(out_spec, self.freqs)
        for i, m in enumerate(self.shape):
            if out_band[i] >= m // 2 - m // 16:
                raise ResolutionError(
                    f"axis {i}: result occupies the top of the resolvable band "
                    f"({out_band[i]} of {m // 2}) at {steps} steps; aliasing suspected"
                )
        return out, out_spec

    def identity_check(self, mode, schedule):
        """sector_identity_check on this grid, reading D_N once per resolved horizon."""
        _check_grid_shape(self.shape)
        mode = _integer_vector(mode, "mode").tolist()
        if len(mode) != len(self.shape):
            raise ValueError(f"mode {tuple(mode)} has {len(mode)} components, "
                             f"expected {len(self.shape)}")
        # past [-m/2, m/2) on an axis the grid holds e_l as its alias e_l',
        # on which A reads 2 pi l'.y, not the eigenvalue 2 pi l.y
        alias = [(v + m // 2) % m - m // 2 for v, m in zip(mode, self.shape)]
        if alias != mode:
            raise ValueError(f"mode {tuple(mode)} lies outside the band [-m/2, m/2) of grid shape "
                             f"{self.shape}, which holds it as its alias {tuple(alias)}")
        # the translate of e_l by N y is the scalar e(N l.y) times itself
        band = [abs(v) for v in mode]
        wave_phase = _dot(self.points, mode)
        flow = self.flow
        rotation = float(np.dot(mode, flow.y))
        eigenvalue = 2.0 * np.pi * rotation
        multiplier = 2.0 * np.pi * _frequency_dot(self.freqs, flow.y)
        eps = np.finfo(float).eps
        fft_noise = math.log2(math.prod(self.shape)) * eps
        spread = 2.0 * np.pi * math.sqrt(sum((y * m) ** 2 for y, m in zip(flow.y, self.shape)) / 12.0)
        wy = abs(float(np.dot(self.cocycle.winding, flow.y)))
        winding = float(np.abs(self.cocycle.winding.astype(float)).sum())
        report = SectorIdentityReport([], [], [], [])
        for n in schedule:
            n = _integral(n, "step counts", 1)
            try:
                moved, moved_spec = self.step(band, n, lambda summed: (
                    np.exp(2j * np.pi * (n * rotation)) * np.exp(2j * np.pi * (summed + wave_phase))))
            except ResolutionError:
                report.unresolved.append(n)
                continue
            applied_moved = GridField(np.fft.ifftn(multiplier * moved_spec))
            degree = 2.0 * np.pi * _orbit_average_rate(self.cocycle, flow, self.points, n, self.waves)
            defect = applied_moved.values - (eigenvalue + n * degree) * moved
            # both sides vanish only where A annihilates U^N e_l; compare absolutely there
            scale = (applied_moved.norm() + abs(eigenvalue)) or 1.0
            tau = (n * n * wy / 2.0 + n * winding) * eps / 2.0
            report.horizons.append(n)
            report.residuals.append(GridField(defect).norm() / scale)
            report.estimates.append(spread * (2.0 * np.pi * tau + fft_noise) / scale + fft_noise)
        return report


def sector_apply(cocycle, flow, field, steps):
    """Apply the sector operator n times: (U^n f)(x) = e(q.phi^(n)(x)) f(x + ny).

    The translation acts spectrally on the grid and the accumulated phase is
    evaluated pointwise in closed form, so for band-limited f no error builds
    up over the steps; only the phase, which grows like n^2 |q.W y| / 2 turns,
    rounds by about n^2 |q.W y| eps / 4 turns (5e-11 at n = 512 on the
    golden-torus example).  An a-priori frequency budget, the finiteness of
    the phase and of the result, and the spectrum of the result are checked;
    any failing raises ResolutionError.
    """
    steps = _integral(steps, "step counts")
    if field.values.ndim != cocycle.d:
        raise ValueError("field dimension does not match the cocycle base")
    if steps == 0:
        return GridField(field.values.copy())
    grid = _SectorGrid(cocycle, flow, field.values.shape)
    spec = np.fft.fftn(field.values)

    def carry(summed):
        shift = np.exp(2j * np.pi * _frequency_dot(grid.freqs, steps * flow.y))
        return np.exp(2j * np.pi * summed) * np.fft.ifftn(spec * shift)

    out, _ = grid.step(_occupied_band(spec, grid.freqs), steps, carry)
    return GridField(out)


def sector_matrix(cocycle, flow, size):
    """Unitary grid truncation of the sector operator, with its conjugate.

    The operator is diag(sector phase samples) composed with the spectral
    translation, a product of two unitaries, so the pair passes the strict
    structure checks regardless of resolution.  The conjugate operator is the
    flow derivative -i y.grad, diagonal in the Fourier basis.  Faithful only
    while the relevant frequency content stays below the grid Nyquist; see
    sector_apply for the function-space route free of this limit.
    """
    if cocycle.d != 1:
        raise ValueError("matrix truncation is implemented for a one-dimensional base")
    m = int(size)
    if not _check_power_of_two(m):
        raise ValueError("truncation size must be a power of two")
    x = np.arange(m) / m
    phase = np.exp(2j * np.pi * cocycle_sum(cocycle, flow, x, 1))
    freqs = np.fft.fftfreq(m) * m
    spec = np.fft.fft(np.eye(m), axis=0)
    translate = np.fft.ifft(np.exp(2j * np.pi * freqs * flow.y[0])[:, None] * spec, axis=0)
    u = phase[:, None] * translate
    a = np.fft.ifft((2.0 * np.pi * freqs * flow.y[0])[:, None] * spec, axis=0)
    a = (a + a.conj().T) / 2.0
    return OperatorPair.discrete(u, a)


def _observable_modes(modes, d):
    """Finite Fourier data {k: coefficient} of an observable on the d-torus."""
    if not isinstance(modes, Mapping):
        raise TypeError(
            f"observables are mode dicts {{k: coefficient}}, got {type(modes).__name__}"
        )
    out = {}
    for k, c in modes.items():
        # a scalar is a one-dimensional mode
        key = (int(k),) if np.isscalar(k) else tuple(int(v) for v in k)
        if len(key) != d:
            raise ValueError(f"mode index {key} has {len(key)} components, expected {d}")
        out[key] = out.get(key, 0.0) + complex(c)
    return out


def _bessel_order(z):
    """Least M >= 0 with 2 (z/2)^(M+1) e^(z/2) / (M+1)! <= 2^-53, by bisection in O(log M) steps."""
    # the log of the bound is concave in M and above the budget at M = 0 if
    # anywhere; by (M+1)! >= ((M+1)/e)^(M+1) it is below at M + 1 >= 8 (z/2) + 38
    t = z / 2.0
    budget = math.log(2.0**-53 / 2.0) - t

    def above(order):
        return t > 0.0 and (order + 1) * math.log(t) - math.lgamma(order + 2) > budget

    low, high = -1, int(8.0 * t) + 38
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if above(mid) else (low, mid)
    return high


# terms of the power series of J_m, which halve or better where z^2 <= 2 (m + 1)
_SERIES_TERMS = 18


def _bessel_series(n, z):
    # (z/2)^n / n! sum_k (-z^2/4)^k / (k! (n+1)_k); with z^2 <= 2 (n + 1)
    # each term is at most half the one before, so the sum lies in [1/2, 1]
    orders, inverse = np.unique(n, return_inverse=True)
    log_factorial = np.fromiter(map(math.lgamma, (orders + 1.0).tolist()), float, orders.size)[inverse]
    positive = z > 0.0
    # log z - log 2, since z / 2 rounds the least subnormal to 0
    lead = np.exp(n * (np.log(np.where(positive, z, 2.0)) - math.log(2.0)) - log_factorial)
    step, term, total = -(z / 2.0) ** 2, 1.0, 1.0
    # |term k| <= ratio^k / k!, with ratio <= 1/2 the largest z^2 / (4 (n + 1));
    # once that is below 2^-60, so is the rest of the sum
    ratio, bound = float(np.max(step / -(n + 1.0), initial=0.0)), 1.0
    for k in range(1, _SERIES_TERMS):
        term = term * step / (k * (n + k))
        total = total + term
        bound *= ratio / k
        if bound < 2.0**-60:
            break
    # J_0(0) = 1 and J_n(0) = 0 exactly
    return np.where(positive, lead * total, n == 0)


# Bessel table entries, and combinations of their orders, that one _bessel_j
# or _modulation_spectrum accepts: 64 MiB of complex128
_SPECTRUM_BUDGET = 2**22


def _refuse_beyond_budget(z):
    # for M + 1 <= z/2 each factor of (z/2)^(M+1) / (M+1)! is at least 1, so
    # _bessel_order(z) > z/2 - 1 and a table holds 2 M + 1 > z - 1 entries:
    # past the budget a z is refused here, before the lgamma and int(8 t) of
    # _bessel_order overflow (from z ~ 1.3e305)
    if z > _SPECTRUM_BUDGET:
        raise ValueError(f"Bessel tables up to z = {z:.6g} need at least {z - 1.0:.4g} entries, "
                         f"beyond the budget of {_SPECTRUM_BUDGET}")


def _bessel_fft(n, z):
    # J_n(z) is the n-th Fourier coefficient of e^{i z sin theta} (DLMF
    # 10.12.1), so one FFT on P >= 2 M + 64 points, M = _bessel_order(z),
    # gives every |m| <= M, aliased only by orders beyond M, whose l1 mass is
    # below 2^-53 and which read 0
    values, inverse = np.unique(z, return_inverse=True)
    _refuse_beyond_budget(values[-1])
    orders, entries = [], 0
    # the largest z first, so that a refusal costs about one _bessel_order
    for x in values[::-1].tolist():
        orders.append(_bessel_order(x))
        entries += 2 * orders[-1] + 1
        if entries > _SPECTRUM_BUDGET:
            raise ValueError(f"Bessel tables up to z = {values[-1]:.6g} need at least {entries:.4g} entries, "
                             f"beyond the budget of {_SPECTRUM_BUDGET}")
    tables = []
    for x, order in zip(values.tolist(), orders[::-1]):
        size = 1 << (2 * order + 63).bit_length()
        wave = np.exp(1j * x * np.sin(2.0 * np.pi * np.arange(size) / size))
        # orders 0..M, then the 0 that orders beyond M read
        tables.append(np.append(np.fft.fft(wave)[:order + 1].real / size, 0.0))
    sizes = np.array([table.size for table in tables])
    start = np.cumsum(sizes) - sizes
    return np.concatenate(tables)[start[inverse] + np.minimum(n, sizes[inverse] - 1)]


def _bessel_j(order, z):
    """Bessel J_m(z) elementwise, for integer orders m and finite z >= 0 (broadcast).

    J_{-m} = (-1)^m J_m, and with n = |m|: where z^2 <= 2 (n + 1), the power
    series, each term at most half the one before, summed until the rest is
    below 2^-60 (18 terms at most) and led by (z/2)^n / n! =
    exp(n log(z/2) - lgamma(n + 1)); relative error about 1e-13, values down
    to the subnormal range kept, and J_0(0) = 1, J_n(0) = 0 exactly.
    Elsewhere, per distinct z, the FFT of e^{i z sin theta} sampled on the
    least power of two P >= 2 M + 64 points, M = _bessel_order(z): J_n(z) for
    n <= M is its n-th coefficient / P, to about eps (1 + z) absolute, and
    orders beyond M read 0.  ValueError, before any FFT, if those tables'
    entries sum_z (2 M + 1) exceed _SPECTRUM_BUDGET.
    """
    order, z = np.broadcast_arrays(np.asarray(order, dtype=np.int64), np.asarray(z, dtype=float))
    n = np.abs(order)
    out = np.empty(n.shape)
    series = z <= np.sqrt(2.0 * (n + 1))
    out[series] = _bessel_series(n[series], z[series])
    if not series.all():
        out[~series] = _bessel_fft(n[~series], z[~series])
    return np.where((order < 0) & (order % 2 == 1), -out, out)


def _bessel_coefficient(order, z, alpha):
    # i^m J_m(z) e^{i m alpha}: Jacobi-Anger coefficient of e^{i m theta} in
    # exp(i z cos(theta + alpha)), with i^m taken exactly and J_m(z) from
    # _bessel_j: a numpy power series in its regime, an FFT table beyond it
    return (
        np.array([1, 1j, -1, -1j])[np.mod(order, 4)]
        * _bessel_j(order, z)
        * np.exp(1j * order * alpha)
    )


def _lattice_bound(bound, what):
    # int64 lattice arithmetic wraps silently; refuse it where it could
    if bound >= 2**63:
        raise ValueError(f"{what} reaches {bound}, beyond the int64 lattice arithmetic (2^63)")


def _modulation_spectrum(pairs, reach):
    """Return target -> Fourier coefficient of prod_j exp(i z_j cos(2 pi k_j.x + alpha_j)).

    ``pairs`` holds (k_j, z_j, alpha_j) with z_j, alpha_j arrays over the
    steps; ``target`` is an integer array (..., steps, d) of frequencies of
    modulus at most ``reach``.  ValueError if that or a lattice product
    below can reach 2^63.
    Each target is reached from a combination of the other pairs' orders by
    one order of the pair with the largest truncation order.  With one pair
    that order's Bessel coefficient is evaluated directly and needs no
    truncation order; with several, every pair's sequence is truncated at
    _bessel_order of its largest z and read from a table.  J_m(z) comes
    from _bessel_j: the power series where z^2 <= 2 (|m| + 1), to about
    1e-13 relative with tail values down to the subnormal range kept, and
    an FFT of e^{i z sin theta} beyond it, to about eps (1 + z) absolute.
    Those orders come first: ValueError, before any table is built, if the
    table entries sum_j (2 M_j + 1) * steps or the combinations
    prod_{j != last} (2 M_j + 1) exceed _SPECTRUM_BUDGET; with one pair,
    _bessel_j applies that budget to its FFT tables.
    """
    _lattice_bound(reach, "frequency bound")
    if not pairs:
        return lambda target: np.all(target == 0, axis=-1).astype(complex)
    orders = [0]
    if len(pairs) > 1:
        tops = [float(np.max(z)) for _, z, _ in pairs]
        _refuse_beyond_budget(max(tops))
        orders = [_bessel_order(top) for top in tops]
    last = int(np.argmax(orders))
    if len(pairs) > 1:
        entries = sum(2 * order + 1 for order in orders) * pairs[0][1].size
        combinations = math.prod(2 * order + 1 for j, order in enumerate(orders) if j != last)
        if max(entries, combinations) > _SPECTRUM_BUDGET:
            raise ValueError(f"Bessel tables of orders {orders} need {entries} entries and {combinations} "
                             f"combinations, beyond the budget of {_SPECTRUM_BUDGET}")

    def table(j):
        _, z, alpha = pairs[j]
        return _bessel_coefficient(np.arange(-orders[j], orders[j] + 1)[:, None], z, alpha)

    k_last, z_last, alpha_last = pairs[last]
    norm = sum(int(v) ** 2 for v in k_last)
    others = [(pairs[j][0], orders[j], table(j)) for j in range(len(pairs)) if j != last]
    # |rest| <= rest_bound entrywise, and |m k_last| <= |rest.k_last| + norm
    rest_bound = reach + sum(order * max(abs(int(v)) for v in k) for k, order, _ in others)
    _lattice_bound(rest_bound * sum(abs(int(v)) for v in k_last) + norm, "lattice product bound")
    if others:
        last_order, last_table, columns = orders[last], table(last), np.arange(z_last.size)

        def last_coefficient(m):
            row = np.clip(m, -last_order, last_order) + last_order
            return np.where(np.abs(m) <= last_order, last_table[row, columns], 0.0)
    else:
        def last_coefficient(m):
            return _bessel_coefficient(m, z_last, alpha_last)

    def spectrum(target):
        out = np.zeros(target.shape[:-1], dtype=complex)
        for combo in itertools.product(*(range(-order, order + 1) for _, order, _ in others)):
            weight, rest = 1.0, target
            for (k, order, coefficients), m in zip(others, combo):
                weight = weight * coefficients[m + order]
                rest = rest - m * k
            m = (rest @ k_last) // norm
            hit = np.all(rest == m[..., None] * k_last, axis=-1)
            out += np.where(hit, weight * last_coefficient(np.where(hit, m, 0)), 0.0)
        return out

    return spectrum


def sector_correlation(cocycle, flow, phi, psi, horizon):
    """Correlation series <phi, U^n psi> for n = 1..horizon, in closed form.

    ``phi`` and ``psi`` are finite Fourier data {k: coefficient}, keyed as in
    GridField.from_modes; no grid is involved.  Pairing the modes +-k_j of
    q.eta into g_j = (g_k + conj(g_-k)) / 2, the sector phase is
    e(q.phi^(n)(x)) = e(n W^Tq.x + W^Tq.y n(n-1)/2 + n g_0)
    prod_j exp(i z_j cos(2 pi k_j.x + alpha_j)), where a_j = g_j S_n(k_j.y)
    with S_n the geometric phase sum, z_j = 4 pi |a_j| and alpha_j = arg a_j.
    By Jacobi-Anger (DLMF 10.12) each factor has Fourier coefficients
    i^m J_m(z_j) e^{i m alpha_j} at m k_j, so

        c_n = e(W^Tq.y n(n-1)/2 + n g_0)
              sum_{k, l} conj(phi_k) psi_l e(n l.y) E_n[k - l - n W^Tq],

    with E_n the lattice convolution of the per-pair Bessel sequences, and
    J_m(z) from _bessel_j: the numpy power series where z^2 <= 2 (|m| + 1),
    to about 1e-13 relative with tail values down to the subnormal range
    kept, and an FFT of e^{i z sin theta} beyond it, to about eps (1 + z)
    absolute.  With one pair E_n[m k_1] = i^m J_m(z_1) e^{i m alpha_1} is
    evaluated directly at the orders the targets need, with no grid.  With
    several, each pair's sequence is truncated at the least M with
    2 (z/2)^(M+1) e^(z/2) / (M+1)! <= 2^-53 for
    its largest z, which by |J_m(z)| <= (z/2)^|m| / |m|! bounds the l1 mass
    of the dropped terms by 2^-53.  The quadratic phase rounds as in
    sector_apply, by about n^2 |q.W y| eps / 4 turns.  Work is vectorised over
    n and loops over the modes of psi, in int64 lattice arithmetic: a
    frequency or lattice product whose bound reaches 2^63 raises ValueError,
    and so do Bessel tables beyond the budget of _modulation_spectrum and
    _bessel_j.
    """
    horizon = _integral(horizon, "horizons", 1)
    phi = _observable_modes(phi, cocycle.d)
    psi = _observable_modes(psi, cocycle.d)
    steps = np.arange(1, horizon + 1)
    winding = cocycle.winding
    wy = float(np.dot(winding, flow.y))
    zero_mode, pairs = 0.0, []
    modes = cocycle.modes
    for k, g in modes.items():
        mirror = tuple(-v for v in k)
        if k == mirror:
            zero_mode = g.real
        elif k > mirror:  # each pair once, from its larger member
            g_pair = (g + np.conj(modes[mirror])) / 2.0
            if g_pair != 0:
                u = float(np.dot(k, flow.y))
                a = g_pair * _geometric_phase_sum(u, steps)
                if not np.all(np.isfinite(z := 4.0 * np.pi * np.abs(a))):
                    raise ValueError(f"modulation amplitude of mode pair {k} is not finite ({g!r})")
                pairs.append((np.asarray(k), z, np.angle(a)))
    # every entry of k - l - n W^T q below is at most reach in modulus
    reach = (max((abs(v) for k in phi for v in k), default=0)
             + max((abs(v) for l in psi for v in l), default=0)
             + horizon * max(abs(int(w)) for w in winding))
    spectrum = _modulation_spectrum(pairs, reach)

    keys = np.array(list(phi), dtype=int).reshape(-1, cocycle.d)
    weights = np.conj(np.array(list(phi.values()), dtype=complex))
    offsets = keys[:, None, :] - steps[:, None] * winding
    total = np.zeros(horizon, dtype=complex)
    for l, c in psi.items():
        drift = np.exp(2j * np.pi * steps * float(np.dot(l, flow.y)))
        total += c * drift * (weights @ spectrum(offsets - np.asarray(l)))
    phase = wy * steps * (steps - 1) / 2.0 + steps * zero_mode
    return CorrelationSeries(steps, np.exp(2j * np.pi * phase) * total, "discrete")


@dataclass
class TorusDegreeReport:
    steps: int
    limit: float
    sup_error: float


def torus_degree_field(cocycle, flow, shape, steps):
    """Birkhoff average of the sector commutator symbol against its limit, on a grid.

    The symbol is multiplication by 2 pi (q.W y + y.grad(q.eta)); averaging
    along the flow leaves the constant 2 pi q.W y plus mode-wise geometric
    sums that decay in the step count when the translation is irrational.
    Returns the constant limit and the sup-norm distance of the average at
    the given horizon from it, over the grid of ``shape``: torus_degree_bound's oracle.
    """
    steps = _integral(steps, "step counts", 1)
    grid = _SectorGrid(cocycle, flow, shape)
    limit = 2.0 * np.pi * float(np.dot(cocycle.winding, flow.y))
    degree = 2.0 * np.pi * _orbit_average_rate(cocycle, flow, grid.points, steps, grid.waves)
    return TorusDegreeReport(steps=steps, limit=limit, sup_error=float(np.max(np.abs(degree - limit))))


@dataclass
class TorusDegreeBound:
    schedule: list
    limit: float
    sup_bounds: list
    l2_errors: list
    rate_constant: float


def torus_degree_bound(cocycle, flow, schedule):
    """Certified distance of D_N = 2 pi rate_N from its limit D = 2 pi q.W y, with no grid.

    D_N - D has the coefficient c_k(N) = (2 pi)^2 i (k.y) g_k S_N(k.y) / N on e(k.x) per
    nonzero mode g_k e(k.x) of q.eta.  Per horizon of ``schedule``, ``sup_bounds`` holds
    sum_k |c_k(N)| >= ||D_N - D||_inf (equal for one conjugate pair on a one-dimensional base)
    and ``l2_errors`` sqrt(sum_k |c_k(N)|^2) = ||D_N - D||_L2 (Parseval).  ``rate_constant``
    C = (2 pi)^2 sum_k |k.y| |g_k| / |sin pi k.y| >= N sum_k |c_k(N)|, as |S_N(u)| <= 1/|sin pi u|:
    a finite C certifies the O(1/N) rate; k.y = 0 adds nothing, a nonzero integer k.y makes C inf.
    """
    schedule = [_integral(n, "step counts", 1) for n in schedule]
    moduli = [2.0 * np.pi * np.abs(list(_rate_coefficients(cocycle, flow, n).values())) for n in schedule]
    rate_constant = 0.0
    for _, u, g, _ in _phase_sums(cocycle, flow, 1):
        if u:
            # sin pi (u - round(u)) keeps its precision near an integer, and is 0 only at one
            s = abs(math.sin(math.pi * (u - round(u))))
            rate_constant += (2.0 * np.pi) ** 2 * abs(u) * abs(g) / s if s else math.inf
    return TorusDegreeBound(schedule, 2.0 * np.pi * float(np.dot(cocycle.winding, flow.y)),
                            [float(np.sum(m)) for m in moduli], [float(np.sqrt(np.sum(m * m))) for m in moduli],
                            rate_constant)


@dataclass
class SectorIdentityReport:
    # one residual and estimate per resolved horizon, in schedule order
    horizons: list
    residuals: list
    estimates: list
    unresolved: list


def sector_identity_check(cocycle, flow, mode, shape, schedule):
    """The identity [A, U^N] e_l = N D_N U^N e_l of the sector operator, in function space.

    A = -i y.grad has the multiplier 2 pi k.y on e(k.x) and
    U^N f = e(q.phi^(N)) f(. + Ny), so [A, U^N] f = 2 pi (y.grad q.phi^(N)) U^N f,
    where y.grad q.phi^(N) is N times the orbit average rate_N of
    q.W y + y.grad(q.eta): D_N is multiplication by 2 pi rate_N, which
    _orbit_average_rate gives in closed form.  The test vector is the Fourier
    mode e_l of the integer vector ``mode``: A e_l = lambda e_l with
    lambda = 2 pi l.y, so U^N e_l gives U^N A e_l too (any field would only
    weight the same pointwise defect by |U^N f|^2, as A commutes with
    translations).  Each component l_i must lie in [-m_i/2, m_i/2), the band
    in which the grid of axis size m_i holds e_l itself; a mode past it, which
    the grid holds as an alias e_l' with A e_l' = 2 pi l'.y e_l', raises
    ValueError naming the mode, its alias and the shape.
    U^N e_l = e(N l.y) e(q.phi^(N) + l.x) is formed pointwise, the scalar
    e(N l.y) apart from the exponent, with the checks of sector_apply at
    each horizon of ``schedule``; it equals sector_apply of e_l to roundoff.
    The report holds,
    on the grid of ``shape``,
    ||A U^N e_l - lambda U^N e_l - N D_N U^N e_l|| / (||A U^N e_l|| + |lambda|),
    with its roundoff estimate.  The phase of U^N e_l rounds by
    tau_N = (N^2 |q.W y| / 2 + N |W^T q|_1) eps / 2 turns (the unwrapped
    phase as sector_apply sums it; l.x in the exponent adds at most
    |l|_1 eps / 2 turns), and each FFT pair by about log2(P) eps
    relative, P the number of grid points.  A multiplies that pointwise
    noise by 2 pi w in the mean square, w = sqrt(sum_i (y_i m_i)^2 / 12) over
    the axis sizes m_i, so with ||e_l|| = 1 the estimate is
    2 pi w (2 pi tau_N + log2(P) eps) / scale + log2(P) eps.  A horizon at
    which sector_apply raises ResolutionError goes to ``unresolved`` instead.
    Each resolved horizon takes one grid exponential and one FFT pair: the
    band check transforms U^N e_l, and A acts on that spectrum.
    """
    return _SectorGrid(cocycle, flow, shape).identity_check(mode, schedule)


def su2_irrep(label, g):
    """Matrix of a special-unitary 2x2 element in the spin-n/2 representation.

    Acts on the orthonormalized monomial basis e_k = z1^k z2^(n-k) /
    sqrt(k!(n-k)!) of homogeneous degree-n polynomials via (pi(g)f)(z) =
    f(g^T z).  Diagonal inputs map to diag(e^{i(2k-n)theta}), and the
    assignment is a unitary representation for every n.
    """
    n = int(label)
    if n < 0:
        raise ValueError("representation label must be a nonnegative integer")
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError("group element must be a 2x2 matrix")
    check_structure(g, "special-unitary", 1e-10, "group element")
    a, b = g[0, 0], g[0, 1]
    c, d = g[1, 0], g[1, 1]
    out = np.zeros((n + 1, n + 1), dtype=complex)
    fact = [math.factorial(j) for j in range(n + 1)]
    for ell in range(n + 1):
        for k in range(n + 1):
            acc = 0.0 + 0.0j
            for i in range(max(0, k + ell - n), min(k, ell) + 1):
                acc += (
                    math.comb(k, i)
                    * math.comb(n - k, ell - i)
                    * a**i
                    * c ** (k - i)
                    * b ** (ell - i)
                    * d ** (n - k - ell + i)
                )
            scale = math.sqrt(fact[ell] * fact[n - ell] / (fact[k] * fact[n - k]))
            out[ell, k] = scale * acc
    return out


class SU2Cocycle:
    """Conjugated-diagonal SU(2) cocycle h diag(e(theta), e(-theta)) h*.

    theta(x) = b.x + eta(x) with an integer frequency vector b != 0 and a
    real trigonometric perturbation eta given by finite Fourier data.  The
    fixed conjugator h makes accumulated cocycle products collapse to summed
    angles in the same frame, which the matrix Birkhoff machinery exploits.
    """

    def __init__(self, conjugator, frequency, modes, label):
        h = np.asarray(conjugator, dtype=complex)
        if h.shape != (2, 2):
            raise ValueError("conjugator must be a 2x2 matrix")
        check_structure(h, "special-unitary", 1e-12, "conjugator")
        self.conjugator = h
        self.frequency = _integer_vector(frequency, "frequency")
        if not np.any(self.frequency):
            raise ValueError("frequency must be a nonzero integer vector")
        self.label = int(label)
        if self.label < 0:
            raise ValueError("representation label must be nonnegative")
        self.angle = TorusCocycle(self.frequency, modes)

    @property
    def d(self):
        return self.frequency.size

    def angle_value(self, x):
        """theta(x) = b.x + eta(x), unwrapped."""
        return _dot(x, self.frequency) + self.angle.eta(x)

    def value(self, x):
        """Cocycle matrix at a single point."""
        theta = float(self.angle_value(np.asarray(x, dtype=float)))
        diag = np.diag(np.exp(2j * np.pi * theta * np.array([1.0, -1.0])))
        return self.conjugator @ diag @ self.conjugator.conj().T

    def representation_value(self, x):
        return su2_irrep(self.label, self.value(x))

    def accumulated_representation(self, flow, x, n):
        """pi(phi^(n)(x)) in closed form: conjugated diagonal of summed angles."""
        theta = float(cocycle_sum(self.angle, flow, np.asarray(x, dtype=float), n))
        weights = 2 * np.arange(self.label + 1) - self.label
        pih = su2_irrep(self.label, self.conjugator)
        return (pih * np.exp(2j * np.pi * theta * weights)) @ pih.conj().T


@dataclass
class SU2DegreeReport:
    # the matrix field is rate[..., None, None] * frame, rate grid-shaped
    steps: int
    rate: np.ndarray
    frame: np.ndarray
    limit_estimate: np.ndarray
    eigenvalues: np.ndarray
    predicted_eigenvalues: np.ndarray
    kernel_dim: int
    sup_deviation: float


def su2_degree_field(cocycle, flow, shape, steps, kernel_tol=1e-8):
    """Matrix-valued Birkhoff average of the representation-sector symbol.

    At each grid point the commutator symbol is the conjugated weight matrix
    frame = pi(h) diag(2 pi (2k-n)) pi(h)* times the scalar rate
    y.b + y.grad eta, transported along the orbit by the accumulated cocycle
    pi(h) diag(e(theta_m (2k-n))) pi(h)* in the representation.  Transport and
    frame are diagonal in the same pi(h) frame, so the transport cancels and
    each term equals rate(F_m x) * frame: the average is exactly frame times
    the scalar orbit average of the rate, a finite sum of geometric series,
    for any step count.  The limit estimate is the grid mean of the rate
    times the frame, so the sup deviation is max|rate - mean| ||frame||.  For
    this conjugated-diagonal model family the limit has eigenvalues
    2 pi (y.b) (2k-n), so its kernel is one-dimensional exactly for even n.
    """
    steps = _integral(steps, "step counts", 1)
    shape = tuple(int(m) for m in shape)
    if len(shape) != cocycle.d:
        raise ValueError("grid dimension does not match the cocycle base")
    n = cocycle.label
    pih = su2_irrep(n, cocycle.conjugator)
    weights = 2 * np.arange(n + 1) - n
    frame = (pih * (2.0 * np.pi * weights)) @ pih.conj().T
    rate = _orbit_average_rate(cocycle.angle, flow, unit_grid(shape), steps).real
    mean = float(rate.mean())
    limit = mean * (frame + frame.conj().T) / 2.0
    eigvals = np.linalg.eigvalsh(limit)
    kernel_dim = int(np.count_nonzero(_kernel_mask(eigvals, kernel_tol)))
    sup_dev = float(np.max(np.abs(rate - mean))) * spectral_norm(frame)
    predicted = np.sort(2.0 * np.pi * float(np.dot(cocycle.frequency, flow.y)) * weights)
    return SU2DegreeReport(
        steps=steps,
        rate=rate,
        frame=frame,
        limit_estimate=limit,
        eigenvalues=eigvals,
        predicted_eigenvalues=predicted,
        kernel_dim=kernel_dim,
        sup_deviation=sup_dev,
    )


def su2_degree_bound(cocycle, flow, schedule):
    """The angle cocycle's torus_degree_bound times the label n: D_N - D in operator norm.

    D_N - D = (rate_N - y.b) frame (su2_degree_field), ||frame|| = 2 pi n, and D has the eigenvalues
    2 pi (y.b)(2k - n), ``limit`` times the weights.  Label 0 has frame 0 and every bound 0, not 0 * inf.
    """
    n, bound = cocycle.label, torus_degree_bound(cocycle.angle, flow, schedule)
    scale = (lambda v: n * v) if n else (lambda v: 0.0)
    return TorusDegreeBound(bound.schedule, bound.limit, [scale(v) for v in bound.sup_bounds],
                            [scale(v) for v in bound.l2_errors], scale(bound.rate_constant))


@dataclass(frozen=True)
class ShiftModel:
    pair: OperatorPair
    interior: np.ndarray
    window: int
    margin: int


def shift_weyl_model(window, margin):
    """Cyclic shift with a centered position diagonal, plus its interior.

    The cyclic closure keeps the shift exactly unitary; the price is a single
    seam where the position diagonal wraps, so the canonical commutation
    pattern [A,U]U* = I holds on all rows except the seam.  The interior
    keeps ``margin`` indices away from the seam at both ends, and the Weyl
    phase relation holds for vectors supported there as long as the steps do
    not push the support across the seam.
    """
    w = int(window)
    margin = int(margin)
    if w < 4:
        raise ValueError("window must be at least 4")
    if margin < 0 or margin >= w // 2:
        raise ValueError("margin must satisfy 0 <= margin < window/2")
    u = np.zeros((w, w))
    u[(np.arange(w) + 1) % w, np.arange(w)] = 1.0
    a = np.diag(np.arange(w) - w // 2).astype(float)
    interior = np.arange(margin, w - margin)
    return ShiftModel(pair=OperatorPair.discrete(u, a), interior=interior, window=w, margin=margin)
