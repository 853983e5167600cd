"""Skew-product models over torus translations.

Concrete builders for the worked examples: abelian sector operators driven by
a winding-plus-perturbation cocycle, their scalar degree fields, SU(2)-valued
cocycles with matrix degree fields, and the cyclic shift/position pair.

Sector operators are applied function-analytically on periodic grids, where
their commutator identity is checked too; the matrix truncation serves the
Fourier calculus and is a cross-check in the tests.  All grid
resolutions are powers of two so spectral interpolation is exact on
band-limited data.  Sector correlation series need no grid: they are summed
in closed form from the Fourier data of the observables.
"""

from __future__ import annotations

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
from .operators import _integral, _kernel_mask, check_structure, spectral_norm

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
    "SectorIdentityReport",
    "sector_identity_check",
    "su2_irrep",
    "SU2Cocycle",
    "SU2DegreeReport",
    "su2_degree_field",
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


def _mode_key(k):
    """A Fourier mode index as a tuple of ints; a scalar is a one-dimensional mode."""
    return (int(k),) if np.isscalar(k) else tuple(int(v) for v in k)


class GridField:
    """Complex samples on a uniform periodic grid, power-of-two per axis."""

    def __init__(self, values):
        v = np.asarray(values, dtype=complex)
        if v.ndim < 1:
            raise ValueError("field values must have at least one axis")
        for m in v.shape:
            if not _check_power_of_two(m):
                raise ValueError(f"grid sizes must be powers of two, got {v.shape}")
        self.values = v

    @property
    def shape(self):
        return self.values.shape

    @classmethod
    def from_modes(cls, modes, shape):
        shape = tuple(int(m) for m in shape)
        coords = unit_grid(shape)
        vals = np.zeros(shape, dtype=complex)
        for k, c in _observable_modes(modes, len(shape)).items():
            if len(shape) == 1:
                phase = k[0] * coords
            else:
                phase = coords @ np.asarray(k, dtype=float)
            vals += c * np.exp(2j * np.pi * phase)
        return cls(vals)

    def shift(self, delta):
        """Translated field x -> f(x + delta), exact on band-limited data."""
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        if delta.size != self.values.ndim:
            raise ValueError("shift vector dimension mismatch")
        spec = np.fft.fftn(self.values)
        return GridField(np.fft.ifftn(spec * _translation(_frequencies(spec.shape), delta)))

    def mean(self):
        return complex(self.values.mean())

    def inner(self, other):
        if self.values.shape != other.values.shape:
            raise ValueError("field shapes differ")
        return complex(np.vdot(self.values, other.values) / self.values.size)

    def norm(self):
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def occupied_band(self):
        """Per-axis largest |frequency| carrying relative weight above 1e-8."""
        return _occupied_band(np.fft.fftn(self.values), _frequencies(self.values.shape))

    def refine(self, factor):
        """Spectral upsampling by a power-of-two factor (Nyquist bins split)."""
        factor = int(factor)
        if factor < 1 or (factor & (factor - 1)):
            raise ValueError("refinement factor must be a power of two")
        if factor == 1:
            return GridField(self.values.copy())
        coeff = np.fft.fftn(self.values) / self.values.size
        for axis in range(coeff.ndim):
            coeff = _pad_modes(coeff, axis, self.values.shape[axis] * factor)
        return GridField(np.fft.ifftn(coeff) * coeff.size)


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


def _translation(freqs, delta):
    """Spectral multiplier exp(2 pi i k.delta) over the frequency table ``freqs``."""
    return np.exp(2j * np.pi * _frequency_dot(freqs, delta))


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


def _pad_modes(coeff, axis, new_len):
    old = coeff.shape[axis]
    shifted = np.fft.fftshift(coeff, axes=axis)
    lo = (new_len - old) // 2
    widths = [(0, 0)] * coeff.ndim
    widths[axis] = (lo, new_len - old - lo)
    padded = np.pad(shifted, widths)
    # the old -m/2 bin represents both Nyquist frequencies; split it
    take = [slice(None)] * coeff.ndim
    put = [slice(None)] * coeff.ndim
    take[axis] = lo
    put[axis] = lo + old
    padded[tuple(put)] = padded[tuple(take)] / 2.0
    padded[tuple(take)] = padded[tuple(take)] / 2.0
    return np.fft.ifftshift(padded, axes=axis)


class TorusCocycle:
    """Additive cocycle generator phi(x) = W x + eta(x) paired with a sector.

    ``winding`` is an integer r-by-d matrix, ``modes`` the finite Fourier data
    of the periodic perturbation eta: T^d -> R^r (Hermitian-symmetric, so eta
    is real), and ``sector`` an integer vector picking the character q under
    which the sector operator acts.  Only the scalar combination q.phi enters
    any computation here.
    """

    def __init__(self, winding, modes, sector):
        w = np.asarray(winding)
        if w.ndim != 2:
            raise ValueError("winding must be a matrix")
        if not np.all(w == np.round(w)):
            raise ValueError("winding matrix must have integer entries")
        self.winding = w.astype(int)
        self.r, self.d = self.winding.shape
        q = np.atleast_1d(np.asarray(sector))
        if q.shape != (self.r,) or not np.all(q == np.round(q)):
            raise ValueError(f"sector must be an integer vector of length {self.r}")
        self.sector = q.astype(int)

        parsed = {}
        for k, c in (modes or {}).items():
            key = _mode_key(k)
            if len(key) != self.d:
                raise ValueError("mode frequency dimension does not match the base torus")
            vec = np.atleast_1d(np.asarray(c, dtype=complex))
            if vec.shape != (self.r,):
                raise ValueError(f"mode coefficients must be vectors of length {self.r}")
            parsed[key] = vec
        for k, c in parsed.items():
            mk = tuple(-v for v in k)
            if mk not in parsed or not np.allclose(parsed[mk], np.conj(c), atol=1e-12):
                raise StructureError(
                    "perturbation coefficients must be Hermitian-symmetric "
                    f"(missing or inconsistent mirror of mode {k})"
                )
        self.modes = parsed

    @property
    def sector_winding(self):
        """Integer vector W^T q: the winding seen by the chosen sector."""
        return self.winding.T @ self.sector

    def sector_modes(self):
        """Fourier data of the scalar q.eta."""
        return {k: complex(self.sector @ c) for k, c in self.modes.items()}

    def _dot_base(self, x, vec):
        x = np.asarray(x, dtype=float)
        if self.d == 1:
            return x * float(vec[0])
        if x.shape[-1:] != (self.d,):
            raise ValueError(f"points must have a trailing axis of length {self.d}")
        return x @ np.asarray(vec, dtype=float)

    def eta(self, x):
        """Perturbation values eta(x), shape = points shape + (r,)."""
        x = np.asarray(x, dtype=float)
        base_shape = x.shape if self.d == 1 else x.shape[:-1]
        out = np.zeros(base_shape + (self.r,), dtype=complex)
        for k, c in self.modes.items():
            phase = np.exp(2j * np.pi * self._dot_base(x, np.asarray(k)))
            out += phase[..., None] * c
        return out.real


def _geometric_phase_sum(u, n):
    # sum_{j=0}^{n-1} exp(2 pi i j u); closed form away from integer u
    s = math.sin(math.pi * u)
    if abs(s) < 1e-9:
        return complex(np.sum(np.exp(2j * np.pi * u * np.arange(n))))
    return np.exp(1j * np.pi * (n - 1) * u) * math.sin(math.pi * n * u) / s


def _cocycle_terms(cocycle, flow, x):
    # the parts of q.phi^(n)(x) that do not depend on n: x.W^T q, and per
    # perturbation mode its rotation number k.y, amplitude g and factor e(k.x)
    modes = [
        (float(np.dot(k, flow.y)), g, np.exp(2j * np.pi * cocycle._dot_base(x, np.asarray(k))))
        for k, g in cocycle.sector_modes().items()
        if g != 0
    ]
    return cocycle._dot_base(x, cocycle.sector_winding), modes


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
        base_shape = x.shape if cocycle.d == 1 else x.shape[:-1]
        return np.zeros(base_shape)
    if n < 0:
        return -cocycle_sum(cocycle, flow, flow.advance(x, n), -n)
    base, modes = _cocycle_terms(cocycle, flow, x)
    wy = float(np.dot(cocycle.sector_winding, flow.y))
    lin = n * base + wy * n * (n - 1) / 2.0
    osc = np.zeros_like(lin, dtype=complex)
    for u, g, factor in modes:
        osc += g * _geometric_phase_sum(u, n) * factor
    return lin + osc.real


def _modulation_margin(cocycle, flow, steps):
    # spectral spread of exp(2 pi i q.eta-cocycle-sum): each base mode of
    # amplitude beta radians scatters onto harmonics, negligible beyond
    # roughly |k|*(beta + 8)
    margin = np.zeros(cocycle.d, dtype=int)
    for k, g in cocycle.sector_modes().items():
        if g == 0:
            continue
        u = float(np.dot(k, flow.y))
        s = abs(math.sin(math.pi * u))
        envelope = abs(steps) if s < 1e-9 else min(abs(steps), 1.0 / s)
        beta = 2.0 * np.pi * abs(g) * envelope
        margin += np.abs(np.asarray(k)) * int(math.ceil(beta + 8.0))
    return margin


def _orbit_average_rate(cocycle, flow, points, steps):
    """(1/N) sum_{m<N} of the sector rate q.W y + y.grad(q.eta) at F_m x, in closed form.

    The constant q.W y averages to itself; a mode g e(k.x) of q.eta has rate
    2 pi i (k.y) g e(k.x), and along the orbit e(k.F_m x) = e(k.x) e(m k.y),
    so its average is that rate times the mean geometric phase sum.  Works
    on any array of points, grid or not.
    """
    base, modes = _cocycle_terms(cocycle, flow, points)
    rate = np.full(base.shape, float(np.dot(cocycle.sector_winding, flow.y)), dtype=complex)
    for u, g, factor in modes:
        rate += (2j * np.pi * u * g) * (_geometric_phase_sum(u, steps) / steps) * factor
    return rate


def sector_apply(cocycle, flow, field, steps):
    """Apply the sector operator n times: (U^n f)(x) = e(q.phi^(n)(x)) f(x + ny).

    The translation acts spectrally on the grid and the accumulated phase is
    evaluated pointwise in closed form, so for band-limited f no error builds
    up over the steps; only the phase, which grows like n^2 |q.W y| / 2 turns,
    rounds by about n^2 |q.W y| eps / 4 turns (5e-11 at n = 512 on the
    golden-torus example).  Both an a-priori frequency budget and the
    spectrum of the result are checked; either failing raises ResolutionError.
    """
    steps = _integral(steps, "step counts")
    if field.values.ndim != cocycle.d:
        raise ValueError("field dimension does not match the cocycle base")
    if steps == 0:
        return GridField(field.values.copy())
    shape = field.values.shape
    freqs = _frequencies(shape)
    spec = np.fft.fftn(field.values)
    band = _occupied_band(spec, freqs)
    shift_freq = steps * cocycle.sector_winding
    margin = _modulation_margin(cocycle, flow, steps)
    for i, m in enumerate(shape):
        needed = abs(int(shift_freq[i])) + band[i] + int(margin[i])
        if needed >= m // 2:
            raise ResolutionError(
                f"axis {i}: predicted bandwidth {needed} at {steps} steps exceeds "
                f"the grid Nyquist {m // 2}; enlarge the grid or reduce the step count"
            )
    summed = cocycle_sum(cocycle, flow, unit_grid(shape), steps)
    moved = np.fft.ifftn(spec * _translation(freqs, steps * flow.y))
    out = np.exp(2j * np.pi * summed) * moved
    out_band = _occupied_band(np.fft.fftn(out), freqs)
    for i, m in enumerate(shape):
        if out_band[i] >= m // 2 - m // 16:
            raise ResolutionError(
                f"axis {i}: result occupies the top of the resolvable band "
                f"({out_band[i]} of {m // 2}) at {steps} steps; aliasing suspected"
            )
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
        key = _mode_key(k)
        if len(key) != d:
            raise ValueError(f"mode index {key} has {len(key)} components, expected {d}")
        out[key] = out.get(key, 0.0) + complex(c)
    return out


def _bessel_order(z):
    """Least M >= 0 with 2 (z/2)^(M+1) e^(z/2) / (M+1)! <= 2^-53."""
    t = z / 2.0
    if t == 0.0:
        return 0
    budget = math.log(2.0**-53 / 2.0) - t
    order = 0
    while (order + 1) * math.log(t) - math.lgamma(order + 2) > budget:
        order += 1
    return order


def _bessel_coefficient(order, z, alpha):
    # i^m J_m(z) e^{i m alpha}: Jacobi-Anger coefficient of e^{i m theta} in
    # exp(i z cos(theta + alpha)), with i^m taken exactly; scipy is imported
    # here so that importing commix does not load it
    from scipy import special

    return (
        np.array([1, 1j, -1, -1j])[np.mod(order, 4)]
        * special.jv(order, z)
        * np.exp(1j * order * alpha)
    )


def _modulation_spectrum(pairs):
    """Return target -> Fourier coefficient of prod_j exp(i z_j cos(2 pi k_j.x + alpha_j)).

    ``pairs`` holds (k_j, z_j, alpha_j) with z_j, alpha_j arrays over the
    steps; ``target`` is an integer array (..., steps, d) of frequencies.
    Each target is reached from a combination of the other pairs' orders by
    one order of the pair with the largest truncation order.  With one pair
    that order's Bessel coefficient is evaluated directly, which is exact;
    with several, every pair's sequence is truncated at _bessel_order of its
    largest z and read from a table.
    """
    if not pairs:
        return lambda target: np.all(target == 0, axis=-1).astype(complex)
    orders = [_bessel_order(float(np.max(z))) for _, z, _ in pairs]

    def table(j):
        _, z, alpha = pairs[j]
        return _bessel_coefficient(np.arange(-orders[j], orders[j] + 1)[:, None], z, alpha)

    last = int(np.argmax(orders))
    k_last, z_last, alpha_last = pairs[last]
    norm = int(k_last @ k_last)
    others = [(pairs[j][0], orders[j], table(j)) for j in range(len(pairs)) if j != last]
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

    with E_n the lattice convolution of the per-pair Bessel sequences.  With
    one pair E_n[m k_1] = i^m J_m(z_1) e^{i m alpha_1} is evaluated directly:
    no truncation and no grid.  With several, each pair's sequence is
    truncated at the least M with 2 (z/2)^(M+1) e^(z/2) / (M+1)! <= 2^-53 for
    its largest z, which by |J_m(z)| <= (z/2)^|m| / |m|! bounds the l1 mass
    of the dropped terms by 2^-53.  The quadratic phase rounds as in
    sector_apply, by about n^2 |q.W y| eps / 4 turns.  Work is vectorised over
    n and loops over the modes of psi.
    """
    horizon = _integral(horizon, "horizons", 1)
    phi = _observable_modes(phi, cocycle.d)
    psi = _observable_modes(psi, cocycle.d)
    steps = np.arange(1, horizon + 1)
    winding = cocycle.sector_winding
    wy = float(np.dot(winding, flow.y))
    zero_mode, pairs = 0.0, []
    modes = cocycle.sector_modes()
    for k, g in modes.items():
        mirror = tuple(-v for v in k)
        if k == mirror:
            zero_mode = g.real
        elif k > mirror:  # each pair once, from its larger member
            g_pair = (g + np.conj(modes[mirror])) / 2.0
            if g_pair != 0:
                u = float(np.dot(k, flow.y))
                a = g_pair * np.array([_geometric_phase_sum(u, n) for n in steps])
                pairs.append((np.asarray(k), 4.0 * np.pi * np.abs(a), np.angle(a)))
    spectrum = _modulation_spectrum(pairs)

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
    field: GridField
    limit: float
    sup_error: float


def torus_degree_field(cocycle, flow, shape, steps):
    """Birkhoff average of the sector commutator symbol, as a grid field.

    The symbol is multiplication by 2 pi (q.W y + y.grad(q.eta)); averaging
    along the flow leaves the constant 2 pi q.W y plus mode-wise geometric
    sums that decay in the step count when the translation is irrational.
    Returns the field at the given horizon together with the constant limit
    and the sup-norm distance between them.
    """
    steps = _integral(steps, "step counts", 1)
    shape = tuple(int(m) for m in shape)
    if len(shape) != cocycle.d:
        raise ValueError("grid dimension does not match the cocycle base")
    limit = 2.0 * np.pi * float(np.dot(cocycle.sector_winding, flow.y))
    vals = 2.0 * np.pi * _orbit_average_rate(cocycle, flow, unit_grid(shape), steps)
    field = GridField(vals)
    sup_error = float(np.max(np.abs(vals - limit)))
    return TorusDegreeReport(steps=steps, field=field, limit=limit, sup_error=sup_error)


@dataclass
class SectorIdentityReport:
    # one residual and estimate per resolved horizon, in schedule order
    horizons: list
    residuals: list
    estimates: list
    unresolved: list


def sector_identity_check(cocycle, flow, modes, shape, schedule):
    """The identity [A, U^N] f = N D_N U^N f of the sector operator, in function space.

    A = -i y.grad has the multiplier 2 pi k.y on e(k.x) and
    U^N f = e(q.phi^(N)) f(. + Ny), so [A, U^N] f = 2 pi (y.grad q.phi^(N)) U^N f,
    where y.grad q.phi^(N) is N times the orbit average rate_N of
    q.W y + y.grad(q.eta): D_N is multiplication by 2 pi rate_N.  At every
    horizon of ``schedule`` the band-limited field f with Fourier data
    ``modes`` and Af go through sector_apply, A acts on U^N f spectrally, and
    the report holds the relative L2 residual on the grid of ``shape``,
    ||A U^N f - U^N A f - N D_N U^N f|| / (||A U^N f|| + ||U^N A f||), with
    its roundoff estimate.  The phase of U^N f rounds by
    tau_N = (N^2 |q.W y| / 2 + N |W^T q|_1) eps / 2 turns (the unwrapped
    phase as sector_apply sums it), and each FFT pair by about log2(P) eps
    relative, P the number of grid points.  A multiplies that pointwise
    noise by 2 pi w in the mean square, w = sqrt(sum_i (y_i m_i)^2 / 12) over
    the axis sizes m_i, so the estimate is
    2 pi w (2 pi tau_N + log2(P) eps) ||f|| / scale + log2(P) eps.
    A horizon at which sector_apply raises ResolutionError goes to
    ``unresolved`` instead.
    """
    shape = tuple(int(m) for m in shape)
    if len(shape) != cocycle.d:
        raise ValueError("grid dimension does not match the cocycle base")
    modes = _observable_modes(modes, cocycle.d)
    field = GridField.from_modes(modes, shape)
    applied = GridField.from_modes(
        {k: 2.0 * np.pi * float(np.dot(k, flow.y)) * c for k, c in modes.items()}, shape)
    multiplier = 2.0 * np.pi * _frequency_dot(_frequencies(shape), flow.y)
    points = unit_grid(shape)
    eps = np.finfo(float).eps
    fft_noise = math.log2(field.values.size) * eps
    spread = 2.0 * np.pi * math.sqrt(sum((y * m) ** 2 for y, m in zip(flow.y, shape)) / 12.0)
    wy = abs(float(np.dot(cocycle.sector_winding, flow.y)))
    winding = float(np.abs(cocycle.sector_winding).sum())
    size = field.norm()
    report = SectorIdentityReport([], [], [], [])
    for n in schedule:
        n = _integral(n, "step counts", 1)
        try:
            moved = sector_apply(cocycle, flow, field, n)
            moved_applied = sector_apply(cocycle, flow, applied, n)
        except ResolutionError:
            report.unresolved.append(n)
            continue
        applied_moved = GridField(np.fft.ifftn(multiplier * np.fft.fftn(moved.values)))
        degree = 2.0 * np.pi * _orbit_average_rate(cocycle, flow, points, n)
        defect = applied_moved.values - moved_applied.values - n * degree * moved.values
        # both sides vanish only for a field A annihilates; compare absolutely there
        scale = (applied_moved.norm() + moved_applied.norm()) or 1.0
        tau = (n * n * wy / 2.0 + n * winding) * eps / 2.0
        report.horizons.append(n)
        report.residuals.append(GridField(defect).norm() / scale)
        report.estimates.append(spread * (2.0 * np.pi * tau + fft_noise) * size / scale + fft_noise)
    return report


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
        b = np.atleast_1d(np.asarray(frequency))
        if not np.all(b == np.round(b)) or not np.any(b):
            raise ValueError("frequency must be a nonzero integer vector")
        self.frequency = b.astype(int)
        self.label = int(label)
        if self.label < 0:
            raise ValueError("representation label must be nonnegative")
        scalar_modes = {}
        for k, c in (modes or {}).items():
            scalar_modes[_mode_key(k)] = (complex(c),)
        self.angle = TorusCocycle(self.frequency[None, :], scalar_modes, (1,))

    @property
    def d(self):
        return self.frequency.size

    def angle_value(self, x):
        """theta(x) = b.x + eta(x), unwrapped."""
        return self.angle._dot_base(x, self.frequency) + self.angle.eta(x)[..., 0]

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
