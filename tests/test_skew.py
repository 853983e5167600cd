"""Torus and SU(2) skew products, sector transfer operators, and the shift seam model."""

import contextlib
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commix import (
    GridField,
    OperatorPair,
    ResolutionError,
    SpectralCutWarning,
    SU2Cocycle,
    RationalApproximationWarning,
    StructureError,
    TorusCocycle,
    TorusFlow,
    cocycle_sum,
    degree_identity_check,
    estimate_degree,
    max_norm,
    sector_apply,
    sector_correlation,
    sector_identity_check,
    sector_matrix,
    shift_weyl_model,
    skew,
    su2_degree_bound,
    su2_degree_field,
    su2_irrep,
    torus_degree_bound,
    torus_degree_field,
    unit_grid,
    unitary_symbol,
)
from commix.skew import (
    _bessel_j,
    _bessel_order,
    _frequencies,
    _geometric_phase_sum,
    _occupied_band,
    _orbit_average_rate,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
SILVER = np.sqrt(2.0) - 1.0


def golden_flow():
    return TorusFlow([GOLDEN])


def sector_cocycle(winding, eta, charge):
    """The scalar cocycle that the sector of ``charge`` sees of a one-row winding and scalar eta."""
    return TorusCocycle(np.multiply(charge, winding), {k: charge * c for k, c in eta.items()})


def standard_cocycle():
    # winding 2, sector charge 3, one smooth mode pair
    return sector_cocycle([2], {(1,): -0.025j, (-1,): 0.025j}, 3)


def sector_eta(z):
    # q.eta for the standard cocycle: charge 3 against modes +-0.025j
    return 3 * 2 * np.real(-0.025j * np.exp(2j * np.pi * z))


def sector_phase(z):
    return 6 * z + sector_eta(z)


def test_flow_validation_and_advance():
    with pytest.raises(ValueError):
        TorusFlow([1.2])
    with pytest.raises(ValueError):
        TorusFlow([0.0])
    with pytest.warns(RationalApproximationWarning):
        TorusFlow([0.25])
    flow = golden_flow()
    out = flow.advance(np.array([0.9]), 1)
    assert 0.0 <= float(out[0]) < 1.0
    assert float(out[0]) == pytest.approx((0.9 + GOLDEN) % 1.0)


def occupied_band(field):
    # the band rule sector_apply applies to its input and its result
    return _occupied_band(np.fft.fftn(field.values), _frequencies(field.values.shape))


def test_grid_field_sampling_and_shift():
    f = GridField.from_modes({(3,): 1 + 0.5j, (-3,): 1 - 0.5j, (0,): 0.2}, (64,))
    xs = np.arange(64) / 64
    direct = 0.2 + 2 * np.real((1 + 0.5j) * np.exp(2j * np.pi * 3 * xs))
    assert np.max(np.abs(f.values - direct)) <= 1e-12
    # under a cocycle with no winding and no eta, one sector step is the
    # spectral translation by y alone
    shifted = sector_apply(TorusCocycle([0], {}), golden_flow(), f, 1)
    direct_sh = 0.2 + 2 * np.real((1 + 0.5j) * np.exp(2j * np.pi * 3 * (xs + GOLDEN)))
    assert np.max(np.abs(shifted.values - direct_sh)) <= 1e-12
    assert abs(f.inner(f) - f.norm() ** 2) <= 1e-12
    assert occupied_band(f) == [3]
    with pytest.raises(ValueError):
        GridField(np.zeros(48))


def test_subnormal_field_has_empty_band_and_steps():
    # FFT roundoff of subnormal samples is as large as the samples themselves
    tiny = GridField.from_modes({(1,): 5e-324}, (1024,))
    assert occupied_band(tiny) == [0]
    assert occupied_band(GridField.from_modes({(1,): 1e-300}, (1024,))) == [1]
    moved = sector_apply(TorusCocycle([6], {}), golden_flow(), tiny, 1)
    assert np.max(np.abs(moved.values)) <= 1e-300


def spectral_upsample(values, factor):
    """Samples of the trigonometric interpolant of 1-D ``values`` on a grid ``factor`` times finer.

    The Nyquist bin of an even-length grid stands for both frequencies
    +-m/2; it is split evenly between them, so real samples stay real.
    """
    m = values.size
    coeff = np.fft.fftshift(np.fft.fft(values)) / m
    lo = (factor - 1) * m // 2
    padded = np.pad(coeff, (lo, (factor - 1) * m - lo))
    padded[lo] = padded[lo + m] = coeff[0] / 2.0
    return np.fft.ifft(np.fft.ifftshift(padded)) * padded.size


def test_spectral_upsample_is_exact_interpolation():
    f = GridField.from_modes({(3,): 1 + 0.5j, (-3,): 1 - 0.5j}, (32,))
    fine = spectral_upsample(f.values, 4)
    xs = np.arange(128) / 128
    direct = 2 * np.real((1 + 0.5j) * np.exp(2j * np.pi * 3 * xs))
    assert fine.shape == (128,)
    assert np.max(np.abs(fine - direct)) <= 1e-12
    assert abs(GridField(fine).norm() - f.norm()) <= 1e-12
    # the Nyquist samples (-1)^j interpolate to the real cos(2 pi 4 x)
    fine = spectral_upsample(np.cos(2 * np.pi * 4 * np.arange(8) / 8), 2)
    assert np.max(np.abs(fine - np.cos(2 * np.pi * 4 * np.arange(16) / 16))) <= 1e-12


def test_cocycle_validation():
    # the cocycle holds the scalar q.phi: an integer winding vector W^T q and
    # the Fourier data of q.eta; winding rows and sectors live in the config
    for winding in ([1.5], [[2]], []):
        with pytest.raises(ValueError):
            TorusCocycle(winding, {})
    # entries int64 cannot hold are refused, not rounded to INT64_MIN
    for winding in ([1e30], [10**30], [2**63], [-(2**63)], [float("nan")], [float("inf")], ["2"]):
        with pytest.raises(ValueError, match="winding must be"):
            TorusCocycle(winding, {})
        with pytest.raises(ValueError, match="frequency must be"):
            SU2Cocycle(np.eye(2, dtype=complex), winding, {}, 2)
    assert list(TorusCocycle([2**63 - 1, 3.0], {}).winding) == [2**63 - 1, 3]
    with pytest.raises(ValueError):
        TorusCocycle([1, 2], {(1,): 0.5, (-1,): 0.5})
    with pytest.raises(StructureError):
        # a real-valued perturbation needs mirrored conjugate modes
        TorusCocycle([1], {(1,): 0.5j})
    for mirror in (1000.005, 1000.0 + 2e-12, complex(1000.0, 1e-9)):
        # the mirror holds to 1e-12 absolutely, however large the mode
        with pytest.raises(StructureError):
            TorusCocycle([1], {(1,): 1000.0, (-1,): mirror})
    with pytest.raises(StructureError):
        TorusCocycle([1], {(0,): 0.3 + 1e-11j})
    coc = TorusCocycle([1], {(1,): 1000.0, (-1,): 1000.0 + 1e-13, (0,): 0.3})
    assert coc.modes == {(1,): 1000.0, (-1,): 1000.0 + 1e-13, (0,): 0.3}
    assert list(standard_cocycle().winding) == [6]


def test_geometric_phase_sums_at_integer_rotation_numbers_are_closed_form():
    # an eta zero mode has rotation number 0; its phase sum, and the fields
    # built on it, must cost the same at any step count
    assert _geometric_phase_sum(0.0, 10**12) == 10**12
    assert _geometric_phase_sum(-3.0, 10**12) == 10**12
    for u in (3 + 1e-11, -2 - 3e-12, 1e-10, -7.5e-11, 5 - 2e-10):
        delta = u - round(u)
        for n in (1, 2, 17, 1000, 10**4):
            direct = np.sum(np.exp(2j * np.pi * delta * np.arange(n)))
            assert abs(_geometric_phase_sum(u, n) - direct) <= 1e-13 * abs(direct), (u, n)
    modes = {(0,): 0.01, (1,): -0.075j, (-1,): 0.075j}
    flow = golden_flow()
    assert torus_degree_field(TorusCocycle([6], modes), flow, (64,), 10**12).sup_error <= 1e-9
    su2 = su2_degree_field(SU2Cocycle(np.eye(2, dtype=complex), [1], modes, 2), flow, (64,), 10**9)
    assert su2.sup_deviation <= 1e-6


@pytest.mark.parametrize("u", [0.0, -3.0, 3 + 1e-11, -2 - 3e-12, 0.6180339887498949, -1.2360679774997898,
                               0.5, 1e-10])
def test_geometric_phase_sum_over_an_array_of_steps_is_the_per_step_sum(u):
    # sector_correlation takes one call per mode pair over all its horizons;
    # each entry must be the bits the per-step call gives
    steps = np.arange(1, 1025)
    sums = _geometric_phase_sum(u, steps)
    assert sums.dtype == np.complex128 and sums.shape == steps.shape
    assert sums.tobytes() == np.array([_geometric_phase_sum(u, int(n)) for n in steps], dtype=complex).tobytes()


def test_cocycle_sum_matches_brute_force():
    flow = golden_flow()
    coc = standard_cocycle()
    x0 = 0.123
    for n in (1, 4, 9):
        brute = sum(sector_phase(x0 + j * GOLDEN) for j in range(n))
        got = float(np.asarray(cocycle_sum(coc, flow, [x0], n))[0])
        assert abs(got - brute) <= 1e-9 * max(1.0, abs(brute))


def test_cocycle_law():
    flow = golden_flow()
    coc = standard_cocycle()
    x0 = np.array([0.123])
    n, m = 5, 8
    lhs = cocycle_sum(coc, flow, x0, n + m)
    # with unreduced intermediate coordinates the law is exact ...
    rhs = cocycle_sum(coc, flow, x0, n) + cocycle_sum(coc, flow, x0 + n * GOLDEN, m)
    assert abs(float((lhs - rhs)[0])) <= 1e-9
    # ... while reducing mod 1 shifts the winding part by an integer, which
    # leaves the associated phase untouched
    reduced = cocycle_sum(coc, flow, x0, n) + cocycle_sum(coc, flow, flow.advance(x0, n), m)
    gap = float((lhs - reduced)[0])
    assert abs(gap - round(gap)) <= 1e-9
    # inverse branch and the empty sum
    assert float(np.asarray(cocycle_sum(coc, flow, x0, 0))[0]) == 0.0
    neg = cocycle_sum(coc, flow, x0, -4)
    ref = -cocycle_sum(coc, flow, flow.advance(x0, -4), 4)
    assert abs(float((neg - ref)[0])) <= 1e-12


def test_step_counts_must_be_integral():
    # a fractional step count used to be truncated: torus_degree_field at 2.9
    # reported steps == 2, and cocycle_sum and sector_apply at 2.9 equalled
    # their N = 2 results bit for bit
    flow, coc = golden_flow(), standard_cocycle()
    su2 = SU2Cocycle(np.eye(2, dtype=complex), [1], {}, 2)
    x = unit_grid((64,))
    f = GridField.from_modes({(1,): 1.0}, (256,))
    from_zero = {
        "cocycle_sum": lambda n: cocycle_sum(coc, flow, x, n),
        "sector_apply": lambda n: sector_apply(coc, flow, f, n),
    }
    from_one = {
        "torus_degree_field": lambda n: torus_degree_field(coc, flow, (64,), n),
        "su2_degree_field": lambda n: su2_degree_field(su2, flow, (64,), n),
        "sector_correlation": lambda n: sector_correlation(coc, flow, {(1,): 1.0}, {(1,): 1.0}, n),
    }
    for name, call in {**from_zero, **from_one}.items():
        for bad in (2.9, 0.5, np.float64(-1.5), float("nan"), float("inf"), "3", b"4", 3 + 0j,
                    True, np.True_):
            with pytest.raises(ValueError, match="must be integers"):
                call(bad)
        # integral values of any numeric type still count
        assert call(np.float64(2.0)) is not None, name
    for name, call in from_one.items():
        for bad in (0, -2):
            with pytest.raises(ValueError, match="must be integers >= 1"):
                call(bad)
    # cocycle_sum and sector_apply keep 0 and negative step counts
    assert np.array_equal(cocycle_sum(coc, flow, x, -3.0), cocycle_sum(coc, flow, x, -3))
    assert np.array_equal(sector_apply(coc, flow, f, np.int8(-2)).values,
                          sector_apply(coc, flow, f, -2).values)
    assert np.array_equal(sector_apply(coc, flow, f, 0.0).values, f.values)
    assert torus_degree_field(coc, flow, (64,), np.float64(3.0)).steps == 3


def test_sector_apply_pointwise():
    flow = golden_flow()
    coc = standard_cocycle()
    f = GridField.from_modes({(0,): 1.0, (1,): 0.5, (-1,): 0.25}, (1024,))
    xs = unit_grid((1024,))
    for steps in (1, 3):
        out = sector_apply(coc, flow, f, steps)
        phase = np.exp(2j * np.pi * cocycle_sum(coc, flow, xs, steps))
        moved = (
            1.0
            + 0.5 * np.exp(2j * np.pi * (xs + steps * GOLDEN))
            + 0.25 * np.exp(-2j * np.pi * (xs + steps * GOLDEN))
        )
        assert np.max(np.abs(out.values - phase * moved)) <= 1e-12


def finite_complex(magnitude):
    return st.complex_numbers(max_magnitude=magnitude, allow_nan=False, allow_infinity=False)


# eta mode pairs, winding, sector, a band-limited field and step pairs sized so
# that every power stays inside the resolution budget of a 1024-point grid
@settings(max_examples=40)
@given(
    eta=st.dictionaries(st.integers(1, 3), finite_complex(0.05), max_size=2),
    winding=st.integers(-3, 3),
    sector=st.integers(-3, 3),
    field=st.dictionaries(st.integers(-4, 4), finite_complex(1.0), min_size=1, max_size=5),
    steps=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
)
@example(eta={1: -0.025j}, winding=2, sector=3, field={0: 1.0, 1: 0.5, -1: 0.25}, steps=(3, 4))
@example(eta={1: -0.025j}, winding=2, sector=3, field={0: 1.0, 1: 0.5, -1: 0.25}, steps=(-3, 3))
def test_sector_apply_group_law_and_unitarity(eta, winding, sector, field, steps):
    modes = {}
    for k, c in eta.items():
        modes.update({(k,): c, (-k,): np.conj(c)})
    coc = sector_cocycle([winding], modes, sector)
    flow = golden_flow()
    # coefficients with l1 norm at most 1, so that |f| <= 1 pointwise
    scale = max(1.0, sum(abs(c) for c in field.values()))
    f = GridField.from_modes({(k,): c / scale for k, c in field.items()}, (1024,))
    n, m = steps
    direct = sector_apply(coc, flow, f, n + m)
    two_step = sector_apply(coc, flow, sector_apply(coc, flow, f, m), n)
    assert np.max(np.abs(two_step.values - direct.values)) <= 1e-12
    assert abs(direct.norm() - f.norm()) <= 1e-12
    assert np.array_equal(sector_apply(coc, flow, f, 0).values, f.values)


def test_sector_apply_resolution_guard():
    flow = golden_flow()
    coc = standard_cocycle()
    f = GridField.from_modes({(1,): 1.0, (-1,): 1.0}, (256,))
    with pytest.raises(ResolutionError):
        sector_apply(coc, flow, f, 32)


def mirrored(eta):
    """Hermitian-symmetric cocycle modes {k: c, -k: conj c}; a zero mode is kept real."""
    modes = {}
    for k, c in eta.items():
        mirror = tuple(-v for v in k)
        c = c.real if k == mirror else c
        modes.update({k: c, mirror: np.conj(c)})
    return modes


# sizes chosen so that N = 1 always passes the resolution budget of
# sector_apply: |W^T q| <= 9 per axis and at most two eta pairs of |k| <= 3
# on 512 points (d = 1), |W^T q| <= 4 and |k| <= 1 on 128 x 128 (d = 2)
@settings(max_examples=20)
@given(
    d=st.sampled_from([1, 2]),
    eta=st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-1, 1)), finite_complex(0.05), max_size=2),
    winding=st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
    sector=st.integers(-3, 3),
    mode=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    later=st.lists(st.integers(2, 12), max_size=2, unique=True),
)
@example(d=1, eta={(1, 0): -0.025j}, winding=(2, 0), sector=3, mode=(1, 0), later=[12])
def test_sector_identity_holds_in_function_space(d, eta, winding, sector, mode, later):
    # [A, U^N] e_l = N D_N U^N e_l is a theorem; the residual must sit at the
    # roundoff the check estimates, at every horizon the grid resolves
    if d == 1:
        eta = {(k[0],): c for k, c in eta.items()}
        mode, winding, flow, shape = mode[:1], winding[:1], golden_flow(), (512,)
    else:
        eta = {(k[0] % 3 - 1, k[1]): c for k, c in eta.items()}
        sector = int(np.clip(sector, -2, 2))
        flow, shape = TorusFlow([GOLDEN, SILVER]), (128, 128)
    coc = sector_cocycle(winding, mirrored(eta), sector)
    schedule = sorted({1, *later})
    report = sector_identity_check(coc, flow, mode, shape, schedule)
    assert report.horizons[:1] == [1]
    assert sorted(report.horizons + report.unresolved) == schedule
    assert all(0.0 < e < 1e-9 for e in report.estimates)
    for n, r, e in zip(report.horizons, report.residuals, report.estimates):
        assert r <= 10.0 * e, (n, r, e)


def test_sector_identity_check_on_the_golden_sector():
    # the bundled example's sector on its 8192-point grid: N = 1024 needs a
    # bandwidth of about 6150 against the grid Nyquist 4096
    report = sector_identity_check(standard_cocycle(), golden_flow(), (1,), (8192,), [16, 512, 1024])
    assert report.horizons == [16, 512] and report.unresolved == [1024]
    assert max(r / e for r, e in zip(report.residuals, report.estimates)) <= 1.0
    with pytest.raises(ValueError, match="grid dimension"):
        sector_identity_check(standard_cocycle(), golden_flow(), (1,), (64, 64), [1])
    with pytest.raises(ValueError, match="must be integers >= 1"):
        sector_identity_check(standard_cocycle(), golden_flow(), (1,), (64,), [2.5])
    with pytest.raises(ValueError, match="powers of two"):
        # refused up front, though the budget would list N = 64 as unresolved
        sector_identity_check(standard_cocycle(), golden_flow(), (1,), (100,), [64])
    for mode in ((1, 0), (1.5,)):
        with pytest.raises(ValueError, match="mode"):
            sector_identity_check(standard_cocycle(), golden_flow(), mode, (64,), [1])
    with pytest.raises(ValueError, match="mode"):
        # a 1-vector on a 2-D base
        sector_identity_check(TorusCocycle([4, 1], {}), TorusFlow([GOLDEN, SILVER]), (1,), (64, 64), [1])
    with pytest.raises(TypeError):
        # a mode dict is not an integer vector
        sector_identity_check(standard_cocycle(), golden_flow(), {(1,): 1.0}, (64,), [1])
    # past [-m/2, m/2) the grid holds e_l as its alias: l = 1025 on 1024
    # points used to run as e_1 against the eigenvalue of l, and report
    # residuals 0.992 and 0.975 against estimates of 4e-15 and 1e-14
    with pytest.raises(ValueError, match=re.escape("mode (1025,) lies outside the band [-m/2, m/2) "
                                                   "of grid shape (1024,), which holds it as its alias (1,)")):
        sector_identity_check(standard_cocycle(), golden_flow(), (1025,), (1024,), [1, 4])
    with pytest.raises(ValueError, match=re.escape("mode (512,) lies outside")):
        sector_identity_check(standard_cocycle(), golden_flow(), (512,), (1024,), [1])
    # -512 is the edge the grid still holds; no N resolves it, which the report says
    edge = sector_identity_check(standard_cocycle(), golden_flow(), (-512,), (1024,), [1])
    assert edge.horizons == [] and edge.unresolved == [1]
    with pytest.raises(ValueError, match=re.escape("mode (3, -40) lies outside")):
        sector_identity_check(TorusCocycle([4, 1], {}), TorusFlow([GOLDEN, SILVER]), (3, -40), (64, 64), [1])


def test_sector_identity_check_takes_the_degree_from_the_orbit_average(monkeypatch):
    # U^N e_l is formed in closed form, so e_l gets neither a wave table nor
    # an FFT; each resolved horizon takes one orbit average and two FFTs (the
    # band check of U^N e_l, and A on that same spectrum); N = 128 fails the
    # a-priori budget before any FFT
    calls = {"sector_apply": 0, "torus_degree_field": 0, "_orbit_average_rate": 0, "_wave_table": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(skew, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(skew, name, counted)
    for name in ("fftn", "ifftn"):
        calls[name] = 0
        def counted(*args, _name=name, _call=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    report = sector_identity_check(standard_cocycle(), golden_flow(), (1,), (1024,), [1, 4, 16, 128])
    assert report.horizons == [1, 4, 16] and report.unresolved == [128]
    # one wave table, of q.eta's modes
    assert calls == {"sector_apply": 0, "torus_degree_field": 0, "_orbit_average_rate": 3,
                     "_wave_table": 1, "fftn": 3, "ifftn": 3}


# modes l = l' + j m with |l'| <= 5 and j in [-2, 2], so that 0, negative
# modes and modes beyond the Nyquist m/2 all occur; the check refuses the
# last, which the grid would hold as e_l', and then steps e_l' itself
@settings(max_examples=40)
@given(
    d=st.sampled_from([1, 2]),
    eta=st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), finite_complex(0.05), max_size=2),
    winding=st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
    alias=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    wraps=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    schedule=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
)
@example(d=1, eta={(1, 0): -0.025j}, winding=(2, 0), alias=(1, 0), wraps=(1, 0), schedule=[1, 7, 40])
@example(d=2, eta={}, winding=(1, 1), alias=(-5, 3), wraps=(-1, 2), schedule=[2, 3])
@example(d=1, eta={}, winding=(0, 0), alias=(0, 0), wraps=(0, 0), schedule=[1])
def test_sector_identity_check_steps_e_l_as_sector_apply_does(d, eta, winding, alias, wraps, schedule):
    # the check's closed-form U^N e_l against the FFT route of sector_apply on
    # the same grid: equal values, and the same horizons refused
    if d == 1:
        eta = {(k[0],): c for k, c in eta.items()}
        winding, flow, shape = winding[:1], golden_flow(), (128,)
    else:
        flow, shape = TorusFlow([GOLDEN, SILVER]), (64, 32)
    mode = tuple(a + j * m for a, j, m in zip(alias, wraps, shape))
    coc = TorusCocycle(winding, mirrored(eta))
    grid = skew._SectorGrid(coc, flow, shape)
    if any(wraps[:d]):
        with pytest.raises(ValueError, match=re.escape(f"its alias {alias[:d]}")):
            grid.identity_check(mode, schedule)
        mode = alias[:d]
    stepped, step = {}, grid.step

    def spy(band, steps, carry):
        stepped[steps], spec = step(band, steps, carry)
        return stepped[steps], spec

    grid.step = spy
    report = grid.identity_check(mode, schedule)
    assert sorted(stepped) == sorted(report.horizons)
    e_l = GridField.from_modes({mode: 1.0}, shape)
    for n in schedule:
        try:
            expected = sector_apply(coc, flow, e_l, n).values
        except ResolutionError:
            assert n in report.unresolved
            continue
        assert n in report.horizons
        assert np.max(np.abs(stepped[n] - expected)) <= 1e-12, n


def test_grid_norms_match_vdot_and_the_identity_check_calls_no_blas_dot(monkeypatch):
    # the reductions against np.vdot: the norm relative to itself, the inner
    # product relative to ||f|| ||g||, its scale under cancellation
    rng = np.random.default_rng(11)
    for shape in ((1024,), (16384,), (64, 32)):
        f, g = (GridField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(2))
        size = f.values.size
        norm = math.sqrt(np.vdot(f.values, f.values).real / size)
        assert abs(f.norm() - norm) <= 1e-15 * norm
        assert abs(f.inner(g) - np.vdot(f.values, g.values) / size) <= 1e-15 * f.norm() * g.norm()

    def refuse(*args, **kwargs):
        raise AssertionError("np.vdot called")

    monkeypatch.setattr(np, "vdot", refuse)
    report = sector_identity_check(standard_cocycle(), golden_flow(), (1,), (1024,), [1, 4, 16])
    assert report.horizons == [1, 4, 16]


def test_sector_grid_tables_are_read_only_and_inputs_are_kept():
    coc = TorusCocycle([4, 1], {(1, 0): -0.01j, (-1, 0): 0.01j, (0, 1): 0.0, (0, -1): 0.0})
    flow = TorusFlow([GOLDEN, SILVER])
    grid = skew._SectorGrid(coc, flow, (64, 64))
    grid.identity_check((1, 1), [1, 2])
    # the modes of q.eta with a zero coefficient get no wave
    assert list(grid.waves) == [(1, 0), (-1, 0)]
    # the tables that no step count changes, and no D_N
    assert set(vars(grid)) == {"shape", "cocycle", "flow", "points", "freqs", "waves"}
    tables = [grid.points, *grid.freqs, *grid.waves.values()]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0.0

    field = GridField.from_modes({(1, 1): 1.0, (0, 2): 0.5j}, (64, 64))
    points = unit_grid((64, 64))[::7, ::5]
    inputs = (field.values, points, coc.winding, flow.y)
    before = [a.copy() for a in inputs]
    modes, schedule, mode = dict(coc.modes), [1, 2], (1, 1)
    for call in (lambda: sector_apply(coc, flow, field, 2),
                 lambda: sector_apply(coc, flow, field, -1),
                 lambda: cocycle_sum(coc, flow, points, 3),
                 lambda: torus_degree_field(coc, flow, (64, 64), 3),
                 lambda: torus_degree_bound(coc, flow, schedule),
                 lambda: sector_identity_check(coc, flow, mode, (64, 64), schedule)):
        call()
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
        assert coc.modes == modes and schedule == [1, 2] and mode == (1, 1)


@pytest.mark.parametrize("amplitude", [1e300, 1e308])
def test_sector_identity_check_lists_an_unbounded_modulation_as_unresolved(amplitude):
    # the modulation margin of such an eta overflows int64 at 1e300 and is
    # infinite at 1e308; either way no grid resolves the phase
    coc = TorusCocycle([2], {(1,): -1j * amplitude, (-1,): 1j * amplitude})
    flow = golden_flow()
    with pytest.raises(ResolutionError):
        sector_apply(coc, flow, GridField.from_modes({(1,): 1.0}, (1024,)), 4)
    report = sector_identity_check(coc, flow, (1,), (1024,), [4, 16, 64])
    assert report.horizons == [] and report.unresolved == [4, 16, 64]


def test_sector_apply_rejects_a_phase_beyond_float_range():
    # the constant mode moves no axis, so the modulation margin stays 0, but
    # 4 steps of it sum to 4e308 turns: the phase overflows, and the field
    # would come back all NaN
    coc = TorusCocycle([2], {(0,): 1e308})
    flow = golden_flow()
    with pytest.raises(ResolutionError, match="not finite"):
        sector_apply(coc, flow, GridField.from_modes({(1,): 1.0}, (1024,)), 4)
    # at one step the phase is 1e308 turns, but 2 pi times it overflows: no
    # horizon reaches the report as a NaN residual
    report = sector_identity_check(coc, flow, (1,), (1024,), [1, 2, 4])
    assert report.horizons == report.residuals == [] and report.unresolved == [1, 2, 4]


def oracle_correlation(coc, flow, phi, psi, horizon, grid):
    # <phi, U^n psi> from the grid route: sector_apply on a field, then inner
    shape = (grid,) * coc.d
    f, g = GridField.from_modes(phi, shape), GridField.from_modes(psi, shape)
    return np.array([f.inner(sector_apply(coc, flow, g, n)) for n in range(1, horizon + 1)])


def test_sector_correlation_matches_inner_products():
    flow = golden_flow()
    coc = standard_cocycle()
    # a broadband observable, so that U^n g, whose spectrum moves by 6n, still
    # overlaps it and every term of the series is far from zero
    rng = np.random.default_rng(311)
    f = {(k,): complex(*rng.standard_normal(2)) / 25 for k in range(-500, 501)}
    g = {(2,): 0.3, (-2,): 0.3, (0,): 0.1}
    series = sector_correlation(coc, flow, f, g, 64)
    assert list(series.abscissae) == list(range(1, 65))
    assert np.min(np.abs(series.values)) > 1e-3
    brute = oracle_correlation(coc, flow, f, g, 64, 2048)
    assert np.max(np.abs(series.values - brute)) <= 1e-12


@pytest.mark.parametrize(
    "winding, modes, sector, y, phi, psi, horizon, grid",
    [
        # the runner's observable e(x) under one mode pair on a 1-D base
        pytest.param([2], {(1,): -0.025j, (-1,): 0.025j}, 3, [GOLDEN],
                     {(1,): 1.0}, {(1,): 1.0}, 48, 2048, id="one pair"),
        pytest.param([2], {(1,): -0.025j, (-1,): 0.025j,
                           (3,): 0.01 + 0.02j, (-3,): 0.01 - 0.02j}, 3, [GOLDEN],
                     {(1,): 0.6, (-2,): 0.3j, (4,): 0.2}, {(1,): 0.5, (0,): 0.4, (-1,): 0.3 - 0.1j},
                     32, 4096, id="two pairs"),
        pytest.param([1, 2], {(1, 0): 0.02j, (-1, 0): -0.02j, (0, 1): 0.015, (0, -1): 0.015},
                     2, [GOLDEN, np.sqrt(2.0) - 1.0],
                     {(1, 1): 1.0, (0, 2): 0.5}, {(1, 1): 1.0, (2, -1): 0.3j}, 12, 256, id="torus-nd"),
        pytest.param([2], {}, 3, [GOLDEN],
                     {(k,): 0.1 * (k + 1j) for k in range(-40, 41)}, {(1,): 0.7, (-3,): 0.2},
                     12, 512, id="no eta"),
        pytest.param([2], {(0,): 0.3, (1,): -0.025j, (-1,): 0.025j}, 3, [GOLDEN],
                     {(k,): 0.05 * (1 - 0.5j) ** abs(k) for k in range(-30, 31)}, {(1,): 0.5, (2,): 0.5},
                     16, 1024, id="zero mode"),
    ],
)
def test_sector_correlation_closed_form_matches_grid_route(winding, modes, sector, y, phi, psi,
                                                           horizon, grid):
    flow = TorusFlow(y)
    coc = sector_cocycle(winding, modes, sector)
    series = sector_correlation(coc, flow, phi, psi, horizon)
    brute = oracle_correlation(coc, flow, phi, psi, horizon, grid)
    assert np.max(np.abs(brute)) > 1e-6
    assert np.max(np.abs(series.values - brute)) <= 1e-12


def test_sector_correlation_guards():
    flow = golden_flow()
    coc = standard_cocycle()
    # the resolution guard case of sector_apply: the grid route needs 4096
    # points here, the closed form needs no grid at all
    f = {(1,): 1.0, (-1,): 1.0}
    series = sector_correlation(coc, flow, f, f, 32)
    brute = oracle_correlation(coc, flow, f, f, 32, 4096)
    assert np.max(np.abs(series.values - brute)) <= 1e-12
    with pytest.raises(TypeError):
        sector_correlation(coc, flow, GridField.from_modes(f, (256,)), f, 4)
    with pytest.raises(ValueError, match="components"):
        sector_correlation(coc, flow, f, {(1, 0): 1.0}, 4)
    with pytest.raises(ValueError):
        sector_correlation(coc, flow, f, f, 0)


def test_sector_correlation_refuses_int64_lattice_overflow():
    flow = golden_flow()
    e1 = {(1,): 1.0}
    # 4 * 2^62 wrapped to 0 in int64, which made |c_4| = |c_8| = 1
    with pytest.raises(ValueError, match=r"frequency bound reaches \d+, beyond"):
        sector_correlation(TorusCocycle([2**62], {}), flow, e1, e1, 8)
    # in range, the spectrum moves off e1 and every term vanishes exactly
    series = sector_correlation(TorusCocycle([2**40], {}), flow, e1, e1, 16)
    assert np.array_equal(np.abs(series.values), np.zeros(16))
    # |k|^2 of an eta mode pair enters the lattice division: 2^62 fits, 2^64 does not
    for k, fits in ((2**31, True), (2**32, False)):
        coc = TorusCocycle([1], {(k,): 0.01, (-k,): 0.01})
        if fits:
            assert np.array_equal(sector_correlation(coc, flow, e1, e1, 8).values, np.zeros(8))
        else:
            with pytest.raises(ValueError, match="lattice product bound"):
                sector_correlation(coc, flow, e1, e1, 8)


def test_sector_correlation_refuses_bessel_tables_beyond_the_budget_before_building_any(monkeypatch):
    # two mode pairs of amplitude 1e4 truncate at orders 242114 and 334056:
    # about 4.0 and 5.5 GB of tables at horizon 512
    calls = []

    def bessel_coefficient(*args, _call=skew._bessel_coefficient):
        calls.append(args)
        return _call(*args)

    monkeypatch.setattr(skew, "_bessel_coefficient", bessel_coefficient)
    e1 = {(1,): 1.0}
    huge = TorusCocycle([2], {(1,): -1e4j, (-1,): 1e4j, (2,): -1e4j, (-2,): 1e4j})
    with pytest.raises(ValueError, match=r"orders \[242114, 334056\] need 589999104 entries .* budget"):
        sector_correlation(huge, golden_flow(), e1, e1, 512)
    assert calls == []
    # the same pairs at a small amplitude stay well inside it
    small = TorusCocycle([2], {(1,): -0.01j, (-1,): 0.01j, (2,): -0.01j, (-2,): 0.01j})
    assert np.all(np.isfinite(sector_correlation(small, golden_flow(), e1, e1, 512).values))
    assert len(calls) == 2


def counted_bessel_order(z):
    # the truncation order counted up one order at a time
    t = z / 2.0
    if t == 0.0:
        return 0
    budget = math.log(2.0**-53 / 2.0) - t
    order = 0
    while (order + 1) * math.log(t) - math.lgamma(order + 2) > budget:
        order += 1
    return order


def test_bessel_order_bisects_to_the_counted_order():
    zs = [0.0, 5e-324, 1e-20, 0.5, 1.0, 2.0, 2.5, 10.0, 1e4, *np.geomspace(1e-3, 1e4, 61),
          *np.random.default_rng(41).uniform(0.0, 1e4, 20)]
    for z in zs:
        assert _bessel_order(z) == counted_bessel_order(z), z
    # counted, this order would take about 1.8e300 steps
    assert 1.7e300 < _bessel_order(1e300) < 1.9e300


def within_bessel_bounds(orders, z, values, reference):
    """Whether J_m(z) values agree with scipy's jv, by regime of m and z.

    Relative 1e-12 where z^2 <= 2 (|m| + 1), the power series, wherever
    |reference| >= 1e-280; absolute eps (1 + z) beyond it, where an FFT of
    e^{i z sin theta} serves.  ``values`` and ``reference`` may carry one
    common phase of modulus 1, as the Jacobi-Anger coefficients
    i^m J_m(z) e^{i m alpha} do.
    """
    series = z <= np.sqrt(2.0 * (np.abs(orders) + 1))
    resolved = np.abs(reference) >= 1e-280
    error = np.abs(values - reference)
    relative = error / np.where(resolved, np.abs(reference), 1.0)
    return (np.all(relative[series & resolved] <= 1e-12)
            and np.all((error <= np.finfo(float).eps * (1.0 + z))[~series]))


def default_errstate_raising():
    """numpy's default errstate, with every RuntimeWarning it gives raised."""
    stack = contextlib.ExitStack()
    stack.enter_context(np.errstate(divide="warn", over="warn", invalid="warn", under="ignore"))
    stack.enter_context(warnings.catch_warnings())
    warnings.simplefilter("error", RuntimeWarning)
    return stack


@st.composite
def bessel_arguments(draw):
    if draw(st.booleans()):
        # large z about the turning point |m| = z, beyond the series regime
        z = draw(st.floats(1000.0, 1e4, exclude_min=True))
        return round(draw(st.floats(0.8, 1.2)) * z) * draw(st.sampled_from([-1, 1])), z
    order = draw(st.integers(-600, 600))
    n = abs(order)
    z = draw(st.one_of(
        # about the series boundary z^2 = 2 (|m| + 1), where its terms halve
        st.floats(0.0, 1.5).map(lambda s: s * math.sqrt(2.0 * (n + 1))),
        # about the turning point z = |m|
        st.floats(0.5, 1.5).map(lambda s: s * max(n, 1)),
        st.floats(0.0, 1e4),
    ))
    return order, z


@settings(max_examples=100)
@given(st.lists(bessel_arguments(), min_size=1, max_size=30))
def test_bessel_j_matches_scipy_in_every_regime(arguments):
    from scipy import special  # the oracle of the series regime

    orders, z = (np.array(v) for v in zip(*arguments))
    with default_errstate_raising():
        values = _bessel_j(orders, z)
        mirrored = _bessel_j(-orders, z)
    assert within_bessel_bounds(orders, z, values, special.jv(orders, z))
    # J_{-m} = (-1)^m J_m bit for bit
    assert mirrored.tobytes() == (np.where(orders % 2 == 1, -1.0, 1.0) * values).tobytes()


def test_bessel_j_exact_values_tails_and_huge_arguments():
    orders = np.arange(-64, 65)
    with default_errstate_raising():
        at_zero = _bessel_j(orders, 0.0)
        # J_m(z) ~ (z/2)^m / m! keeps its tail where scipy's jv flushes it to 0
        tails = _bessel_j([108, 120], [0.12861084863236144, 0.3052949730143094])
        # the least subnormal z, a cube that underflows, and two orders far
        # beyond z that underflow beyond the series regime
        extremes = _bessel_j([0, 3, 10**6, -(10**6) - 1], [5e-324, 1e-300, 2e3, 1e3])
    assert np.array_equal(at_zero, orders == 0)
    # mpmath.besselj(m, z) at 200 bits of precision
    assert tails == pytest.approx([1.4744388065993229e-303, 1.6492307813462440e-297], rel=1e-12)
    assert extremes.tolist() == [1.0, 0.0, 0.0, -0.0]
    # z mod 2 pi has no correct digit at 1e300, and its table of 2 M + 1 ~ 3.6e300
    # orders is far beyond the budget
    with pytest.raises(ValueError, match=r"up to z = 1e\+300 need at least 1e\+300 entries, beyond the budget"):
        _bessel_j(orders, 1e300)


@pytest.mark.parametrize("z", [1.3e305, 1e307, 1e308, sys.float_info.max])
def test_bessel_tables_past_the_budget_are_refused_before_any_truncation_order(monkeypatch, z):
    # _bessel_order overflows in lgamma from z ~ 1.28e305 and in int(8 t)
    # from about 4.5e307; a table at z holds more than z - 1 entries, so both
    # callers refuse such a z by the budget before any order is bisected
    calls = []

    def bessel_order(x, _call=skew._bessel_order):
        calls.append(x)
        return _call(x)

    monkeypatch.setattr(skew, "_bessel_order", bessel_order)
    refused = r"Bessel tables up to z = \S+ need at least \S+ entries, beyond the budget of 4194304$"
    with pytest.raises(ValueError, match=refused):
        _bessel_j(0, z)
    # at horizon 1 the first pair's Bessel argument is 4 pi |c| = z to within an ulp
    c = z / (4.0 * math.pi)
    e1 = {(1,): 1.0}
    two_pairs = TorusCocycle([2], {(1,): -c * 1j, (-1,): c * 1j, (2,): -1j, (-2,): 1j})
    with pytest.raises(ValueError, match=refused):
        sector_correlation(two_pairs, golden_flow(), e1, e1, 1)
    assert calls == []


@pytest.mark.parametrize("z", [1.5, 50.0, 1e3, 1e5])
def test_bessel_j_fft_tables_hold_every_order_to_the_truncation(z):
    # beyond the series regime, J_m(z) is the m-th Fourier coefficient of
    # e^{i z sin theta} over P; a cosine phase, a dropped 1/P or a table read
    # at -m each miss scipy's jv on most orders |m| <= M.  The table itself
    # is read at every order, those the series serves in _bessel_j included
    from scipy import special

    order = _bessel_order(z)
    orders = np.arange(-order - 3, order + 4)
    with default_errstate_raising():
        values = _bessel_j(orders, z)
        table = skew._bessel_fft(np.abs(orders), np.full(orders.size, z))
    inside = np.abs(orders) <= order
    far = z * z > 2.0 * (np.abs(orders) + 1)
    assert np.any(inside & far)
    bound = np.finfo(float).eps * (1.0 + z)
    # scipy's jv at |m|, and at m by J_{-m} = (-1)^m J_m
    reference = special.jv(np.arange(order + 4), z)[np.abs(orders)]
    assert np.all(np.abs(table - reference)[inside] <= bound)
    reference[(orders < 0) & (orders % 2 == 1)] *= -1.0
    assert np.all(np.abs(values - reference)[inside] <= bound)
    # orders beyond M read 0, as their l1 mass is below 2^-53
    assert np.all(table[~inside] == 0.0) and np.all(values[~inside & far] == 0.0)


def test_bessel_j_refuses_tables_beyond_the_budget_before_any_fft(monkeypatch):
    # the largest z first: a table of 2 M + 1 > 2^22 entries costs one
    # _bessel_order and no FFT; tables at z ~ 1e5 hold 2 M + 1 ~ 3.6e5
    # entries, so twelve of them pass the budget
    calls = {"order": [], "fft": 0}

    def bessel_order(z, _call=skew._bessel_order):
        calls["order"].append(z)
        return _call(z)

    def fft(*args, _call=np.fft.fft):
        calls["fft"] += 1
        return _call(*args)

    monkeypatch.setattr(skew, "_bessel_order", bessel_order)
    monkeypatch.setattr(skew.np.fft, "fft", fft)
    with pytest.raises(ValueError, match=r"up to z = 2e\+06 need at least 7\.\d+e\+06 entries"):
        _bessel_j([0, 1, 2], [1e4, 2e6, 3.0])
    assert calls == {"order": [2e6], "fft": 0}
    zs = np.linspace(9e4, 1e5, 512)
    with pytest.raises(ValueError, match=r"up to z = 100000 need at least"):
        _bessel_j(np.zeros(512, dtype=int), zs)
    assert len(calls["order"]) == 1 + 12 and calls["fft"] == 0
    # below the budget, one FFT per distinct z
    calls["order"].clear()
    _bessel_j([0, 1, 5, 7, 0], [3.0, 3.0, 1e4, 1e4, 0.5])
    assert calls == {"order": [1e4, 3.0], "fft": 2}


def test_sector_correlation_tables_of_two_pairs_match_scipy(monkeypatch):
    # the multi-pair route reads every pair's orders -M..M from a table built
    # at each step; amplitude 2 puts its entries in the series regime and
    # beyond it on both sides of the turning point |m| = z
    from scipy import special

    tables = []

    def bessel_coefficient(order, z, alpha, _call=skew._bessel_coefficient):
        tables.append((order, z, alpha, _call(order, z, alpha)))
        return tables[-1][-1]

    monkeypatch.setattr(skew, "_bessel_coefficient", bessel_coefficient)
    coc = TorusCocycle([2], {(1,): -2j, (-1,): 2j, (3,): 1 + 1j, (-3,): 1 - 1j})
    series = sector_correlation(coc, golden_flow(), {(1,): 1.0}, {(1,): 1.0}, 512)
    assert np.all(np.isfinite(series.values))
    assert len(tables) == 2
    for order, z, alpha, table in tables:
        assert table.shape == (order.size, 512)
        reference = np.array([1, 1j, -1, -1j])[np.mod(order, 4)] * special.jv(order, z) * np.exp(1j * order * alpha)
        assert within_bessel_bounds(order, z, table, reference)
        n = np.abs(order)
        assert np.any(z * z <= 2.0 * (n + 1)) and np.any((z * z > 2.0 * (n + 1)) & (n < z))
        assert np.any((z * z > 2.0 * (n + 1)) & (n >= z))


mode_dicts = st.dictionaries(
    st.integers(-6, 6),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60)
@given(
    phi=mode_dicts,
    psi=mode_dicts,
    horizon=st.integers(1, 24),
    first=st.complex_numbers(max_magnitude=0.05, allow_nan=False, allow_infinity=False),
    second=st.one_of(st.none(), st.tuples(
        st.integers(2, 4), st.complex_numbers(max_magnitude=0.03, allow_nan=False, allow_infinity=False))),
)
def test_sector_correlation_property_matches_grid_route(phi, psi, horizon, first, second):
    # eta with one or two mode pairs; observables scaled to l2 norm at most 1
    modes = {(1,): first, (-1,): np.conj(first)}
    if second is not None:
        k, c = second
        modes.update({(k,): c, (-k,): np.conj(c)})
    coc = sector_cocycle([2], modes, 3)
    flow = golden_flow()
    phi, psi = ({(k,): c / max(1.0, np.sqrt(sum(abs(v) ** 2 for v in d.values())))
                 for k, c in d.items()} for d in (phi, psi))
    series = sector_correlation(coc, flow, phi, psi, horizon)
    # a grid that passes the a-priori budget of sector_apply up to 24 steps
    brute = oracle_correlation(coc, flow, phi, psi, horizon, 1024)
    assert np.max(np.abs(series.values - brute)) <= 1e-12


def test_sector_matrix_is_valid_pair_and_matches_function_route():
    flow = golden_flow()
    coc = standard_cocycle()
    pair = sector_matrix(coc, flow, 256)
    assert pair.kind == "discrete"
    for steps in (1, 2, 3):
        chk = degree_identity_check(pair, steps)
        assert chk.residual <= 10.0 * chk.error_estimate
    f = GridField.from_modes({(1,): 0.5, (-1,): 0.5, (2,): 0.1, (-2,): 0.1}, (256,))
    matrix_route = pair.main @ f.values
    function_route = sector_apply(coc, flow, f, 1)
    assert np.max(np.abs(matrix_route - function_route.values)) <= 1e-10
    with pytest.raises(ValueError):
        sector_matrix(coc, flow, 100)


def test_torus_degree_field_against_brute_average():
    flow = golden_flow()
    coc = standard_cocycle()
    steps = 50
    rep = torus_degree_field(coc, flow, (64,), steps)
    assert rep.limit == pytest.approx(2 * np.pi * 6 * GOLDEN, rel=1e-12)

    def brute_average(xs):
        total = np.zeros(xs.shape)
        for n in range(steps):
            z = xs + n * GOLDEN
            total += 6 * GOLDEN + 2 * np.real(2j * np.pi * GOLDEN * 3 * (-0.025j) * np.exp(2j * np.pi * z))
        return total / steps

    # the closed-form orbit average, pointwise on the grid and off it
    xs = unit_grid((64,))
    off_grid = np.random.default_rng(17).uniform(0.0, 1.0, 33)
    for points in (xs, off_grid):
        assert np.max(np.abs(_orbit_average_rate(coc, flow, points, steps) - brute_average(points))) <= 1e-12
    brute = 2 * np.pi * brute_average(xs)
    assert rep.sup_error == pytest.approx(np.max(np.abs(brute - rep.limit)), rel=1e-9)


def test_torus_degree_sup_error_shrinks():
    flow = golden_flow()
    coc = standard_cocycle()
    errs = [torus_degree_field(coc, flow, (64,), n).sup_error for n in (16, 256)]
    assert errs[1] < errs[0] / 4


# Hermitian mode dicts with |k_i| <= 3, which a grid of 16 points per axis
# resolves, differences included, so that the grid samples D_N - D without
# aliasing; moduli from 1e-3 keep |c_k|^2 far from underflow
@settings(max_examples=25)
@given(
    d=st.sampled_from([1, 2]),
    eta=st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0, allow_nan=False,
                                           allow_infinity=False), min_size=1, max_size=3),
    frequency=st.tuples(st.integers(-3, 3).filter(bool), st.integers(-3, 3)),
    schedule=st.lists(st.integers(1, 4096), min_size=1, max_size=4, unique=True),
)
@example(d=1, eta={(1, 0): -0.025j}, frequency=(1, 0), schedule=[16, 1024])
def test_degree_bounds_hold_on_the_grid(d, eta, frequency, schedule):
    flow = TorusFlow([GOLDEN, SILVER][:d])
    modes = mirrored({k[:d]: c for k, c in eta.items()})
    shape, schedule = (16,) * d, sorted(schedule)
    # winding 0, so that D = 0 and the grid subtracts no constant, whose roundoff the bound does not see
    coc = TorusCocycle([0] * d, modes)
    bound = torus_degree_bound(coc, flow, schedule)
    assert bound.limit == 0.0
    for n, sup_bound, l2 in zip(schedule, bound.sup_bounds, bound.l2_errors):
        assert torus_degree_field(coc, flow, shape, n).sup_error <= sup_bound * (1 + 1e-12)
        values = 2.0 * np.pi * _orbit_average_rate(coc, flow, unit_grid(shape), n)
        assert abs(GridField(values).norm() - l2) <= 1e-12 * l2
        assert n * sup_bound <= bound.rate_constant * (1 + 1e-12)
    h = su2_irrep(1, np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]]))
    for label in range(4):
        su2 = SU2Cocycle(h, frequency[:d], modes, label)
        su2_bound = su2_degree_bound(su2, flow, schedule)
        # the grid mean of the rate stands in for y.b, to a roundoff of a few eps |y.b|
        slack = 2 * np.pi * label * abs(float(np.dot(frequency[:d], flow.y))) * 1e-14
        for n, sup_bound in zip(schedule, su2_bound.sup_bounds):
            assert su2_degree_field(su2, flow, shape, n).sup_deviation <= sup_bound * (1 + 1e-12) + slack
        assert su2_bound.rate_constant == label * bound.rate_constant


def test_degree_bound_of_a_resonant_or_invisible_mode():
    # k.y = 0: the mode adds nothing to D_N, to the bounds or to C
    coc = TorusCocycle([1, -1], {(1, -1): 0.5j, (-1, 1): -0.5j})
    bound = torus_degree_bound(coc, TorusFlow([GOLDEN, GOLDEN]), [1, 10])
    assert (bound.limit, bound.sup_bounds, bound.l2_errors, bound.rate_constant) == (0.0, [0.0, 0.0], [0.0, 0.0], 0.0)
    # k.y = 1: the mode's coefficient (2 pi)^2 i g never decays, so C is infinite
    with pytest.warns(RationalApproximationWarning):
        flow = TorusFlow([0.25, 0.75])
    coc = TorusCocycle([1, 0], {(1, 1): 0.5j, (-1, -1): -0.5j})
    bound = torus_degree_bound(coc, flow, [1, 10, 1000])
    assert bound.rate_constant == math.inf
    assert bound.sup_bounds == pytest.approx([(2 * np.pi) ** 2] * 3, rel=1e-15)
    # an SU(2) cocycle of label 0 has frame 0, so every bound is 0
    su2 = SU2Cocycle(np.eye(2), [1, 0], coc.modes, 0)
    assert su2_degree_bound(su2, flow, [10]).rate_constant == 0.0


def test_su2_irrep_basics():
    rng = np.random.default_rng(301)
    theta = 0.4
    h = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    coc = SU2Cocycle(h, [1], {(1,): -0.05j, (-1,): 0.05j}, 2)
    g = coc.value(0.37)
    assert max_norm(g @ g.conj().T - np.eye(2)) <= 1e-12
    assert abs(np.linalg.det(g) - 1.0) <= 1e-12
    g2 = coc.value(0.71)
    for label in (0, 1, 2, 3):
        pg = su2_irrep(label, g)
        assert pg.shape == (label + 1, label + 1)
        assert max_norm(pg @ pg.conj().T - np.eye(label + 1)) <= 1e-12
        assert max_norm(su2_irrep(label, g @ g2) - pg @ su2_irrep(label, g2)) <= 1e-12
    assert max_norm(su2_irrep(3, np.eye(2, dtype=complex)) - np.eye(4)) == 0.0
    with pytest.raises(ValueError):
        su2_irrep(-1, g)


def test_su2_irrep_diagonal_weights():
    dg = np.diag(np.exp(1j * np.array([0.3, -0.3])))
    pd = su2_irrep(2, dg)
    weights = np.array([-2, 0, 2])
    assert np.allclose(np.diag(pd), np.exp(1j * 0.3 * weights))
    assert max_norm(pd - np.diag(np.diag(pd))) <= 1e-14


def test_su2_cocycle_validation():
    with pytest.raises(StructureError):
        SU2Cocycle(np.array([[1.0, 0.1], [0.0, 1.0]]), [1], {}, 1)
    with pytest.raises(ValueError):
        SU2Cocycle(np.eye(2, dtype=complex), [0], {}, 1)


def test_su2_accumulated_matches_brute_product():
    flow = golden_flow()
    theta = 0.4
    h = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    coc = SU2Cocycle(h, [1], {(1,): -0.05j, (-1,): 0.05j}, 2)
    x0 = 0.2
    n = 5
    acc = coc.accumulated_representation(flow, x0, n)
    brute = np.eye(3, dtype=complex)
    for j in range(n):
        brute = coc.representation_value(x0 + j * GOLDEN) @ brute
    assert max_norm(acc - brute) <= 1e-12


def test_su2_degree_field_eigenvalues_and_kernel():
    flow = golden_flow()
    theta = 0.4
    h = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    for label, expect_kernel in ((1, 0), (2, 1), (3, 0)):
        coc = SU2Cocycle(h, [1], {(1,): -0.05j, (-1,): 0.05j}, label)
        rep = su2_degree_field(coc, flow, (256,), 400)
        rel = np.max(
            np.abs(np.sort(rep.eigenvalues) - np.sort(rep.predicted_eigenvalues))
        ) / max(np.max(np.abs(rep.predicted_eigenvalues)), 1e-12)
        assert rel <= 2e-2
        assert rep.kernel_dim == expect_kernel
        assert rep.sup_deviation <= 0.05


def test_su2_degree_field_warns_on_ambiguous_kernel_cut():
    flow = golden_flow()
    h = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]], dtype=complex)
    coc = SU2Cocycle(h, [1], {(1,): -0.05j, (-1,): 0.05j}, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpectralCutWarning)
        assert su2_degree_field(coc, flow, (64,), 50).kernel_dim == 0
    # eigenvalues sit near c*(-3, -1, 1, 3): a cut at 0.3*3c = 0.9c lies
    # within the ambiguity band of the +-c pair
    with pytest.warns(SpectralCutWarning):
        su2_degree_field(coc, flow, (64,), 50, kernel_tol=0.3)


def transport_loop_degree_field(cocycle, flow, modes, shape, steps):
    """Reference for su2_degree_field: the rate times the symbol frame, transported step by step."""
    n = cocycle.label
    points = unit_grid(shape)
    pih = su2_irrep(n, cocycle.conjugator)
    weights = 2 * np.arange(n + 1) - n
    frame = pih @ np.diag(2.0 * np.pi * weights).astype(complex) @ pih.conj().T
    total = np.zeros(tuple(shape) + (n + 1, n + 1), dtype=complex)
    for m in range(steps):
        theta = cocycle_sum(cocycle.angle, flow, points, m)
        moved = flow.advance(points, m)
        rate = np.full(theta.shape, float(cocycle.frequency @ flow.y), dtype=complex)
        for k, g in modes.items():
            k = np.asarray(k)
            kx = moved * k[0] if cocycle.d == 1 else moved @ k
            rate += 2j * np.pi * float(k @ flow.y) * g * np.exp(2j * np.pi * kx)
        phases = np.exp(2j * np.pi * theta[..., None] * weights)
        transport = (pih * phases[..., None, :]) @ pih.conj().T
        moved_frame = transport @ frame @ transport.conj().swapaxes(-1, -2)
        total += rate.real[..., None, None] * moved_frame
    return total / steps


def seeded_conjugator(seed):
    rng = np.random.default_rng(seed)
    phase = rng.standard_normal(3)
    c, s = np.cos(phase[0]), np.sin(phase[0])
    h = np.array(
        [[c * np.exp(1j * phase[1]), -s * np.exp(1j * phase[2])],
         [s * np.exp(-1j * phase[2]), c * np.exp(-1j * phase[1])]]
    )
    assert abs(h[0, 1]) > 0.1
    return h


def assert_matches_transport_loop(coc, flow, modes, shape, steps):
    rep = su2_degree_field(coc, flow, shape, steps)
    field = rep.rate[..., None, None] * rep.frame
    oracle = transport_loop_degree_field(coc, flow, modes, shape, steps)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(field - oracle)) <= 1e-12 * scale, (coc.label, shape, steps)


def test_su2_degree_field_matches_transport_loop():
    flow = golden_flow()
    h = seeded_conjugator(307)
    modes = {(1,): -0.05j, (-1,): 0.05j, (2,): 0.02, (-2,): 0.02}
    for label in (0, 1, 2, 3):
        coc = SU2Cocycle(h, [1], modes, label)
        for grid in (100, 128):
            for steps in (1, 7, 500):
                assert_matches_transport_loop(coc, flow, modes, (grid,), steps)


def test_su2_degree_field_matches_transport_loop_on_a_2d_base():
    flow = TorusFlow([SILVER, GOLDEN])
    modes = {(1, 0): -0.05j, (-1, 0): 0.05j, (1, 1): 0.02, (-1, -1): 0.02}
    coc = SU2Cocycle(seeded_conjugator(308), [1, 2], modes, 3)
    for steps in (1, 7, 60):
        assert_matches_transport_loop(coc, flow, modes, (16, 16), steps)


def test_su2_degree_field_keeps_no_per_point_matrices():
    # the report holds one rate per grid point and one frame; a field of
    # per-point 4x4 matrices at 256x256 alone would take 16 MiB
    coc = SU2Cocycle(seeded_conjugator(309), [1, 2], {(1, 0): -0.05j, (-1, 0): 0.05j}, 3)
    flow = TorusFlow([SILVER, GOLDEN])
    tracemalloc.start()
    try:
        rep = su2_degree_field(coc, flow, (256, 256), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert rep.rate.shape == (256, 256) and rep.frame.shape == (4, 4)


def test_su2_degree_field_at_a_million_steps():
    flow = golden_flow()
    theta = 0.4
    h = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    modes = {(1,): -0.05j, (-1,): 0.05j}
    for label in (1, 2, 3):
        rep = su2_degree_field(SU2Cocycle(h, [1], modes, label), flow, (512,), 10**6)
        scale = np.max(np.abs(rep.predicted_eigenvalues))
        rel = np.max(np.abs(np.sort(rep.eigenvalues) - np.sort(rep.predicted_eigenvalues))) / scale
        assert rel <= 2e-2
        assert rep.kernel_dim == (1 if label % 2 == 0 else 0)
        # the orbit average converges like 1/steps
        assert rep.sup_deviation <= 1e-5


def test_su2_degree_equivariance():
    # conjugating the cocycle conjugates the limit by the lifted rotation
    flow = golden_flow()
    theta = 0.7
    h = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    modes = {(1,): -0.05j, (-1,): 0.05j}
    plain = su2_degree_field(SU2Cocycle(np.eye(2, dtype=complex), [1], modes, 2), flow, (128,), 200)
    moved = su2_degree_field(SU2Cocycle(h, [1], modes, 2), flow, (128,), 200)
    pih = su2_irrep(2, h)
    assert max_norm(moved.limit_estimate - pih @ plain.limit_estimate @ pih.conj().T) <= 1e-8


def test_shift_model_seam_symbol():
    model = shift_weyl_model(8, 2)
    sym = unitary_symbol(model.pair)
    expect = np.eye(8, dtype=complex)
    expect[0, 0] = 1.0 - 8.0
    assert max_norm(sym - expect) <= 1e-12
    assert list(model.interior) == [2, 3, 4, 5]
    with pytest.raises(ValueError):
        shift_weyl_model(8, 5)
    with pytest.raises(ValueError):
        shift_weyl_model(3, 1)


def test_shift_model_degree_vanishes_on_window_multiples():
    model = shift_weyl_model(12, 3)
    est = estimate_degree(model.pair, [12, 24, 48])
    assert max_norm(est.limit) == 0.0 and est.limit_norm == 0.0
    # off the resonant schedule the average is genuinely nonzero
    rough = estimate_degree(model.pair, [5, 7, 11])
    assert max_norm(rough.limit) > 1e-3 and rough.limit_norm > rough.roundoff_floor


@dataclass
class TruncationSweepEntry:
    size: int
    eigenvalue_count: int
    min_residual: float
    median_residual: float


def sector_truncation_sweep(cocycle, flow, sizes):
    """Residuals of truncated-matrix eigenvectors against the sector action.

    Finite truncations always carry point spectrum; the question is whether
    those eigenpairs mean anything for the underlying operator.  Each
    truncation eigenvector is lifted to a grid four times finer by spectral
    interpolation and hit with the exact one-step sector action; the entry
    records how far it is from solving the eigenvalue equation there.  For a
    sector with nonzero winding (degree bounded away from zero) these
    residuals stay of order one instead of vanishing as the size grows.
    """
    entries = []
    for size in sizes:
        vals, vecs = np.linalg.eig(sector_matrix(cocycle, flow, size).main)
        residuals = []
        for j in range(vals.shape[0]):
            lifted = GridField(spectral_upsample(vecs[:, j], 4))
            dev = sector_apply(cocycle, flow, lifted, 1).values - vals[j] * lifted.values
            residuals.append(float(np.sqrt(np.mean(np.abs(dev) ** 2))) / max(lifted.norm(), 1e-300))
        entries.append(TruncationSweepEntry(size=size, eigenvalue_count=vals.shape[0],
                                            min_residual=min(residuals),
                                            median_residual=float(np.median(residuals))))
    return entries


def test_sector_truncation_sweep_reports_no_fake_eigenvectors():
    # the oracle behind the torus identities running on the sector operator
    # in function space rather than on a truncation
    flow = golden_flow()
    coc = standard_cocycle()
    sweep = sector_truncation_sweep(coc, flow, (128, 256))
    assert [e.size for e in sweep] == [128, 256]
    for entry in sweep:
        assert entry.eigenvalue_count == entry.size
        # truncation eigenvectors must stay visibly unfaithful to the full
        # operator: nothing here converges to point spectrum
        assert entry.min_residual >= 1e-6
        assert entry.min_residual >= 0.05
        assert entry.median_residual >= entry.min_residual
