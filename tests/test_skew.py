"""Torus and SU(2) skew products, sector transfer operators, and the shift seam model."""

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
    su2_degree_field,
    su2_irrep,
    torus_degree_field,
    unit_grid,
    unitary_symbol,
)
from commix.skew import _geometric_phase_sum

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


def test_grid_field_sampling_and_shift():
    f = GridField.from_modes({(3,): 1 + 0.5j, (-3,): 1 - 0.5j, (0,): 0.2}, (64,))
    xs = np.arange(64) / 64
    direct = 0.2 + 2 * np.real((1 + 0.5j) * np.exp(2j * np.pi * 3 * xs))
    assert np.max(np.abs(f.values - direct)) <= 1e-12
    shifted = f.shift((0.21,))
    direct_sh = 0.2 + 2 * np.real((1 + 0.5j) * np.exp(2j * np.pi * 3 * (xs + 0.21)))
    assert np.max(np.abs(shifted.values - direct_sh)) <= 1e-12
    assert f.mean() == pytest.approx(0.2)
    assert abs(f.inner(f) - f.norm() ** 2) <= 1e-12
    assert f.occupied_band() == [3]
    with pytest.raises(ValueError):
        GridField(np.zeros(48))


def test_subnormal_field_has_empty_band_and_steps():
    # FFT roundoff of subnormal samples is as large as the samples themselves
    tiny = GridField.from_modes({(1,): 5e-324}, (1024,))
    assert tiny.occupied_band() == [0]
    assert GridField.from_modes({(1,): 1e-300}, (1024,)).occupied_band() == [1]
    moved = sector_apply(TorusCocycle([6], {}), golden_flow(), tiny, 1)
    assert np.max(np.abs(moved.values)) <= 1e-300


def test_grid_field_refine_is_exact_interpolation():
    f = GridField.from_modes({(3,): 1 + 0.5j, (-3,): 1 - 0.5j}, (32,))
    fine = f.refine(4)
    xs = np.arange(128) / 128
    direct = 2 * np.real((1 + 0.5j) * np.exp(2j * np.pi * 3 * xs))
    assert fine.values.shape == (128,)
    assert np.max(np.abs(fine.values - direct)) <= 1e-12
    g = GridField.from_modes({(0, 2): 1.0, (0, -2): 1.0}, (8, 16))
    assert abs(g.refine(2).norm() - g.norm()) <= 1e-12


def test_cocycle_validation():
    # the cocycle holds the scalar q.phi: an integer winding vector W^T q and
    # the Fourier data of q.eta; winding rows and sectors live in the config
    for winding in ([1.5], [[2]], []):
        with pytest.raises(ValueError):
            TorusCocycle(winding, {})
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
        for bad in (2.9, 0.5, np.float64(-1.5), float("nan"), float("inf")):
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
    field=st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), finite_complex(1.0),
                          min_size=1, max_size=3),
    later=st.lists(st.integers(2, 12), max_size=2, unique=True),
)
@example(d=1, eta={(1, 0): -0.025j}, winding=(2, 0), sector=3, field={(1, 0): 1.0}, later=[12])
def test_sector_identity_holds_in_function_space(d, eta, winding, sector, field, later):
    # [A, U^N] f = N D_N U^N f is a theorem; the residual must sit at the
    # roundoff the check estimates, at every horizon the grid resolves
    if d == 1:
        eta = {(k[0],): c for k, c in eta.items()}
        field = {(k[0],): c for k, c in field.items()}
        winding, flow, shape = winding[:1], golden_flow(), (512,)
    else:
        eta = {(k[0] % 3 - 1, k[1]): c for k, c in eta.items()}
        sector = int(np.clip(sector, -2, 2))
        flow, shape = TorusFlow([GOLDEN, SILVER]), (128, 128)
    coc = sector_cocycle(winding, mirrored(eta), sector)
    schedule = sorted({1, *later})
    report = sector_identity_check(coc, flow, field, shape, schedule)
    assert report.horizons[:1] == [1]
    assert sorted(report.horizons + report.unresolved) == schedule
    assert all(0.0 < e < 1e-9 for e in report.estimates)
    for n, r, e in zip(report.horizons, report.residuals, report.estimates):
        assert r <= 10.0 * e, (n, r, e)


def test_sector_identity_check_on_the_golden_sector():
    # the bundled example's sector on its 8192-point grid: N = 1024 needs a
    # bandwidth of about 6150 against the grid Nyquist 4096
    report = sector_identity_check(standard_cocycle(), golden_flow(), {(1,): 1.0, (-2,): 0.5j},
                                   (8192,), [16, 512, 1024])
    assert report.horizons == [16, 512] and report.unresolved == [1024]
    assert max(r / e for r, e in zip(report.residuals, report.estimates)) <= 1.0
    with pytest.raises(ValueError, match="grid dimension"):
        sector_identity_check(standard_cocycle(), golden_flow(), {(1,): 1.0}, (64, 64), [1])
    with pytest.raises(ValueError, match="must be integers >= 1"):
        sector_identity_check(standard_cocycle(), golden_flow(), {(1,): 1.0}, (64,), [2.5])


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
        assert chk.residual <= chk.expected
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
    xs = unit_grid((64,))
    brute = np.zeros(64)
    for n in range(steps):
        z = xs + n * GOLDEN
        brute += 2 * np.pi * (6 * GOLDEN + 2 * np.real(2j * np.pi * GOLDEN * 3 * (-0.025j) * np.exp(2j * np.pi * z)))
    brute /= steps
    assert np.max(np.abs(rep.field.values - brute)) <= 1e-9
    assert rep.sup_error == pytest.approx(np.max(np.abs(brute - rep.limit)), rel=1e-9)


def test_torus_degree_sup_error_shrinks():
    flow = golden_flow()
    coc = standard_cocycle()
    errs = [torus_degree_field(coc, flow, (64,), n).sup_error for n in (16, 256)]
    assert errs[1] < errs[0] / 4


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
    assert est.converged and not est.diverging
    assert max_norm(est.limit) == 0.0
    # off the resonant schedule the average is genuinely nonzero
    rough = estimate_degree(model.pair, [5, 7, 11])
    assert max_norm(rough.limit) > 1e-3


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
            lifted = GridField(vecs[:, j]).refine(4)
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
