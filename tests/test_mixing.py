"""Correlation series, summability verdicts, and Fourier functional calculus."""

import re

import numpy as np
import pytest
import scipy.linalg

from commix import (
    CorrelationSeries,
    DecayReport,
    EvaluationError,
    FourierCalculus,
    ResolutionError,
    SchemaError,
    StructureError,
    SummabilityReport,
    correlation_continuous,
    correlation_discrete,
    max_norm,
    spectral_decomposition,
    spectral_norm,
)


def test_correlation_discrete_matches_brute_loop():
    rng = np.random.default_rng(201)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    series = correlation_discrete(u, phi, psi, 12)
    cur = psi.copy()
    for n in range(12):
        cur = u @ cur
        assert abs(series.values[n] - np.vdot(phi, cur)) <= 1e-12
    assert np.array_equal(series.abscissae, np.arange(1, 13))
    # partial mass is the running sum of squared moduli
    assert np.allclose(series.partial_l2, np.cumsum(np.abs(series.values) ** 2))


def test_correlation_horizon_must_be_integral():
    # a fractional horizon used to be truncated: 2.9 ran 2 steps; True ran 1
    u, v = np.eye(3), np.ones(3) / np.sqrt(3.0)
    for bad in (2.9, 0.5, 0, -2, float("nan"), float("inf"), "3", b"4", 3 + 0j, True, np.True_):
        with pytest.raises(ValueError, match="horizons must be integers >= 1"):
            correlation_discrete(u, v, v, bad)
    assert len(correlation_discrete(u, v, v, np.float64(3.0))) == 3


def test_eigenvector_correlation_never_decays():
    u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    e0 = np.array([1.0, 0.0, 0.0])
    series = correlation_discrete(u, e0, e0, 32)
    assert np.allclose(np.abs(series.values), 1.0)
    assert not DecayReport(series).decaying


def test_correlation_continuous_sinc_envelope():
    # dense uniform spectrum and a flat vector give the 1/t sinc falloff,
    # provided the window stays below the revival time 2 pi / spacing
    levels = np.linspace(-3.0, 3.0, 30)
    h = np.diag(levels).astype(complex)
    v = np.ones(30) / np.sqrt(30)
    times = np.linspace(0.5, 25.0, 120)
    series = correlation_continuous(h, v, v, times)
    oracle = np.array([np.mean(np.exp(-1j * t * levels)) for t in times])
    assert np.max(np.abs(series.values - oracle)) <= 1e-12
    assert DecayReport(series).decaying


def test_correlation_continuous_rejects_nonhermitian():
    with pytest.raises(StructureError):
        correlation_continuous(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2), np.ones(2), [1.0])


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_series_csv_round_trip(kind):
    # the CSV holds no derived column, so the rebuilt partial_l2 must be the writer's to the last bit
    rng = np.random.default_rng(31)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (h + h.conj().T) / 2
    phi, psi = rng.standard_normal(6) + 0j, rng.standard_normal(6) + 1j * rng.standard_normal(6)
    if kind == "discrete":
        series = correlation_discrete(scipy.linalg.expm(1j * h), phi, psi, 128)
    else:
        series = correlation_continuous(h, phi, psi, np.linspace(0.0, 7.3, 97))
    text = series.to_csv()
    assert text.splitlines()[:2] == [f"# correlation-series v2 kind={kind}", "abscissa,re,im"]
    back = CorrelationSeries.from_csv(text)
    assert back.kind == kind
    for name in ("abscissae", "values", "partial_l2"):
        assert getattr(back, name).tobytes() == getattr(series, name).tobytes(), name
    assert back.to_csv() == text


def test_series_csv_schema_errors():
    u = np.diag(np.exp(1j * np.array([0.3, 1.1])))
    series = correlation_discrete(u, np.ones(2), np.ones(2), 4)
    text = series.to_csv()
    header, columns = text.splitlines()[0], text.splitlines()[1]
    for bad in (
        "1,2,3\n",
        text.replace("v2", "v3"),
        header + "\n" + columns + "\n1,2\n",
        header + "\n" + columns + "\n1,2,3,4,5\n",
        header + "\n" + columns + "\n1,x,0\n",
    ):
        with pytest.raises(SchemaError):
            CorrelationSeries.from_csv(bad)


@pytest.mark.parametrize("text, message", [
    ("# correlation-series v1 kind=discrete\nabscissa,re,im,abs,partial_l2\n1.0,0.5,0.0,0.5,0.25\n",
     "'# correlation-series v1 kind=discrete' (this reader takes correlation-series v2)"),
    ("# correlation-series v2 kind=discrete\n", "unexpected column row: None"),
    ("# correlation-series v2 kind=sideways\nabscissa,re,im\n1.0,0.5,0.0\n",
     "kind must be 'discrete' or 'continuous'"),
    ("# correlation-series v2 kind=continuous\nabscissa,re,im\n"
     "1.0,0.5,0.0\n1.0,0.5,0.0\n", "continuous abscissae must be strictly increasing"),
], ids=["v1", "header-only", "unknown-kind", "non-increasing-times"])
def test_series_csv_malformed_artifacts_are_schema_errors(text, message):
    # v1 is refused by its version; the others used to escape as IndexError or a bare ValueError
    with pytest.raises(SchemaError, match=re.escape(message)):
        CorrelationSeries.from_csv(text)


def make_series(values):
    values = np.asarray(values, dtype=complex)
    return CorrelationSeries(np.arange(1, len(values) + 1), values, "discrete")


def test_summability_geometric_series():
    n = np.arange(1, 200)
    report = SummabilityReport(make_series(0.8**n))
    assert report.saturating
    # squared mass of 0.8^n sums to 0.64/0.36; the tail extrapolation should
    # land on the true value
    assert report.extrapolated_total == pytest.approx(16.0 / 9.0, rel=1e-6)


def test_summability_constant_series():
    report = SummabilityReport(make_series(np.ones(100)))
    assert not report.saturating
    assert abs(report.tail_slope) <= 0.05


def test_summability_power_tail():
    n = np.arange(1, 400)
    report = SummabilityReport(make_series(1.0 / n))
    assert report.tail_slope == pytest.approx(-2.0, abs=0.05)
    assert not report.saturating  # harmonic-squared saturates too slowly for the window
    assert abs(report.extrapolated_total - np.pi**2 / 6.0) <= 1e-3


def test_summability_machine_zero_series():
    report = SummabilityReport(make_series(np.zeros(64)))
    assert report.saturating


def test_summability_needs_enough_samples():
    with pytest.raises(ValueError):
        SummabilityReport(make_series(np.ones(8)))
    with pytest.raises(ValueError):
        DecayReport(make_series(np.ones(4)))


def test_fourier_trig_polynomial_exact():
    rng = np.random.default_rng(202)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    fc = FourierCalculus(u, lambda th: np.cos(th) + 0.5 * np.sin(2 * th), 8, 1.0)
    assert fc.recon_error <= 1e-12
    mid = fc.n_max
    assert fc.coefficients[mid + 1] == pytest.approx(0.5)
    assert fc.coefficients[mid - 1] == pytest.approx(0.5)
    assert fc.coefficients[mid + 2] == pytest.approx(-0.25j)
    assert fc.tail_bound >= fc.recon_error


def test_fourier_reconstruction_matches_dense_powers():
    rng = np.random.default_rng(203)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    fc = FourierCalculus(u, lambda th: np.exp(np.cos(th)) * np.sin(2 * th), 32, 1.0)
    # reference: sum_{|n| <= n_max} c_n U^n with U^{-n} = (U*)^n, one product per order
    recon = fc.coefficients[fc.n_max] * np.eye(16, dtype=complex)
    fwd = bwd = np.eye(16, dtype=complex)
    for n in range(1, fc.n_max + 1):
        fwd = fwd @ u
        bwd = bwd @ u.conj().T
        recon += fc.coefficients[fc.n_max + n] * fwd + fc.coefficients[fc.n_max - n] * bwd
    assert max_norm(fc.reconstruction - recon) <= 1e-12


def test_recon_error_matches_the_dense_route():
    rng = np.random.default_rng(204)
    z = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def fn(th):
        return np.exp(2.0 * np.cos(3 * th))

    fc = FourierCalculus(u, fn, 8, 1.0, grid=256)
    dec = spectral_decomposition(u)
    direct = dec.assemble(fn(np.angle(dec.eigenvalues) % (2.0 * np.pi)))
    dense = spectral_norm(fc.reconstruction - direct)
    assert dense > 1e-6  # a truncation error well above roundoff
    assert abs(fc.recon_error - dense) <= 1e-12


def test_fourier_rejects_non_finite_values_on_the_spectrum():
    u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    # finite on the grid points 2 pi k / 32, infinite at the eigenvalue angle 1.1
    with pytest.raises(EvaluationError):
        FourierCalculus(u, lambda th: np.where(th == 1.1, np.inf, np.cos(th)), 8, 1.0)


def test_fourier_parameter_validation():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        FourierCalculus(u, np.cos, 8, 0.0)
    with pytest.raises(ValueError):
        FourierCalculus(u, np.cos, 4, 1.0)
    with pytest.raises(ValueError):
        FourierCalculus(u, np.cos, 8, 1.0, grid=24)


def test_fourier_top_octave_rejected():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ResolutionError):
        FourierCalculus(u, lambda th: np.cos(30 * th), 8, 1.0, grid=64)


def test_fourier_csv_header():
    u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    fc = FourierCalculus(u, np.cos, 8, 1.0)
    lines = fc.to_csv().splitlines()
    assert lines[0].startswith("# fourier-series v2 n_max=8")
    assert lines[1] == "n,re,im"
    assert len(lines) == 2 + 2 * 8 + 1
    rows = [line.split(",") for line in lines[2:]]
    assert [int(n) for n, _, _ in rows] == fc.indices.tolist()
    assert np.array_equal([complex(float(re), float(im)) for _, re, im in rows], fc.coefficients)
