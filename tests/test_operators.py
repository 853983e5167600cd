"""Structure checks, spectral decompositions, Cayley maps, and matrix serialization."""

import copy
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from commix import (
    DimensionError,
    SchemaError,
    SpectralCutWarning,
    SpectralSingularityError,
    StructureError,
    cayley_transform,
    check_structure,
    inverse_cayley_transform,
    kernel_split,
    matrix_from_payload,
    matrix_to_payload,
    max_norm,
    spectral_decomposition,
    spectral_norm,
)
from commix import cli, operators
from commix.operators import _PROJECTION_ANGLE, _resolvent_sandwich, as_square_matrix

EPS = np.finfo(float).eps


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def test_check_structure_passes_clean_inputs():
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 9)
    h = random_hermitian(rng, 9)
    # a clean input raises nothing
    check_structure(u, "unitary", 1e-10, "u")
    check_structure(h, "hermitian", 1e-10, "h")


def test_check_structure_reports_deviation():
    rng = np.random.default_rng(12)
    u = random_unitary(rng, 6)
    with pytest.raises(StructureError, match=r"^u is not unitary: deviation \S+ exceeds tol 1\.000e-10$") as info:
        check_structure(u + 1e-4, "unitary", 1e-10, "u")
    assert float(re.search(r"deviation (\S+)", str(info.value)).group(1)) > 1e-5


def test_check_structure_rejects_nonsquare():
    with pytest.raises(DimensionError):
        check_structure(np.ones((2, 3)), "unitary", 1e-10, "m")


def test_check_structure_unknown_kind():
    with pytest.raises(ValueError):
        check_structure(np.eye(2), "idempotent", 1e-10, "m")


def test_spectral_decomposition_reconstructs_unitary():
    rng = np.random.default_rng(21)
    u = random_unitary(rng, 12)
    dec = spectral_decomposition(u)
    assert max_norm(dec.assemble(dec.eigenvalues) - u) <= 1e-12
    assert np.allclose(np.abs(dec.eigenvalues), 1.0, atol=1e-10)


def test_spectral_decomposition_rejects_nonnormal():
    # a Jordan block is the canonical failure
    with pytest.raises(StructureError):
        spectral_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_spectral_decomposition_rejects_non_finite_entries():
    # NaN slips past a tolerance test (nan > tol is False), so it is refused first
    rng = np.random.default_rng(22)
    for bad in (np.nan, np.inf):
        for m in (random_unitary(rng, 4), np.eye(4), random_hermitian(rng, 4)):
            m = m.copy()
            m[1, 2] = bad
            with pytest.raises(StructureError, match="non-finite"):
                spectral_decomposition(m)


def normal_matrix(rng, family, dim):
    """A dim x dim normal matrix of the named family."""
    if family == "orthogonal":
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        return q * np.sign(np.diagonal(r))
    if family == "permutation":
        return np.eye(dim)[rng.permutation(dim)]
    if family == "unitary":
        return random_unitary(rng, dim)
    half = -(-dim // 2)
    if family == "complex":
        spectrum = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    elif family == "degenerate":
        fold = int(rng.integers(2, 5))
        spectrum = np.repeat(np.exp(2j * np.pi * rng.random(-(-dim // fold))), fold)[:dim]
    elif family == "close":
        base = np.exp(2j * np.pi * rng.random(half))
        spectrum = np.stack([base, base * np.exp(1e-9j)], axis=1).ravel()[:dim]
    else:  # "mirror": pairs symmetric about the projection angle share a projection
        offset = np.pi * rng.random(half)
        pairs = [np.exp(1j * (_PROJECTION_ANGLE + offset)), np.exp(1j * (_PROJECTION_ANGLE - offset))]
        spectrum = np.stack(pairs, axis=1).ravel()[:dim]
    basis = random_unitary(rng, dim)
    return (basis * spectrum) @ basis.conj().T


@settings(max_examples=250)
@given(family=st.sampled_from(["unitary", "complex", "degenerate", "close", "mirror", "orthogonal", "permutation"]),
       dim=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_spectral_decomposition_agrees_with_schur(family, dim, seed):
    m = normal_matrix(np.random.default_rng(seed), family, dim)
    dec = spectral_decomposition(m)
    bound = 16.0 * dim * EPS * max(1.0, max_norm(m))
    v = dec.eigenvectors
    assert dec.residual <= bound
    assert np.max(np.linalg.norm(m @ v - v * dec.eigenvalues, axis=0)) <= bound
    assert max_norm(v.conj().T @ v - np.eye(dim)) <= bound
    oracle = np.diagonal(scipy.linalg.schur(m.astype(complex), output="complex")[0])
    distance = np.abs(dec.eigenvalues[:, None] - oracle[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert distance[rows, cols].max() <= bound


def test_spectral_decomposition_finishes_with_small_schur_blocks(monkeypatch):
    schur = scipy.linalg.schur
    sizes = []

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", recording)
    u = random_unitary(np.random.default_rng(23), 256)
    dec = spectral_decomposition(u)
    assert dec.residual <= 16.0 * 256 * EPS
    assert max(sizes, default=0) <= 32


def test_spectral_decomposition_imports_no_sparse_module():
    # eigenvalues e^{i(phi +- 0.3)} share a projection, so the Hadamard basis
    # below is mixed by the eigensolve and finished by a Schur block
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from commix.operators import _PROJECTION_ANGLE, spectral_decomposition\n"
        "q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)\n"
        "spectrum = np.exp(1j * (_PROJECTION_ANGLE + np.array([0.3, -0.3])))\n"
        "dec = spectral_decomposition((q * spectrum) @ q.T)\n"
        "print(dec.residual < 1e-14, 'scipy.linalg' in sys.modules,\n"
        "      sorted(name for name in sys.modules if name.startswith('scipy.sparse')))\n"
    )
    src = str(pathlib.Path(operators.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert done.stdout.strip() == "True True []"


def test_kernel_split_counts_and_projectors():
    d = np.diag([0.0, 0.0, 1e-12, 0.3, 2.0]).astype(complex)
    split = kernel_split(d, tol=1e-8)
    assert split.ker_dim == 3
    assert max_norm(split.P_ker + split.P_perp - np.eye(5)) <= 1e-12
    assert max_norm(split.P_ker @ split.P_perp) <= 1e-12


def test_kernel_split_warns_in_ambiguity_band():
    # eigenvalue within a factor two of the cut is not a clean verdict
    with pytest.warns(SpectralCutWarning):
        kernel_split(np.diag([1.2e-8, 1.0]).astype(complex), tol=1e-8)


def test_resolvent_sandwich_matches_explicit_inverses():
    rng = np.random.default_rng(59)
    for dim in (1, 5, 16):
        h = random_hermitian(rng, dim)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        eye = np.eye(dim)
        oracle = np.linalg.inv(h + 1j * eye) @ x @ np.linalg.inv(h - 1j * eye)
        assert max_norm(_resolvent_sandwich(h, x) - oracle) <= 1e-12


def test_cayley_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(5):
        dim = int(rng.integers(2, 12))
        # keep the spectrum away from 1 so the transform is well posed
        angles = 0.3 + 5.6 * rng.random(dim)
        basis = random_unitary(rng, dim)
        u = basis @ np.diag(np.exp(1j * angles)) @ basis.conj().T
        h = cayley_transform(u)
        check_structure(h, "hermitian", 1e-10, "Cayley image")
        back = inverse_cayley_transform(h)
        assert max_norm(back - u) <= 1e-9


def test_cayley_rejects_spectrum_at_one():
    with pytest.raises(SpectralSingularityError) as info:
        cayley_transform(np.eye(3, dtype=complex))
    assert abs(info.value.eigenvalue - 1.0) <= 1e-8


def test_matrix_payload_round_trip():
    rng = np.random.default_rng(61)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    payload = matrix_to_payload(m)
    assert payload["format"] == "complex-matrix"
    assert payload["version"] == 1
    assert np.array_equal(matrix_from_payload(payload), m)


def test_matrix_payload_schema_errors():
    good = matrix_to_payload(np.eye(2, dtype=complex))
    wrong_format = dict(good, format="other")
    wrong_version = dict(good, version=2)
    short = dict(good, entries=good["entries"][:-1])
    bool_dim = dict(good, dim=True, entries=good["entries"][:1])
    not_finite = json.loads(json.dumps(good))
    not_finite["entries"][0][0] = float("inf")
    for bad in (wrong_format, wrong_version, short, bool_dim, not_finite):
        with pytest.raises(SchemaError):
            matrix_from_payload(bad)
    # components must be JSON numbers; the message names the first bad entry
    for component in (True, "1.5", None, "x", [1.0], {"re": 1.0}):
        bad = json.loads(json.dumps(good))
        bad["entries"][2][1] = component
        with pytest.raises(SchemaError, match="entry 2 "):
            matrix_from_payload(bad)
    for entry in ([1.0], [1.0, 0.0, 0.0], 1.0, "10", (1.0, 0.0), None):
        bad = json.loads(json.dumps(good))
        bad["entries"][3] = entry
        with pytest.raises(SchemaError, match="entry 3 is not a"):
            matrix_from_payload(bad)
    overflow = json.loads(json.dumps(good))
    overflow["entries"][1][0] = 10 ** 400
    with pytest.raises(SchemaError, match="entry 1 is not finite"):
        matrix_from_payload(overflow)
    integers = json.loads(json.dumps(good))
    integers["entries"] = [[1, 0], [0, 0], [0, 0], [1, -0.0]]
    assert np.array_equal(matrix_from_payload(integers), np.eye(2))


def test_matrix_payload_numbers_become_their_python_floats():
    # integers beyond 2**53 round as float() rounds them; -0.0 keeps its sign
    entries = [[2**53 + 1, -0.0], [-(2**64 + 3), 0], [-0.0, 10**300], [3 * 2**1022, -(2**53 + 3)]]
    payload = {"format": "complex-matrix", "version": 1, "dim": 2, "entries": entries}
    want = np.array([float(x) for pair in entries for x in pair]).view(complex).reshape(2, 2)
    assert np.array_equal(_bits(matrix_from_payload(payload)), _bits(want))
    # True and 10**400 are refused in every position, naming their entry
    for i in range(4):
        for j in range(2):
            for component, message in ((True, "is not a pair of numbers"), (10**400, "is not finite")):
                bad = json.loads(json.dumps(payload))
                bad["entries"][i][j] = component
                with pytest.raises(SchemaError, match=f"entry {i} {message}"):
                    matrix_from_payload(bad)


def _entries_by_loop(m):
    # the per-entry conversion the array form replaced, kept as its oracle
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def _bits(m):
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def test_matrix_payload_round_trip_is_bit_exact():
    rng = np.random.default_rng(63)
    base = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    base[0, 0] = complex(-0.0, -0.0)
    base[0, 1] = complex(5e-324, -2.2250738585072014e-308 / 3)
    base[1, 0] = complex(1.7976931348623157e308, -1e300)
    base[1, 1] = complex(-1.7976931348623157e308, 0.0)
    for m in (base, base.T, base[::2, ::2], base[1:, :-1].real, np.zeros((0, 0))):
        payload = matrix_to_payload(m)
        assert payload["dim"] == m.shape[0]
        # equal text, so the sign of every zero agrees too
        assert json.dumps(payload["entries"]) == json.dumps(_entries_by_loop(m))
        back = matrix_from_payload(json.loads(json.dumps(payload)))
        assert back.shape == m.shape and back.dtype == complex
        assert np.array_equal(back, m)
        assert np.array_equal(_bits(back), _bits(m))


def test_square_matrices_keep_their_own_arithmetic():
    assert as_square_matrix([[1, 2], [3, 4]]).dtype == np.float64
    assert as_square_matrix(np.eye(2, dtype=bool)).dtype == np.float64
    assert as_square_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64
    assert as_square_matrix([[1j, 0], [0, 1]]).dtype == np.complex128
    assert as_square_matrix(np.eye(2, dtype=np.complex64)).dtype == np.complex128
    # a complex matrix is not narrowed, even with every imaginary part zero
    assert as_square_matrix(np.eye(2, dtype=complex)).dtype == np.complex128
    real = np.eye(3)
    assert as_square_matrix(real) is real
    with pytest.raises(DimensionError):
        as_square_matrix(np.ones((2, 3)))


def test_real_input_gives_the_values_of_its_complex_cast():
    rng = np.random.default_rng(66)
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    u = q * np.sign(np.diagonal(r))
    u[:, 0] *= np.linalg.det(u)  # a rotation: generically no eigenvalue at the Cayley pole
    z = rng.standard_normal((6, 6))
    h = (z + z.T) / 2
    low_rank = z[:, :4] @ z[:, :4].T
    for m in (u, h):
        dec, twin = spectral_decomposition(m), spectral_decomposition(m.astype(complex))
        assert max_norm(np.sort_complex(dec.eigenvalues) - np.sort_complex(twin.eigenvalues)) <= 1e-12
        twin_exp = twin.assemble(np.exp(twin.eigenvalues))
        assert max_norm(dec.assemble(np.exp(dec.eigenvalues)) - twin_exp) <= 1e-12
    split, twin_split = kernel_split(low_rank), kernel_split(low_rank.astype(complex))
    assert split.ker_dim == twin_split.ker_dim == 2
    assert max_norm(split.P_ker - twin_split.P_ker) <= 1e-12
    assert max_norm(cayley_transform(u) - cayley_transform(u.astype(complex))) <= 1e-12
    assert max_norm(inverse_cayley_transform(h) - inverse_cayley_transform(h.astype(complex))) <= 1e-12


def _record_eigvalsh(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def recording(a, *args, **kwargs):
        calls.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return calls


def test_spectral_norm_takes_a_real_eigensolve_of_real_input(monkeypatch):
    calls = _record_eigvalsh(monkeypatch)
    rng = np.random.default_rng(65)
    z = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    bound = 4.0 * 8 * EPS
    assert spectral_norm(z) == pytest.approx(np.linalg.norm(z, 2), rel=bound)
    assert spectral_norm(z.real) == pytest.approx(np.linalg.norm(z.real.astype(complex), 2), rel=bound)
    # integer and boolean input is real too, and takes the float64 route
    for dtype in (bool, int):
        assert spectral_norm(np.ones((3, 3), dtype=dtype)) == pytest.approx(3.0, rel=bound)
    assert calls == [np.dtype(complex)] + [np.dtype(float)] * 3
    assert spectral_norm(np.zeros((0, 0))) == 0.0


def test_spectral_norm_of_zero_or_non_finite_input_takes_no_eigensolve(monkeypatch):
    calls = _record_eigvalsh(monkeypatch)
    for dtype in (float, complex):
        assert spectral_norm(np.zeros((5, 5), dtype=dtype)) == 0.0
        assert spectral_norm(-np.zeros((3, 3), dtype=dtype)) == 0.0
    assert calls == []
    # NaN and inf are rejected before m* m is formed, which would warn on inf
    for dtype in (float, complex):
        for bad in (np.nan, np.inf, -np.inf):
            m = np.zeros((4, 4), dtype=dtype)
            m[1, 2] = bad
            with pytest.raises(np.linalg.LinAlgError):
                spectral_norm(m)
    assert calls == []
    for dtype in (float, complex):
        m = np.zeros((4, 4), dtype=dtype)
        m[1, 2] = 3.0
        assert spectral_norm(m) == 3.0
    assert len(calls) == 2


def test_spectral_norm_is_exact_at_the_ends_of_the_float_range():
    # the power-of-two scaling is exact, from the smallest subnormal to the largest float
    for x in (5e-324, 2.0**-1000, 2.0**-451, 2.0**451, 2.0**1000, np.finfo(float).max):
        for dtype in (float, complex):
            assert spectral_norm(np.diag([x, x / 4]).astype(dtype)) == x
            assert spectral_norm(np.array([[0, -x], [x / 4, 0]], dtype=dtype)) == x


def norm_test_matrix(rng, family, dim, real):
    z = rng.standard_normal((dim, dim))
    if not real:
        z = z + 1j * rng.standard_normal((dim, dim))
    if family == "graded":  # singular values from 1 down to 1e-15
        q1, q2 = np.linalg.qr(z)[0], np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        return (q1 * np.logspace(0, -15, dim)) @ q2
    if family == "rank-1":
        return np.outer(z[:, 0], z[0].conj())
    if family == "tiny":
        return 1e-14 * z
    if family in ("huge", "subtiny"):
        return z * 2.0 ** (900 if family == "huge" else -900)
    if family == "near-hermitian":
        return z + z.conj().T + 1e-9 * z
    if family == "dft":
        k = np.arange(dim)
        f = np.exp(-2j * np.pi * np.outer(k, k) / dim)
        return f.real if real else f
    if family == "signs":
        return np.sign(z.real)
    return z


@settings(max_examples=50)
@given(family=st.sampled_from(["plain", "graded", "rank-1", "tiny", "huge", "subtiny", "near-hermitian",
                               "dft", "signs"]),
       dim=st.integers(1, 40), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_spectral_norm_agrees_with_the_svd(family, dim, real, seed):
    m = norm_test_matrix(np.random.default_rng(seed), family, dim, real)
    oracle = np.linalg.norm(m, 2)
    assert spectral_norm(m) == pytest.approx(oracle, rel=4.0 * max(dim, 8) * EPS, abs=0.0)


def test_norms_of_the_runner_take_no_svd(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    # the su2 degree takes the norm of its frame; the torus identities,
    # which run in function space, take none
    su2 = copy.deepcopy(cli.EXAMPLE_CONFIGS["su2-transport.json"]["scenarios"][0])
    su2.update(tasks=["degree"])
    torus = copy.deepcopy(cli.EXAMPLE_CONFIGS["torus-sector.json"]["scenarios"][0])
    torus.update(tasks=["identities"], schedule=[16, 1024])
    pair = {"name": "pair", "seed": 7, "model": {"type": "random-pair", "dim": 16},
            "tasks": ["identities", "degree"], "schedule": [1, 2, 5, 17, 64]}
    config = {"version": 1, "scenarios": [su2, torus, pair]}
    report = cli.run_config(cli.validate_config(config), tmp_path / "out")
    # a task that raises reports an error metric and fails
    tasks = {(sc["name"], task["task"]): task for sc in report["scenarios"] for task in sc["tasks"]}
    assert [key for key, task in tasks.items() if "error" in task["metrics"]] == []
    assert tasks["pair", "identities"]["status"] == tasks[torus["name"], "identities"]["status"] == "pass"
    assert tasks[su2["name"], "degree"]["status"] == "pass"


def test_norms_agree_on_diagonal():
    d = np.diag([3.0, -4.0, 0.5]).astype(complex)
    assert spectral_norm(d) == pytest.approx(4.0)
    assert max_norm(d) == pytest.approx(4.0)
