"""Dense-matrix foundation layer, in real or complex arithmetic.

Structure checks, eigendecompositions, kernel projectors, the Cayley
transform between unitary and self-adjoint matrices, and a versioned payload
format for complex matrices.

Matrices keep the narrowest exact arithmetic: :func:`as_square_matrix` gives
float64 for real input and complex128 for complex input.  Real input stays
real through products, norms, Hermitian eigenvectors and kernel projectors;
routes whose values are complex (spectra and eigenvectors in a
SpectralDecomposition, Cayley maps, resolvents) return complex128.  A real
matrix and its complex cast give the same values up to roundoff.

Every operation here is pure: inputs are never mutated and results are freshly
allocated, so matrices can be shared read-only between threads.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    EvaluationError,
    SchemaError,
    SpectralCutWarning,
    SpectralSingularityError,
    StructureError,
)

__all__ = [
    "StructureReport",
    "SpectralDecomposition",
    "KernelSplit",
    "max_norm",
    "spectral_norm",
    "check_structure",
    "spectral_decomposition",
    "kernel_split",
    "cayley_transform",
    "inverse_cayley_transform",
    "matrix_to_payload",
    "matrix_from_payload",
]

MATRIX_FORMAT = "complex-matrix"
MATRIX_VERSION = 1


def as_square_matrix(obj, name="matrix"):
    """Return ``obj`` as a square ndarray, or raise DimensionError.

    Real input (bool, integer or float) comes back as float64 and anything
    else as complex128; a complex matrix is never narrowed here, even when
    its imaginary part is zero.
    """
    m = np.asarray(obj)
    m = m.astype(float if m.dtype.kind in "biuf" else complex, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def max_norm(m):
    """Entrywise max-norm. Empty input has norm 0."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def spectral_norm(m):
    """Operator 2-norm (largest singular value), in the input's own arithmetic.

    An empty or all-zero matrix has norm exactly 0.0 and takes no SVD; NaN
    entries count as nonzero and reach the SVD.
    """
    m = np.asarray(m)
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.any() else 0.0


@dataclass(frozen=True)
class StructureReport:
    """Outcome of a structural check.

    ``deviation`` is the entrywise max-norm distance from the requested
    structure: ``max|S S* - I|`` for unitarity, ``max|S - S*|`` for
    hermiticity.
    """

    kind: str
    deviation: float
    tol: float
    passed: bool


def check_structure(matrix, kind, tol=1e-10):
    """Check unitarity or hermiticity of a square matrix.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix.
    kind : {"unitary", "hermitian"}
        Structure to test.
    tol : float
        Max-norm deviation threshold.

    Returns
    -------
    StructureReport
    """
    m = as_square_matrix(matrix)
    if kind == "unitary":
        dev = max_norm(m @ m.conj().T - np.eye(m.shape[0]))
    elif kind == "hermitian":
        dev = max_norm(m - m.conj().T)
    else:
        raise ValueError(f"unknown structure kind {kind!r}")
    return StructureReport(kind=kind, deviation=dev, tol=float(tol), passed=dev <= tol)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a normal matrix with an orthonormal eigenbasis.

    ``eigenvalues[i]`` pairs with the column ``eigenvectors[:, i]``;
    ``residual`` is ``max_i || S v_i - lambda_i v_i ||_2``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    def assemble(self, values):
        """Recombine ``V diag(values) V*`` for per-eigenvalue scalars."""
        v = self.eigenvectors
        return (v * np.asarray(values, dtype=complex)) @ v.conj().T


# the golden angle, an irrational multiple of pi: no two roots of unity and no
# conjugate pair share a projection onto its direction
_PROJECTION_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def spectral_decomposition(matrix, hermitian_tol=1e-10, normal_tol=1e-8):
    """Eigendecompose a normal matrix with guaranteed-orthonormal eigenvectors.

    Hermitian inputs (detected at ``hermitian_tol`` relative max-norm) go
    through the symmetric eigensolver and come back with real eigenvalues.
    Other normal matrices (unitaries in particular) take one Hermitian
    eigensolve too: the Hermitian and skew-Hermitian parts of a normal ``S``
    commute, so the eigenvectors ``V`` of ``h = (e^{-i phi} S + e^{i phi} S*)/2``
    (``phi`` the golden angle) diagonalise ``S`` wherever ``h`` separates its
    eigenvalues.  Where it does not, ``T = V* S V`` still couples adjacent
    columns; every run of columns ``a..b`` with a coupling ``|T_ab|`` above
    ``8 sqrt(n) eps scale`` is finished by a complex Schur factorization of
    its block of ``T``, which rotates those columns into eigenvectors.  The
    eigenvalues are the diagonal of ``T`` and of the block Schur factors.  At
    worst one run spans every column and the cost is one full Schur on top of
    the eigensolve.

    Raises
    ------
    StructureError
        If an entry is not finite, or if the matrix is not normal at
        ``normal_tol`` (relative to the squared scale of the matrix).
    """
    m = as_square_matrix(matrix)
    if not np.isfinite(m).all():
        raise StructureError("matrix has non-finite entries")
    scale = max(1.0, max_norm(m))
    if max_norm(m - m.conj().T) <= hermitian_tol * scale:
        h = (m + m.conj().T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(h)
        eigvals = eigvals.astype(complex)
        image = m @ eigvecs
    else:
        defect = max_norm(m @ m.conj().T - m.conj().T @ m)
        if defect > normal_tol * scale * scale:
            raise StructureError(
                f"matrix is not normal: ||SS* - S*S|| = {defect:.3e} "
                f"exceeds {normal_tol:.1e} * scale^2"
            )
        eigvals, eigvecs, image = _normal_eigenbasis(m, scale)
    residual = 0.0
    if m.size:
        r = image - eigvecs * eigvals
        residual = float(np.max(np.linalg.norm(r, axis=0)))
    return SpectralDecomposition(eigenvalues=eigvals, eigenvectors=eigvecs, residual=residual)


def _normal_eigenbasis(m, scale):
    """Eigenvalues, eigenvectors ``V`` and ``S V`` of a normal, non-Hermitian ``S``."""
    rotated = np.exp(-1j * _PROJECTION_ANGLE) * m
    _, v = np.linalg.eigh((rotated + rotated.conj().T) / 2.0)
    image = m @ v
    t = v.conj().T @ image
    n = t.shape[0]
    cut = 8.0 * np.sqrt(n) * np.finfo(float).eps * scale
    coupled = np.abs(t) > cut
    coupled |= coupled.T
    cols = np.arange(n)
    # column a reaches the last column it couples to; a run ends where no
    # earlier column reaches past it
    reach = np.maximum.accumulate(np.where(coupled, cols, cols[:, None]).max(axis=1, initial=0))
    ends = np.flatnonzero(reach == cols) + 1
    eigvals = np.diagonal(t).copy()
    for start, stop in zip(np.concatenate(([0], ends[:-1])), ends):
        if stop - start > 1:
            import scipy.linalg  # here, not at module level: it doubles the import time of commix

            block, z = scipy.linalg.schur(t[start:stop, start:stop], output="complex")
            eigvals[start:stop] = np.diagonal(block)
            v[:, start:stop] = v[:, start:stop] @ z
            image[:, start:stop] = image[:, start:stop] @ z
    return eigvals, v, image


def _evaluate_on_spectrum(fn, eigenvalues):
    """Apply a scalar function to each eigenvalue, demanding finite results."""
    try:
        values = np.asarray(fn(eigenvalues), dtype=complex)
        if values.shape != eigenvalues.shape:
            raise TypeError
    except Exception:
        out = []
        for lam in eigenvalues:
            arg = float(lam.real) if lam.imag == 0.0 else complex(lam)
            try:
                out.append(complex(fn(arg)))
            except Exception as exc:
                raise EvaluationError(f"function evaluation failed at eigenvalue {lam}: {exc}") from exc
        values = np.asarray(out, dtype=complex)
    finite = np.isfinite(values.real) & np.isfinite(values.imag)
    if not np.all(finite):
        raise EvaluationError(f"function is undefined (non-finite) at eigenvalue(s) {eigenvalues[~finite]}")
    return values


def _resolvent_sandwich(h, x):
    """``(H+i)^{-1} X (H-i)^{-1}`` for Hermitian H, both solves against ``(H-i)* = H+i``."""
    shifted = h + 1j * np.eye(h.shape[0])
    y = np.linalg.solve(shifted, x)
    return np.linalg.solve(shifted, y.conj().T).conj().T


def _kernel_mask(eigenvalues, tol, ambiguity_margin=0.5):
    """Numerical kernel ``|lambda| <= tol * max|lambda|`` of a real spectrum, as a mask.

    A modulus within ``ambiguity_margin * cut`` of a nonzero cut makes the
    verdict ambiguous and triggers a SpectralCutWarning at the caller's caller.
    """
    modulus = np.abs(eigenvalues)
    cut = tol * float(np.max(modulus, initial=0.0))
    near = np.abs(modulus - cut) < ambiguity_margin * cut
    if np.any(near):
        warnings.warn(
            f"kernel cut at {cut:.3e} is ambiguous near eigenvalue(s) {eigenvalues[near]}",
            SpectralCutWarning,
            stacklevel=3,
        )
    return modulus <= cut


@dataclass(frozen=True)
class KernelSplit:
    """Orthogonal split into numerical kernel and its complement.

    ``P_ker`` projects onto the eigenspaces inside the kernel cut of
    :func:`kernel_split` and ``P_perp = I - P_ker`` exactly, so
    complementarity holds by construction.
    """

    tol: float
    P_ker: np.ndarray
    P_perp: np.ndarray
    ker_dim: int

    @property
    def dim(self):
        return self.P_ker.shape[0]


def kernel_split(matrix, tol=1e-8, ambiguity_margin=0.5):
    """Split a Hermitian matrix into numerical kernel and complement.

    The cut sits at ``tol * ||D||`` (spectral norm). Eigenvalues whose modulus
    falls inside the relative band ``(1 - margin, 1 + margin)`` around the cut
    make the split ambiguous and trigger a SpectralCutWarning; the zero matrix
    is split without complaint (everything is kernel).
    """
    m = as_square_matrix(matrix)
    rep = check_structure(m, "hermitian", tol=1e-8 * max(1.0, max_norm(m)))
    if not rep.passed:
        raise StructureError(f"kernel_split expects a Hermitian matrix, deviation {rep.deviation:.3e}")
    h = (m + m.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(h)
    mask = _kernel_mask(eigvals, tol, ambiguity_margin)
    cols = eigvecs[:, mask]
    p_ker = cols @ cols.conj().T
    p_ker = (p_ker + p_ker.conj().T) / 2.0
    p_perp = np.eye(h.shape[0]) - p_ker
    return KernelSplit(tol=float(tol), P_ker=p_ker, P_perp=p_perp, ker_dim=int(np.count_nonzero(mask)))


def cayley_transform(unitary, spectral_gap=1e-8, structure_tol=1e-8):
    """Map a unitary with 1 outside its spectrum to a Hermitian matrix.

    Computes ``H = i (1 + U) (1 - U)^{-1}`` through the eigendecomposition;
    eigenphases map to the real line, so the result is Hermitian by
    construction (the imaginary roundoff is discarded).

    Raises
    ------
    SpectralSingularityError
        If some eigenvalue of ``U`` lies within ``spectral_gap`` of 1. The
        offending eigenvalue is attached to the exception.
    """
    u = as_square_matrix(unitary)
    rep = check_structure(u, "unitary", tol=structure_tol)
    if not rep.passed:
        raise StructureError(f"cayley_transform expects a unitary matrix, deviation {rep.deviation:.3e}")
    dec = spectral_decomposition(u)
    dist = np.abs(dec.eigenvalues - 1.0)
    nearest = int(np.argmin(dist)) if dist.size else -1
    if dist.size and dist[nearest] <= spectral_gap:
        lam = dec.eigenvalues[nearest]
        raise SpectralSingularityError(
            f"spectrum touches the Cayley pole: eigenvalue {lam} is within "
            f"{spectral_gap:.1e} of 1",
            eigenvalue=complex(lam),
        )
    mapped = (1j * (1.0 + dec.eigenvalues) / (1.0 - dec.eigenvalues)).real
    h = dec.assemble(mapped.astype(complex))
    return (h + h.conj().T) / 2.0


def inverse_cayley_transform(hermitian, structure_tol=1e-8):
    """Inverse of :func:`cayley_transform`: ``U = (H - i)(H + i)^{-1}``.

    The Moebius map sends the real line onto the unit circle minus 1, so the
    result is unitary with 1 outside its spectrum.
    """
    h = as_square_matrix(hermitian)
    rep = check_structure(h, "hermitian", tol=structure_tol * max(1.0, max_norm(h)))
    if not rep.passed:
        raise StructureError(f"inverse_cayley_transform expects Hermitian input, deviation {rep.deviation:.3e}")
    eigvals, eigvecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    mapped = (eigvals - 1j) / (eigvals + 1j)
    return (eigvecs * mapped) @ eigvecs.conj().T


# --- serialization ---------------------------------------------------------


def matrix_to_payload(matrix):
    """Dict form of the versioned matrix schema (row-major [re, im] pairs).

    A real matrix is written as its complex cast, with imaginary parts 0.0.
    """
    m = as_square_matrix(matrix)
    if not np.isfinite(m).all():
        raise ValueError("matrix serialization requires finite entries")
    return {
        "format": MATRIX_FORMAT,
        "version": MATRIX_VERSION,
        "dim": int(m.shape[0]),
        # the [re, im] pairs are the memory layout of a complex array
        "entries": np.ascontiguousarray(m, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_payload(payload):
    """Rebuild a matrix from :func:`matrix_to_payload` output.

    Each entry must be a list of two finite numbers (``int`` or ``float``,
    not ``bool``); otherwise SchemaError names the first entry that is not.
    """
    if not isinstance(payload, dict):
        raise SchemaError("matrix payload must be a mapping")
    if payload.get("format") != MATRIX_FORMAT:
        raise SchemaError(f"unexpected matrix format {payload.get('format')!r}")
    if payload.get("version") != MATRIX_VERSION:
        raise SchemaError(f"unsupported matrix schema version {payload.get('version')!r}")
    dim = payload.get("dim")
    entries = payload.get("entries")
    if (isinstance(dim, bool) or not isinstance(dim, int) or dim < 0
            or not isinstance(entries, list) or len(entries) != dim * dim):
        raise SchemaError("matrix payload has inconsistent dim/entries")
    if dim == 0:
        return np.empty((0, 0), dtype=complex)
    try:
        parts = np.array(entries, dtype=float)
        valid = (parts.shape == (dim * dim, 2)
                 and all(issubclass(t, list) for t in set(map(type, entries)))
                 and all(_is_number_type(t) for t in set(map(type, itertools.chain.from_iterable(entries))))
                 and np.isfinite(parts).all())
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise SchemaError(_first_bad_entry(entries))
    # the [re, im] pairs are the memory layout of a complex array
    return parts.view(complex).reshape(dim, dim)


def _is_number_type(kind):
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _first_bad_entry(entries):
    """Message naming the first entry of ``entries`` that is not a finite [re, im] pair."""
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            return f"entry {i} is not a [re, im] pair"
        if not all(_is_number_type(type(x)) for x in pair):
            return f"entry {i} is not a pair of numbers: {pair!r}"
        try:
            finite = np.isfinite(np.array(pair, dtype=float)).all()
        except OverflowError:
            finite = False
        if not finite:
            return f"entry {i} is not finite"

