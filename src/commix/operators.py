"""Dense-matrix foundation layer, in real or complex arithmetic.

The one structure check every layer uses, eigendecompositions, kernel
projectors, the Cayley transform between unitary and self-adjoint matrices,
and a versioned payload format for complex matrices.

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

import hashlib
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    SchemaError,
    SpectralCutWarning,
    SpectralSingularityError,
    StructureError,
)

__all__ = [
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
    "matrix_digest",
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


def _integral(value, what, minimum=None):
    """A step count or horizon as an ``int``; a value that is not integral is refused, not truncated.

    Integral values of any real numeric type count (``3.0``, ``np.int32(3)``);
    ``2.9``, NaN, an infinity, text (``"3"``, ``b"4"``), a complex number, a
    boolean (``True``, ``np.True_``) and a value below ``minimum`` raise
    ValueError.
    """
    refused = isinstance(value, (str, bytes, bytearray, bool, np.bool_)) or (
        isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real))
    ok = not refused and (isinstance(value, numbers.Integral) or float(value).is_integer())
    if not (ok and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{what} must be integers{bound}, got {value!r}")
    return int(value)


def _integer_array(values, what):
    """``values`` as an int64 array of integral entries (see _integral) of modulus below 2^63.

    Integer arrays are taken as they are, in one pass, and so are lists whose
    entries all convert to integers; any other entry goes through
    ``_integral``, so ``3.0`` counts and ``1.7``, NaN, infinities and
    booleans raise ValueError, a ``True`` inside a list of integers included.
    """
    array = np.asarray(values)
    if not isinstance(values, np.ndarray):
        # np.asarray reads a boolean inside a list as 1 or 1.0; keep it a boolean
        entries = np.asarray(values, dtype=object)
        if {bool, np.bool_} & set(map(type, entries.ravel().tolist())):
            array = entries
    if array.dtype.kind not in "iu":
        exact = [_integral(v, what) for v in array.ravel().tolist()]
        array = np.array(exact, dtype=object).reshape(array.shape)
    for extreme in (array.min(), array.max()) if array.size else ():
        if not -2 ** 63 < extreme < 2 ** 63:
            raise ValueError(f"{what} must be integers below 2^63 in modulus, got {int(extreme)}")
    return array.astype(np.int64)


def max_norm(m):
    """Entrywise max-norm. Empty input has norm 0."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def spectral_norm(m):
    """Operator 2-norm (largest singular value), in the input's own arithmetic.

    ``sqrt(lambda_max(m* m))`` from one Hermitian eigensolve, about half an
    SVD's flops.  Empty or all-zero input gives exactly 0.0 and a NaN or inf
    entry raises ``np.linalg.LinAlgError``, both without an eigensolve; a
    largest entry outside ``(2**-450, 2**450)`` is first scaled by an exact power of two.
    """
    m = np.asarray(m)
    m = m.astype(np.result_type(m.dtype, np.float64), copy=False)
    peak = float(np.abs(m).max(initial=0.0))
    if not math.isfinite(peak):
        raise np.linalg.LinAlgError("spectral_norm: matrix has a NaN or infinite entry")
    if peak == 0.0:
        return 0.0
    if not 2.0**-450 < peak < 2.0**450:
        # 2**e in two factors, since 2.0**e alone overflows at the ends of the range
        e = math.frexp(peak)[1]
        lo, hi = 2.0 ** (e // 2), 2.0 ** (e - e // 2)
        return spectral_norm(m / lo / hi) * lo * hi
    return math.sqrt(np.linalg.eigvalsh(m.conj().T @ m)[-1])


def _deviation(m, kind):
    """Max-norm distance of a square ndarray from the structure ``kind``.

    ``max|S S* - I|`` for unitary, that or ``|det S - 1|`` if larger for
    special-unitary, ``max|S - S*|`` for hermitian and ``max|S S* - S* S|``
    for normal.
    """
    if kind == "hermitian":
        return max_norm(m - m.conj().T)
    if kind == "normal":
        return max_norm(m @ m.conj().T - m.conj().T @ m)
    if kind not in ("unitary", "special-unitary"):
        raise ValueError(f"unknown structure kind {kind!r}")
    dev = max_norm(m @ m.conj().T - np.eye(m.shape[0]))
    if kind == "special-unitary":
        dev = max(dev, abs(complex(np.linalg.det(m)) - 1.0))
    return dev


def check_structure(matrix, kind, tol, name):
    """Raise StructureError unless ``matrix`` has the structure ``kind`` within ``tol``.

    ``kind`` is ``"unitary"``, ``"special-unitary"``, ``"hermitian"`` or
    ``"normal"``, and ``tol`` bounds the absolute max-norm deviation from it
    (see :func:`_deviation`).  A matrix with a non-finite entry fails, and so
    does any deviation that is not ``<= tol``, NaN included.  The message
    names the matrix by ``name`` and gives the kind, the deviation and ``tol``.
    """
    m = as_square_matrix(matrix, name)
    if not np.isfinite(m).all():
        raise StructureError(f"{name} is not {kind}: it has non-finite entries (tol {tol:.3e})")
    dev = _deviation(m, kind)
    if not dev <= tol:
        raise StructureError(f"{name} is not {kind}: deviation {dev:.3e} exceeds tol {tol:.3e}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a normal matrix with an orthonormal eigenbasis.

    ``eigenvalues[i]`` pairs with the column ``eigenvectors[:, i]``;
    ``residual`` is ``max_i || S v_i - lambda_i v_i ||_2``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

    def assemble(self, values):
        """Recombine ``V diag(values) V*`` for per-eigenvalue scalars."""
        v = self.eigenvectors
        return (v * np.asarray(values, dtype=complex)) @ v.conj().T


# the golden angle, an irrational multiple of pi: no two roots of unity and no
# conjugate pair share a projection onto its direction
_PROJECTION_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def spectral_decomposition(matrix):
    """Eigendecompose a normal matrix with guaranteed-orthonormal eigenvectors.

    Hermitian inputs (``max|S - S*| <= 1e-10 scale``, with ``scale`` the
    larger of 1 and ``max|S|``) go
    through the symmetric eigensolver and come back with real eigenvalues.
    Other normal matrices (unitaries in particular) take one Hermitian
    eigensolve too: the Hermitian and skew-Hermitian parts of a normal ``S``
    commute, so the eigenvectors ``V`` of ``h = (e^{-i phi} S + e^{i phi} S*)/2``
    (``phi`` the golden angle) diagonalise ``S`` wherever ``h`` separates its
    eigenvalues.  Where it does not, ``T = V* S V`` still couples adjacent
    columns; every run of columns ``a..b`` with a coupling ``|T_ab|`` above
    ``8 sqrt(n) eps scale`` is finished by a Schur basis of its block of
    ``T``: the Q factor ``Z`` of the block's eigenvectors (numpy's ``eig``,
    then QR), which rotates those columns into eigenvectors.  The eigenvalues
    are the diagonal of ``T`` and of the blocks ``Z* T Z``.  At worst one run
    spans every column and the cost is one ``eig`` of the whole matrix on top
    of the eigensolve.

    Raises
    ------
    StructureError
        If an entry is not finite, or if ``max|S S* - S* S|`` exceeds
        ``1e-8 scale^2``.
    """
    m = as_square_matrix(matrix)
    scale = max(1.0, max_norm(m))
    if np.isfinite(m).all() and _deviation(m, "hermitian") <= 1e-10 * scale:
        h = (m + m.conj().T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(h)
        eigvals = eigvals.astype(complex)
        image = m @ eigvecs
    else:
        check_structure(m, "normal", 1e-8 * scale * scale, "spectral_decomposition input")
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
            # the Q factor of the eigenvectors X of the block is a Schur basis:
            # with T X = X L and X = Z R, Z* T Z = R L R^{-1} is upper triangular
            block = t[start:stop, start:stop]
            z = np.linalg.qr(np.linalg.eig(block)[1])[0]
            eigvals[start:stop] = np.diagonal(z.conj().T @ block @ z)
            v[:, start:stop] = v[:, start:stop] @ z
            image[:, start:stop] = image[:, start:stop] @ z
    return eigvals, v, image


def _resolvent_sandwich(h, x):
    """``(H+i)^{-1} X (H-i)^{-1}`` for Hermitian H, both solves against ``(H-i)* = H+i``."""
    shifted = h + 1j * np.eye(h.shape[0])
    y = np.linalg.solve(shifted, x)
    return np.linalg.solve(shifted, y.conj().T).conj().T


def _kernel_mask(eigenvalues, tol):
    """Numerical kernel ``|lambda| <= tol * max|lambda|`` of a real spectrum, as a mask.

    A modulus within half the cut of a nonzero cut makes the
    verdict ambiguous and triggers a SpectralCutWarning at the caller's caller.
    """
    modulus = np.abs(eigenvalues)
    cut = tol * float(np.max(modulus, initial=0.0))
    near = np.abs(modulus - cut) < 0.5 * cut
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


def kernel_split(matrix, tol=1e-8):
    """Split a Hermitian matrix into numerical kernel and complement.

    The cut sits at ``tol * ||D||`` (spectral norm). Eigenvalues whose modulus
    falls inside the relative band ``(0.5, 1.5)`` around the cut make the
    split ambiguous and trigger a SpectralCutWarning; the zero matrix is split
    without complaint (everything is kernel).
    """
    m = as_square_matrix(matrix)
    check_structure(m, "hermitian", 1e-8 * max(1.0, max_norm(m)), "kernel_split input")
    h = (m + m.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(h)
    mask = _kernel_mask(eigvals, tol)
    cols = eigvecs[:, mask]
    p_ker = cols @ cols.conj().T
    p_ker = (p_ker + p_ker.conj().T) / 2.0
    p_perp = np.eye(h.shape[0]) - p_ker
    return KernelSplit(tol=float(tol), P_ker=p_ker, P_perp=p_perp, ker_dim=int(np.count_nonzero(mask)))


# absolute distance from the pole at 1 below which cayley_transform refuses
_CAYLEY_GAP = 1e-8


def cayley_transform(unitary):
    """Map a unitary with 1 outside its spectrum to a Hermitian matrix.

    Computes ``H = i (1 + U) (1 - U)^{-1}`` through the eigendecomposition;
    eigenphases map to the real line, so the result is Hermitian by
    construction (the imaginary roundoff is discarded).

    Raises
    ------
    SpectralSingularityError
        If some eigenvalue of ``U`` lies within ``_CAYLEY_GAP`` of 1. The
        offending eigenvalue is attached to the exception.
    """
    u = as_square_matrix(unitary)
    check_structure(u, "unitary", 1e-8, "cayley_transform input")
    dec = spectral_decomposition(u)
    dist = np.abs(dec.eigenvalues - 1.0)
    nearest = int(np.argmin(dist)) if dist.size else -1
    if dist.size and dist[nearest] <= _CAYLEY_GAP:
        lam = dec.eigenvalues[nearest]
        raise SpectralSingularityError(
            f"spectrum touches the Cayley pole: eigenvalue {lam} is within "
            f"{_CAYLEY_GAP:.1e} of 1",
            eigenvalue=complex(lam),
        )
    mapped = (1j * (1.0 + dec.eigenvalues) / (1.0 - dec.eigenvalues)).real
    h = dec.assemble(mapped.astype(complex))
    return (h + h.conj().T) / 2.0


def inverse_cayley_transform(hermitian):
    """Inverse of :func:`cayley_transform`: ``U = (H - i)(H + i)^{-1}``.

    The Moebius map sends the real line onto the unit circle minus 1, so the
    result is unitary with 1 outside its spectrum.
    """
    h = as_square_matrix(hermitian)
    check_structure(h, "hermitian", 1e-8 * max(1.0, max_norm(h)), "inverse_cayley_transform input")
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
    Each number becomes the float ``float(x)``, bit for bit.
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
        valid = (all(issubclass(t, list) for t in set(map(type, entries)))
                 and set(map(len, entries)) == {2})
        if valid:
            # one flat list of the 2*dim^2 numbers serves the type scan and the parse
            numbers = list(itertools.chain.from_iterable(entries))
            valid = all(_is_number_type(t) for t in set(map(type, numbers)))
        if valid:
            parts = np.fromiter(numbers, float, count=2 * dim * dim)
            valid = np.isfinite(parts).all()
    except OverflowError:
        valid = False
    if not valid:
        raise SchemaError(_first_bad_entry(entries))
    # the [re, im] pairs are the memory layout of a complex array
    return parts.view(complex).reshape(dim, dim)


def matrix_digest(matrix):
    """``{"dim", "sha256"}`` of a square matrix, the form reports echo it in.

    The digest is sha256 over the matrix's complex128 little-endian bytes in
    row-major order, so a real matrix and its complex cast share one digest.
    """
    m = as_square_matrix(matrix)
    data = np.ascontiguousarray(m, dtype="<c16").tobytes()
    return {"dim": int(m.shape[0]), "sha256": hashlib.sha256(data).hexdigest()}


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

