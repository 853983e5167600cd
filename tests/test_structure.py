"""Every entry point that checks the structure of its input, through ``check_structure``.

Each entry point gets its clean input, a copy with one entry moved by 1e-4,
and copies with one NaN or one infinite entry.  The three spoiled inputs must
raise StructureError naming the matrix's role; the clean one must pass.
"""

import re
import types

import numpy as np
import pytest

from commix import (
    FourierCalculus,
    OperatorPair,
    SU2Cocycle,
    StructureError,
    cayley_transform,
    correlation_continuous,
    inverse_cayley_transform,
    kernel_split,
    selfadjoint_symbol,
    spectral_decomposition,
    su2_irrep,
    tilde_conjugate,
    unitary_symbol,
)

DIM = 4


def _unitary(rng):
    z = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _hermitian(rng):
    z = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    return (z + z.conj().T) / 2


def _pair(kind, main, conjugate):
    # the symbol routines read only these fields; an OperatorPair would
    # refuse a spoiled conjugate before they ran
    return types.SimpleNamespace(kind=kind, main=main, conjugate=conjugate)


RNG = np.random.default_rng(301)
U, A, H = _unitary(RNG), _hermitian(RNG), _hermitian(RNG)
# spectrum on the circle away from the Cayley pole at 1
U_OFF_POLE = (U * np.exp(1j * np.linspace(0.5, 5.5, DIM))) @ U.conj().T
SU2 = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
PROBE = np.ones(DIM) / np.sqrt(DIM)

# role named in the error -> (clean input, call of the entry point on an input)
ENTRY_POINTS = {
    "main operator": (U, lambda m: OperatorPair.discrete(m, A)),
    "conjugate operator": (A, lambda m: OperatorPair.discrete(U, m)),
    "commutator symbol": (A, lambda m: unitary_symbol(_pair("discrete", U, m))),
    "resolvent-sandwiched symbol": (A, lambda m: selfadjoint_symbol(_pair("continuous", H, m))),
    "tilde conjugate": (A, lambda m: tilde_conjugate(_pair("continuous", H, m))),
    "generator": (H, lambda m: correlation_continuous(m, PROBE, PROBE, [0.5, 1.0])),
    "FourierCalculus input": (U, lambda m: FourierCalculus(m, np.cos, 8, 1.0)),
    "kernel_split input": (A, kernel_split),
    "cayley_transform input": (U_OFF_POLE, cayley_transform),
    "inverse_cayley_transform input": (H, inverse_cayley_transform),
    "spectral_decomposition input": (U, spectral_decomposition),
    "group element": (SU2, lambda m: su2_irrep(2, m)),
    "conjugator": (SU2, lambda m: SU2Cocycle(m, [1], {}, 2)),
}


def _spoil(m, defect):
    m = np.array(m, dtype=complex)
    if defect == "perturbed":
        m[0, 1] += 1e-4
    else:
        m[0, 1] = {"nan": np.nan, "inf": np.inf}[defect]
    return m


# the symbol routines multiply an infinite entry before their check sees it
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("defect", ["perturbed", "nan", "inf"])
@pytest.mark.parametrize("role", list(ENTRY_POINTS))
def test_entry_point_refuses_spoiled_structure(role, defect):
    clean, call = ENTRY_POINTS[role]
    call(clean)
    with pytest.raises(StructureError, match=rf"^{re.escape(role)} is not "):
        call(_spoil(clean, defect))
