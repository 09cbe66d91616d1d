"""Two-qubit mixed-state algebra.

Density matrices are plain complex numpy arrays. A two-qubit state is 4x4
with qubit order Alice tensor Bob. The Bell basis is fixed everywhere as
(phi+, psi-, psi+, phi-); keeping one ordering avoids silent coefficient
permutations between the simulator and the tests' recurrence oracle.

The simulator holds states in Pauli transfer form instead: a pair is the
real 4x4 matrix R[i, j] = Tr(rho sigma_i (x) sigma_j) with sigma in the order
(I, X, Y, Z), and a register of several pairs is the same form on more axes
(see channels). to_pauli and from_pauli convert a pair, pauli_fidelity reads
flat rows, and pauli_image gives a Clifford's signed permutation of the 16
Pauli strings. Density matrices appear only as results are read and in dejmps_step.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TwoQubitState = np.ndarray

_SQ2 = 1.0 / np.sqrt(2.0)

# Bell vectors in the fixed order (phi+, psi-, psi+, phi-).
PHI_PLUS = np.array([_SQ2, 0.0, 0.0, _SQ2], dtype=complex)
PSI_MINUS = np.array([0.0, _SQ2, -_SQ2, 0.0], dtype=complex)
PSI_PLUS = np.array([0.0, _SQ2, _SQ2, 0.0], dtype=complex)
PHI_MINUS = np.array([_SQ2, 0.0, 0.0, -_SQ2], dtype=complex)

BELL_VECTORS = (PHI_PLUS, PSI_MINUS, PSI_PLUS, PHI_MINUS)
_PHI_PLUS_PROJ = np.outer(PHI_PLUS, PHI_PLUS.conj())

I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class BellCoeffs(NamedTuple):
    """Diagonal weights on (phi+, psi-, psi+, phi-), in that order."""

    a: float
    b: float
    c: float
    d: float


def make_werner(f0: float) -> TwoQubitState:
    """Werner state with fidelity f0: a phi+ fraction plus white noise.

    ((4*f0-1)/3)|phi+><phi+| + ((1-f0)/3)*I4, valid for f0 in [0.25, 1].
    """
    if not 0.25 <= f0 <= 1.0:
        raise ValueError(f"werner fidelity must be in [0.25, 1], got {f0}")
    return ((4.0 * f0 - 1.0) / 3.0) * _PHI_PLUS_PROJ + ((1.0 - f0) / 3.0) * _I4


def bell_diagonal_state(coeffs: BellCoeffs) -> TwoQubitState:
    """Build the Bell-diagonal state with the given weights."""
    rho = np.zeros((4, 4), dtype=complex)
    for w, v in zip(coeffs, BELL_VECTORS):
        rho += w * np.outer(v, v.conj())
    return rho


def fidelity(rho: TwoQubitState) -> float:
    """Overlap <phi+|rho|phi+>, clamped into [0, 1] (see pauli_fidelity)."""
    return float(pauli_fidelity(to_pauli(rho).reshape(16)))


# ---------------------------------------------------------------------------
# Pauli transfer form of a pair: rho = sum_ij R[i, j] sigma_i (x) sigma_j / 4.
# The flat index of sigma_i (x) sigma_j is 4 i + j.

PAULI_ORDER = "IXYZ"
_PAULI_PAIRS = np.array([np.kron(PAULIS[a], PAULIS[b]) for a in PAULI_ORDER for b in PAULI_ORDER])
# Tr(rho P) = sum_ab rho[a, b] P[b, a], so row k of _TO_PAULI is P_k^T flattened
_TO_PAULI = _PAULI_PAIRS.transpose(0, 2, 1).reshape(16, 16)
_FROM_PAULI = _PAULI_PAIRS.reshape(16, 16).T / 4.0


def to_pauli(rho: TwoQubitState) -> np.ndarray:
    """Pauli coefficients R[i, j] = Tr(rho sigma_i (x) sigma_j) of a 4x4 state."""
    return (_TO_PAULI @ rho.reshape(16)).real.reshape(4, 4)


def from_pauli(r: np.ndarray) -> TwoQubitState:
    """The 4x4 density matrix with Pauli coefficients r (inverse of to_pauli)."""
    return (_FROM_PAULI @ r.reshape(16)).reshape(4, 4)


def pauli_fidelity(r: np.ndarray) -> np.ndarray:
    """<phi+|rho|phi+> = (R_II + R_XX - R_YY + R_ZZ) / 4 of flat rows r (last axis 16), clamped into [0, 1]."""
    return np.clip((r[..., 0] + r[..., 5] - r[..., 10] + r[..., 15]) / 4.0, 0.0, 1.0)


def pauli_image(unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with U P_k U^+ = sign[k] P_index[k] for a two-qubit Clifford U."""
    conj = unitary @ _PAULI_PAIRS @ unitary.conj().T
    coeffs = np.einsum("mab,kba->km", _PAULI_PAIRS, conj).real / 4.0
    index = np.abs(coeffs).argmax(axis=1)
    return index, np.rint(coeffs[np.arange(16), index])
