"""Noise and loss models.

Gate depolarization, imperfect measurement, amplitude damping, dephasing,
and the fiber / free-space transmissivities. All channel functions are pure:
they take a register and return a new one.

Gates, rotations and measurements contract the register over only the qubits
they act on; no 2^n x 2^n operator is built. decohere is the memory channel
of a register; pair_decohere is the same channel on a lone pair held in
Pauli transfer form (see states.to_pauli). The embedding helpers of states
(embed_single, embed_two, insert_mixed) and the Kraus ops amplitude_damp and
dephase are the dense test oracle of these channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import PAULIS, TwoQubitState, embed_single, trace_out


class ImpossibleOutcomeError(RuntimeError):
    """Both measurement branches have (numerically) zero probability."""


@dataclass(frozen=True)
class NoiseParams:
    """Gate, measurement, and memory noise parameters.

    t1/t2 are seconds; math.inf disables the corresponding damping. The
    dephasing formula needs t2 <= 2*t1 to stay a valid channel.
    """

    p_g: float = 0.99
    p_m: float = 0.99
    t1: float = 360.0
    t2: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_g <= 1.0:
            raise ValueError(f"p_g must be in [0, 1], got {self.p_g}")
        if not 0.0 <= self.p_m <= 1.0:
            raise ValueError(f"p_m must be in [0, 1], got {self.p_m}")
        if not self.t1 > 0 or not self.t2 > 0:
            raise ValueError("t1 and t2 must be positive")
        if self.t2 > 2.0 * self.t1:
            raise ValueError(f"t2 must be <= 2*t1, got t2={self.t2}, t1={self.t1}")


@dataclass(frozen=True)
class PairRegister:
    """Joint state over the stored qubits of up to three pairs.

    qubits lists (pair_label, side) per tensor slot, side in {"A", "B"};
    qubit 0 is the leftmost factor of rho. Pairs normally occupy adjacent
    (A, B) slots, but a register may transiently hold a lone qubit while its
    partner is being measured out.
    """

    rho: np.ndarray
    qubits: tuple[tuple[int, str], ...]

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def pair_labels(self) -> tuple[int, ...]:
        seen: list[int] = []
        for label, _ in self.qubits:
            if label not in seen:
                seen.append(label)
        return tuple(seen)

    def qubit_index(self, pair_label: int, side: str) -> int:
        return self.qubits.index((pair_label, side))


def register_from_pair(state: TwoQubitState, pair_label: int) -> PairRegister:
    return PairRegister(np.array(state, dtype=complex), ((pair_label, "A"), (pair_label, "B")))


def join(reg_a: PairRegister, reg_b: PairRegister) -> PairRegister:
    """Tensor two registers; reg_a's qubits stay leftmost."""
    return PairRegister(np.kron(reg_a.rho, reg_b.rho), reg_a.qubits + reg_b.qubits)


def extract_pair(reg: PairRegister, pair_label: int) -> TwoQubitState:
    """Trace out everything but the named pair, ordered (A, B)."""
    ia = reg.qubit_index(pair_label, "A")
    ib = reg.qubit_index(pair_label, "B")
    others = tuple(i for i in range(reg.n_qubits) if i not in (ia, ib))
    rho = trace_out(reg.rho, others, reg.n_qubits)
    if ia > ib:
        rho = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return rho


# ---------------------------------------------------------------------------
# Contraction on a few qubits. rho is viewed as t[a, m, b, m'] with the listed
# qubits first (a, b index them in the given order) and the other qubits in
# their register order (m, m').

@lru_cache(maxsize=256)
def _axes(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis permutation of the (2,)*2n tensor that puts qubits first, and its inverse."""
    order = [*qubits, *(q for q in range(n) if q not in qubits)]
    order += [n + q for q in order]
    return tuple(order), tuple(sorted(range(2 * n), key=order.__getitem__))


def _front(rho: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """rho as a (2^k, 2^(n-k), 2^k, 2^(n-k)) array, the k listed qubits first."""
    k, m = 1 << len(qubits), 1 << (n - len(qubits))
    return rho.reshape((2,) * (2 * n)).transpose(_axes(qubits, n)[0]).reshape(k, m, k, m)


def _back(t: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Inverse of _front: the 2^n x 2^n matrix in register order."""
    inverse = _axes(qubits, n)[1]
    return t.reshape((2,) * (2 * n)).transpose(inverse).reshape(1 << n, 1 << n)


def _conjugate(t: np.ndarray, op: np.ndarray) -> np.ndarray:
    """(op (x) I) t (op (x) I)^+ on a front view, as a front view."""
    k, m = t.shape[0], t.shape[1]
    left = (op @ t.reshape(k, -1)).reshape(k, m, k, m)
    # contract the column index b with conj(op[b', b]); the result is (b', a, m, m')
    both = op.conj() @ left.transpose(2, 0, 1, 3).reshape(k, -1)
    return both.reshape(k, k, m, m).transpose(1, 2, 0, 3)


def apply_unitary(reg: PairRegister, unitary: np.ndarray, qubits: tuple[int, ...]) -> PairRegister:
    """Noiseless unitary on the listed qubits; its first index is qubits[0]."""
    n = reg.n_qubits
    out = _conjugate(_front(reg.rho, qubits, n), unitary)
    return PairRegister(_back(out, qubits, n), reg.qubits)


# ---------------------------------------------------------------------------
# Gate noise

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

TWO_QUBIT_GATES = {"CNOT": CNOT, "CZ": CZ}


def depolarize_gate(
    reg: PairRegister, unitary: np.ndarray, qubits: tuple[int, int], p_g: float
) -> PairRegister:
    """Apply a controlled two-qubit gate that succeeds with probability p_g.

    On failure the two acted qubits are replaced by the maximally mixed
    state: p_g * U rho U+ + (1 - p_g) * Tr_{i,j}(rho) (x) I/4, with the
    identity factor re-inserted at the gate's qubit positions.
    """
    i, j = qubits
    n = reg.n_qubits
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid gate qubits {qubits} for a {n}-qubit register")
    t = _front(reg.rho, qubits, n)
    out = _conjugate(t, unitary)
    if p_g < 1.0:
        # the larger qubit is summed first, as trace_out does
        pairs = ((0, 1), (2, 3)) if i < j else ((0, 2), (1, 3))
        rest = sum(t[a, :, a, :] + t[b, :, b, :] for a, b in pairs)
        mixed = (1.0 - p_g) * (rest * 0.25)
        out = p_g * out
        for a in range(4):
            out[a, :, a, :] += mixed
    return PairRegister(_back(out, qubits, n), reg.qubits)


# ---------------------------------------------------------------------------
# Measurement

_SQ2 = 1.0 / math.sqrt(2.0)
# (+1, -1) eigenvectors of each measurement basis
_EIGENVECTORS = {
    "X": (np.array([_SQ2, _SQ2]), np.array([_SQ2, -_SQ2])),
    "Y": (np.array([_SQ2, 1j * _SQ2]), np.array([_SQ2, -1j * _SQ2])),
}


def measurement_branches(
    rho: np.ndarray, qubit: int, n_qubits: int, basis: str, p_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced (+1, -1) branches Tr_q[p_m P_o rho P_o + (1-p_m) P_!o rho P_!o].

    The measured qubit is already traced out, so each branch covers the other
    n_qubits - 1 qubits in register order; its trace is the probability of
    declaring o. Tr_q[P_o rho P_o] = sum_xy conj(v_o[x]) v_o[y] rho[x., y.] for
    the eigenvector v_o of outcome o.
    """
    r = _front(rho, (qubit,), n_qubits)
    if basis == "Z":
        kept_plus, kept_minus = r[0, :, 0, :], r[1, :, 1, :]
    else:
        kept_plus, kept_minus = (
            sum(v[x].conjugate() * v[y] * r[x, :, y, :] for x in (0, 1) for y in (0, 1))
            for v in _EIGENVECTORS[basis]
        )
    return p_m * kept_plus + (1.0 - p_m) * kept_minus, p_m * kept_minus + (1.0 - p_m) * kept_plus


def noisy_measure(
    reg: PairRegister, qubit: int, basis: str, p_m: float, u: float
) -> tuple[int, PairRegister, float]:
    """Measure one qubit in a Pauli basis with imperfect projection.

    The declared outcome o carries probability Tr[(p_m P_o + (1-p_m) P_!o) rho];
    the post-state is the matching imperfect projection, renormalized, with
    the measured qubit traced out immediately. u in [0,1) picks the outcome
    by threshold. Returns (outcome as +1/-1, new register, branch probability).
    """
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"measurement basis must be X, Y or Z, got {basis!r}")
    branch_plus, branch_minus = measurement_branches(reg.rho, qubit, reg.n_qubits, basis, p_m)
    prob_plus = float(np.real(np.trace(branch_plus)))
    prob_minus = float(np.real(np.trace(branch_minus)))
    total = prob_plus + prob_minus
    if total < 1e-15:
        raise ImpossibleOutcomeError("measurement branch probabilities underflowed")

    if u < prob_plus / total:
        outcome, post, prob = 1, branch_plus, prob_plus / total
    else:
        outcome, post, prob = -1, branch_minus, prob_minus / total
    if prob < 1e-15:
        raise ImpossibleOutcomeError("sampled a zero-probability measurement branch")

    rho = post / np.trace(post)
    labels = reg.qubits[:qubit] + reg.qubits[qubit + 1 :]
    return outcome, PairRegister(rho, labels), prob


# ---------------------------------------------------------------------------
# Memory decoherence

def _damping_lambda(t: float, t1: float) -> float:
    if t < 0:
        raise ValueError(f"negative duration {t}")
    if math.isinf(t1):
        return 0.0
    return 1.0 - math.exp(-t / t1)


def _dephasing_pz(t: float, t1: float, t2: float) -> float:
    if t < 0:
        raise ValueError(f"negative duration {t}")
    if t2 > 2.0 * t1:
        raise ValueError("dephasing needs t2 <= 2*t1")
    decay = 0.0 if math.isinf(t2) else t / t2
    revive = 0.0 if math.isinf(t1) else t / (2.0 * t1)
    return 0.5 * (1.0 - math.exp(-decay + revive))


def amplitude_damp(reg: PairRegister, qubit: int, t: float, t1: float) -> PairRegister:
    """Relaxation toward |0> for duration t with time constant t1."""
    lam = _damping_lambda(t, t1)
    if lam == 0.0:
        return reg
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(lam)], [0.0, 0.0]], dtype=complex)
    n = reg.n_qubits
    k0 = embed_single(e0, qubit, n)
    k1 = embed_single(e1, qubit, n)
    rho = k0 @ reg.rho @ k0.conj().T + k1 @ reg.rho @ k1.conj().T
    return PairRegister(rho, reg.qubits)


def dephase(reg: PairRegister, qubit: int, t: float, t1: float, t2: float) -> PairRegister:
    """Phase flip with probability p_z(t; t1, t2) on one qubit."""
    p_z = _dephasing_pz(t, t1, t2)
    if p_z == 0.0:
        return reg
    z = embed_single(PAULIS["Z"], qubit, reg.n_qubits)
    rho = (1.0 - p_z) * reg.rho + p_z * (z @ reg.rho @ z)
    return PairRegister(rho, reg.qubits)


def _memory_decay(dt: float, noise: NoiseParams) -> tuple[float, float]:
    """(lam, c) of the memory channel: the damping and the coherence factor."""
    lam = _damping_lambda(dt, noise.t1)
    p_z = _dephasing_pz(dt, noise.t1, noise.t2)
    return lam, math.sqrt(1.0 - lam) * (1.0 - 2.0 * p_z)


def decohere(
    reg: PairRegister, qubits: tuple[int, ...] | list[int], dt: float, noise: NoiseParams
) -> PairRegister:
    """Amplitude damping then dephasing for dt on each listed qubit.

    The one memory channel, in closed form on each qubit's 2x2 blocks: rho_00
    gains lam * rho_11, then the blocks scale by [[1, c], [c, 1-lam]] with
    c = sqrt(1-lam) (1-2 p_z). amplitude_damp and dephase are its dense oracle.
    """
    if dt < 0:
        raise ValueError(f"negative duration {dt}")
    if dt == 0.0:
        return reg
    lam, c = _memory_decay(dt, noise)
    mask = np.array([[1.0, c], [c, 1.0 - lam]]).reshape(1, 2, 1, 2, 1)
    rho = np.array(reg.rho, dtype=complex)
    n = reg.n_qubits
    for q in qubits:
        lo, hi = 1 << q, 1 << (n - 1 - q)
        view = rho.reshape(lo, 2, hi * lo, 2, hi)
        view[:, 0, :, 0, :] += lam * view[:, 1, :, 1, :]
        view *= mask
    return PairRegister(rho, reg.qubits)


_EYE4 = np.eye(4)


def pair_decohere(r: np.ndarray, dt: float, noise: NoiseParams) -> np.ndarray:
    """decohere on both qubits of a lone pair held in Pauli transfer form.

    On one qubit's (I, X, Y, Z) coefficients the channel is
    T = [[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [lam, 0, 0, 1-lam]], with
    lam and c as in decohere, so the pair maps to T R T^T. decohere on the
    pair's register is its oracle.
    """
    if dt < 0:
        raise ValueError(f"negative duration {dt}")
    if dt == 0.0:
        return r
    lam, c = _memory_decay(dt, noise)
    t = _EYE4.copy()
    t[1, 1] = t[2, 2] = c
    t[3, 0], t[3, 3] = lam, 1.0 - lam
    return np.dot(np.dot(t, r), t.T)


# ---------------------------------------------------------------------------
# Loss

def fiber_transmissivity(l_km: float, alpha_f: float) -> float:
    """Photon survival over l km of fiber with attenuation alpha_f dB/km."""
    if l_km < 0 or alpha_f < 0:
        raise ValueError("length and attenuation must be non-negative")
    return 10.0 ** (-alpha_f * l_km / 10.0)


@dataclass(frozen=True)
class OpticalHardware:
    """Apertures and wavelength of the satellite downlink."""

    d_s: float = 0.2  # satellite aperture, m
    d_g: float = 2.0  # ground station aperture, m
    wavelength: float = 737e-9  # m


def diffraction_efficiency(l_o_km: float, hw: OpticalHardware) -> float:
    """Diffraction-limited collection efficiency of the free-space path.

    (pi d_s^2 / 4)(pi d_g^2 / 4) / (lambda * l_o)^2, clamped to 1; l_o is
    converted to meters.
    """
    if l_o_km <= 0:
        raise ValueError("free-space path must be positive")
    l_o_m = l_o_km * 1000.0
    num = (math.pi * hw.d_s**2 / 4.0) * (math.pi * hw.d_g**2 / 4.0)
    return min(num / (hw.wavelength * l_o_m) ** 2, 1.0)


def satellite_transmissivity(
    l_o_km: float, l_a_km: float, hw: OpticalHardware, alpha_a: float
) -> float:
    """Downlink photon survival: diffraction times atmospheric extinction."""
    if l_a_km < 0:
        raise ValueError("atmospheric path must be non-negative")
    eta_o = diffraction_efficiency(l_o_km, hw)
    eta_a = math.exp(-alpha_a * l_a_km)
    return eta_o * eta_a
