"""Noise and loss models.

Imperfect pair measurement, memory decoherence (amplitude damping then
dephasing) and the fiber / free-space transmissivities. The channels are
pure: they take a register and return a new one.

A register of m pairs is held in Pauli transfer form: the real array of shape
(4,) * 2m whose entry at (s_1, ..., s_2m) is Tr(rho sigma_s1 (x) ... (x)
sigma_s2m), with sigma in the order (I, X, Y, Z) and the (A, B) axes of each
pair adjacent. A lone pair is the case m = 1, the 4x4 matrix of
states.to_pauli. Two registers join by np.multiply.outer; the gates and
rotations are signed gathers in purify. The dense Kraus and embedding forms
of these channels are the test oracle (tests/dense_oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


# ---------------------------------------------------------------------------
# Two-qubit gates, applied bilaterally by purify.pauli_clifford

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

TWO_QUBIT_GATES = {"CNOT": CNOT, "CZ": CZ}


# ---------------------------------------------------------------------------
# Measurement

@lru_cache(maxsize=16)
def readout(p_m: float) -> np.ndarray:
    """read[z, b]: weight of measured pattern z in outcome branch b of a pair.

    z = 2 za + zb says whether Alice's (za) and Bob's (zb) measured axis holds
    I (0) or the basis Pauli (1); b orders (Alice, Bob) as (+1, +1), (+1, -1),
    (-1, +1), (-1, -1). Each measured qubit halves a coefficient and reads its
    basis Pauli as the outcome times 2 p_m - 1.
    """
    e = 2.0 * p_m - 1.0
    read = np.array([
        [0.25 * (out_a * e) ** za * (out_b * e) ** zb for out_a in (1, -1) for out_b in (1, -1)]
        for za in (0, 1) for zb in (0, 1)
    ])
    read.flags.writeable = False  # shared by every caller
    return read


def sample_branches(branches: np.ndarray, rng) -> tuple[int, int, np.ndarray, float]:
    """Draw Alice's outcome, then Bob's, from the four branches of a pair measurement.

    Column b of branches is branch b's unnormalized Pauli form, in the order
    of readout; row 0, the identity string, is its weight. Returns (out_a,
    out_b, post, prob) with post the drawn column renormalized.
    """
    traces = branches[0].tolist()
    total = sum(traces)
    if total < 1e-15:
        raise ImpossibleOutcomeError("all measurement branches have vanishing probability")
    out_a = 1 if rng.random() < (traces[0] + traces[1]) / total else -1
    base = 0 if out_a == 1 else 2
    sub = traces[base] + traces[base + 1]
    if sub < 1e-15:
        raise ImpossibleOutcomeError("selected measurement branch is impossible")
    out_b = 1 if rng.random() < traces[base] / sub else -1
    idx = base + (0 if out_b == 1 else 1)
    if traces[idx] < 1e-15:
        raise ImpossibleOutcomeError("selected measurement branch is impossible")
    return out_a, out_b, branches[:, idx] / traces[idx], traces[idx] / total


_BASIS_INDEX = {"X": 1, "Y": 2, "Z": 3}


def pauli_measure(
    r: np.ndarray, pair: int, basis: str, p_m: float, rng
) -> tuple[int, int, np.ndarray, float]:
    """Measure both qubits of the pair at position `pair` in a Pauli basis and drop them.

    Each qubit declares outcome o with the imperfect projection
    p_m P_o + (1-p_m) P_!o. Only the strings with I or the basis Pauli on the
    measured axes contribute, weighted through readout. Returns (out_a, out_b,
    rest, prob): rest is the renormalized register of the other pairs, prob
    the probability of the drawn branch.
    """
    if basis not in _BASIS_INDEX:
        raise ValueError(f"measurement basis must be X, Y or Z, got {basis!r}")
    keep = [0, _BASIS_INDEX[basis]]
    sel = r.reshape(16**pair, 4, 4, -1)[:, keep][:, :, keep]
    branches = np.dot(sel.transpose(0, 3, 1, 2).reshape(-1, 4), readout(p_m))
    out_a, out_b, post, prob = sample_branches(branches, rng)
    return out_a, out_b, post.reshape(r.shape[2:]), prob


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


def _memory_decay(dt: float, noise: NoiseParams) -> tuple[float, float]:
    """(lam, c) of the memory channel: the damping and the coherence factor."""
    lam = _damping_lambda(dt, noise.t1)
    p_z = _dephasing_pz(dt, noise.t1, noise.t2)
    return lam, math.sqrt(1.0 - lam) * (1.0 - 2.0 * p_z)


_EYE4 = np.eye(4)


def pauli_decohere(r: np.ndarray, pair: int, dt: float, noise: NoiseParams) -> np.ndarray:
    """Amplitude damping then dephasing for dt on both qubits of one pair.

    On one qubit's (I, X, Y, Z) axis the channel is
    T = [[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [lam, 0, 0, 1-lam]] with
    lam the damping and c = sqrt(1-lam) (1-2 p_z), so a lone pair maps to
    T R T^T.
    """
    if dt < 0:
        raise ValueError(f"negative duration {dt}")
    if dt == 0.0:
        return r
    lam, c = _memory_decay(dt, noise)
    t = _EYE4.copy()
    t[1, 1] = t[2, 2] = c
    t[3, 0], t[3, 3] = lam, 1.0 - lam
    if r.ndim == 2:  # every pumping pair: the reshapes below cost more than the products
        return np.dot(np.dot(t, r), t.T)
    # r as (pre, A, B, post); the same two products, T on A as rows of a
    # matrix, then on B as columns
    pre = 16**pair
    post = r.size // (16 * pre)
    x = np.dot(t, r.reshape(pre, 4, -1).transpose(1, 0, 2).reshape(4, -1))
    y = np.dot(x.reshape(4, pre, 4, post).transpose(0, 1, 3, 2).reshape(-1, 4), t.T)
    return y.reshape(4, pre, post, 4).transpose(1, 0, 3, 2).reshape(r.shape)


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
