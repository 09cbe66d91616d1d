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
from typing import Optional

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
# Two-qubit gates, applied bilaterally by purify.clifford_lanes

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


def sample_branches(branches: np.ndarray, u) -> tuple[list, list, np.ndarray, list]:
    """Draw Alice's outcome, then Bob's, from the four branches of a pair measurement, lane by lane.

    branches[i, :, b] is lane i's branch b, an unnormalized Pauli form in the
    order of readout whose entry 0, the identity string, is its weight;
    u[i] holds lane i's two uniforms, Alice's first. Returns (out_a, out_b,
    post, prob): the +1/-1 outcomes and the drawn branch's probability as
    lists over the lanes, and post, the drawn columns renormalized. The
    draws are scalar arithmetic per lane, so a lane's outcome does not
    depend on its batch.
    """
    outs_a, outs_b, drawn, weights, probs = [], [], [], [], []
    for (t0, t1, t2, t3), (u_a, u_b) in zip(branches[:, 0].tolist(), u):
        total = t0 + t1 + t2 + t3
        if total < 1e-15:
            raise ImpossibleOutcomeError("all measurement branches have vanishing probability")
        out_a = 1 if u_a < (t0 + t1) / total else -1
        base, first, second = (0, t0, t1) if out_a == 1 else (2, t2, t3)
        sub = first + second
        if sub < 1e-15:
            raise ImpossibleOutcomeError("selected measurement branch is impossible")
        out_b = 1 if u_b < first / sub else -1
        weight = first if out_b == 1 else second
        if weight < 1e-15:
            raise ImpossibleOutcomeError("selected measurement branch is impossible")
        outs_a.append(out_a)
        outs_b.append(out_b)
        drawn.append(base + (out_b == -1))
        weights.append(weight)
        probs.append(weight / total)
    post = branches[np.arange(len(drawn)), :, drawn] / np.array(weights)[:, None]
    return outs_a, outs_b, post, probs


_BASIS_INDEX = {"X": 1, "Y": 2, "Z": 3}


def measure_branches(r: np.ndarray, pair: int, basis: str, p_m: float) -> np.ndarray:
    """The four outcome branches of measuring pair `pair` of each lane's register.

    r holds one flat register per row. Only the strings with I or the basis
    Pauli on the measured axes contribute, weighted through readout; the
    result has shape (lanes, rest, 4), rest the size of the other pairs'
    register.
    """
    if basis not in _BASIS_INDEX:
        raise ValueError(f"measurement basis must be X, Y or Z, got {basis!r}")
    keep = [0, _BASIS_INDEX[basis]]
    lanes = r.shape[0]
    sel = r.reshape(lanes, 16**pair, 4, 4, -1)[:, :, keep][:, :, :, keep]
    return np.matmul(sel.transpose(0, 1, 4, 2, 3).reshape(lanes, -1, 4), readout(p_m))


# ---------------------------------------------------------------------------
# Memory decoherence

def decay_transfer(dts, noise: NoiseParams, memo: Optional[dict] = None) -> np.ndarray:
    """The one-qubit transfer matrix T of the memory channel for each duration, stacked.

    On a qubit's (I, X, Y, Z) axis,
    T = [[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [lam, 0, 0, 1-lam]] with
    c = sqrt(1-lam) (1-2 p_z), where lam and p_z are the damping_lambda and
    dephasing_pz of the Kraus oracle (tests/dense_oracle.py), inlined here
    term for term. They are computed lane by lane with math, so a lane's T
    does not depend on its batch. memo, a dict the caller keeps for one
    noise, holds (lam, c) for each duration met, so each distinct duration
    is computed once; a negative duration raises ValueError and is never
    kept.
    """
    t1, t2 = noise.t1, noise.t2
    damped, dephased = not math.isinf(t1), not math.isinf(t2)
    exp, sqrt = math.exp, math.sqrt
    memo = {} if memo is None else memo
    lams, cs = [], []
    for dt in dts:
        rates = memo.get(dt)
        if rates is None:
            if dt < 0:
                raise ValueError(f"negative duration {dt}")
            lam = 1.0 - exp(-dt / t1) if damped else 0.0
            p_z = 0.5 * (1.0 - exp(-(dt / t2 if dephased else 0.0) + (dt / (2.0 * t1) if damped else 0.0)))
            rates = memo[dt] = lam, sqrt(1.0 - lam) * (1.0 - 2.0 * p_z)
        lams.append(rates[0])
        cs.append(rates[1])
    t = np.zeros((len(lams), 16))
    t[:, 0] = 1.0
    t[:, 5] = t[:, 10] = cs
    t[:, 12] = lams
    t[:, 15] = 1.0 - t[:, 12]
    return t.reshape(-1, 4, 4)


def decohere_lanes(
    r: np.ndarray, pair: int, dts: list, noise: NoiseParams, memo: Optional[dict] = None
) -> np.ndarray:
    """Store pair `pair` of row i of r for dts[i] seconds: decay_transfer's T on both its axes.

    r holds one flat register per row. A zero duration leaves its row as it
    is, and a negative one raises ValueError. The other lanes take the same
    two stacked products whatever the batch, so no lane's result depends on it.
    memo is passed to decay_transfer, which fills it.
    """
    busy = [j for j, dt in enumerate(dts) if dt != 0.0]
    if len(busy) < len(dts):
        if busy:
            r = r.copy()
            r[busy] = decohere_lanes(r[busy], pair, [dts[j] for j in busy], noise, memo)
        return r
    t = decay_transfer(dts, noise, memo)
    lanes, size = r.shape
    if size == 16:  # a lone pair: T R T^T
        return np.matmul(np.matmul(t, r.reshape(lanes, 4, 4)), t.transpose(0, 2, 1)).reshape(lanes, 16)
    # each register as (pre, A, B, post): T on A as rows of a matrix, then on
    # B as columns
    pre = 16**pair
    post = size // (16 * pre)
    x = np.matmul(t, r.reshape(lanes, pre, 4, -1).transpose(0, 2, 1, 3).reshape(lanes, 4, -1))
    y = np.matmul(
        x.reshape(lanes, 4, pre, 4, post).transpose(0, 1, 2, 4, 3).reshape(lanes, -1, 4),
        t.transpose(0, 2, 1),
    )
    return y.reshape(lanes, 4, pre, post, 4).transpose(0, 2, 1, 4, 3).reshape(lanes, size)


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
