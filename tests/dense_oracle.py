"""Dense oracle of the Pauli-form pumping step.

step_branch_maps pushes every basis matrix of the joint 16x16 input through
the register channels, giving the step's four outcome branches as 16 -> 4
dimensional superoperators on density matrices. dense_pump_step samples a
step from them exactly as purify._pump_step samples from its gather tables,
and pauli_transfer rewrites the maps in the Pauli basis, where they must
equal the tables.
"""

from functools import lru_cache

import numpy as np

from purlink.channels import (
    CNOT,
    ImpossibleOutcomeError,
    PairRegister,
    depolarize_gate,
    measurement_branches,
)
from purlink.purify import ROT_PAIR
from purlink.states import PAULI_ORDER, PAULIS, to_pauli

PAULI_PAIRS = [np.kron(PAULIS[a], PAULIS[b]) for a in PAULI_ORDER for b in PAULI_ORDER]


@lru_cache(maxsize=16)
def step_branch_maps(p_g: float, p_m: float) -> np.ndarray:
    """(64, 256) maps: branch 2 ia + ib, output entry, joint input entry."""
    r16 = np.kron(ROT_PAIR, ROT_PAIR)
    maps = np.empty((4, 16, 256), dtype=complex)
    for row in range(16):
        for col in range(16):
            basis = np.zeros((16, 16), dtype=complex)
            basis[row, col] = 1.0
            reg = PairRegister(r16 @ basis @ r16.conj().T, ((0, "A"), (0, "B"), (1, "A"), (1, "B")))
            reg = depolarize_gate(reg, CNOT, (0, 2), p_g)
            reg = depolarize_gate(reg, CNOT, (1, 3), p_g)
            # Alice's sacrificial qubit, then Bob's (now at index 2); the
            # branch order (+1, +1), (+1, -1), (-1, +1), (-1, -1) is _pump_step's
            for ia, rho_a in enumerate(measurement_branches(reg.rho, 2, 4, "Z", p_m)):
                for ib, rho_b in enumerate(measurement_branches(rho_a, 2, 3, "Z", p_m)):
                    maps[2 * ia + ib, :, row * 16 + col] = rho_b.reshape(-1)
    return maps.reshape(64, 256)


def pauli_transfer(maps: np.ndarray) -> np.ndarray:
    """(4, 16, 256) real: output Pauli coefficient per joint input string (main, sac)."""
    out = np.empty((4, 16, 256))
    for k, pk in enumerate(PAULI_PAIRS):
        for l, pl in enumerate(PAULI_PAIRS):
            # the state with the single joint coefficient R_main[k] R_sac[l] = 1
            branches = (maps @ (np.kron(pk, pl).reshape(-1) / 16.0)).reshape(4, 4, 4)
            for b in range(4):
                out[b, :, 16 * k + l] = to_pauli(branches[b]).reshape(-1)
    return out


def dense_pump_step(maps: np.ndarray, main: np.ndarray, sac: np.ndarray, rng):
    """Sample a step on density matrices (Alice's uniform, then Bob's)."""
    diag = np.arange(4)
    joint = (main[:, None, :, None] * sac[None, :, None, :]).reshape(-1)
    branches = (maps @ joint).reshape(4, 4, 4)
    traces = branches[:, diag, diag].sum(axis=1).real
    total = traces.sum()
    if total < 1e-15:
        raise ImpossibleOutcomeError("all step branches have vanishing probability")
    out_a = 1 if rng.random() < (traces[0] + traces[1]) / total else -1
    base = 0 if out_a == 1 else 2
    sub = traces[base] + traces[base + 1]
    out_b = 1 if rng.random() < traces[base] / sub else -1
    idx = base + (0 if out_b == 1 else 1)
    return out_a, out_b, branches[idx] / traces[idx], float(traces[idx] / total)
