"""Purification mechanics.

The DEJMPS pumping step kernel that every timed engine runs and a small
circuit DSL for externally supplied purification circuits.

Every state is held in Pauli transfer form (see channels). The DSL's
rotations and gates are cached signed gathers on a stack of registers
(clifford_lanes), and the step kernel gathers through tables read off the
same gathers composed on two pairs. The dense form of the step and of the
DSL interpreter, and the analytic Bell-diagonal recurrence, are the test
oracle (tests/dense_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Union

import numpy as np

from .channels import TWO_QUBIT_GATES, NoiseParams, readout, sample_branches
from .states import I2, PAULI_X, TwoQubitState, from_pauli, pauli_image, to_pauli

# Bilateral twirl rotations: Alice rotates +pi/2 about X, Bob -pi/2. Which
# side takes which sign is conventionally arbitrary; Alice gets the plus.
ROT_ALICE = (I2 - 1j * PAULI_X) / np.sqrt(2.0)
ROT_BOB = (I2 + 1j * PAULI_X) / np.sqrt(2.0)
ROT_PAIR = np.kron(ROT_ALICE, ROT_BOB)  # on one pair's (A, B) qubits


@dataclass(frozen=True, eq=False)  # arrays have no truth value: compare by identity
class StepOutcome:
    success: bool
    alice_outcome: int  # +1 / -1
    bob_outcome: int
    post_state: TwoQubitState
    branch_prob: float


# ROT and the bilateral gates are Clifford, so each maps a Pauli string to
# one signed Pauli string (Aaronson and Gottesman, PRA 70, 052328, 2004); a
# depolarizing gate also scales every string that is not I on both its qubits
# by p_g. In gather form, output string s takes fac[s] times input string
# src[s].

_ONES = np.ones(16, dtype=np.intp)


def _gather_form(unitary: np.ndarray, p_g: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(src, fac) of a two-qubit Clifford on the 16 strings of its two qubits."""
    index, sign = pauli_image(unitary)
    src = np.argsort(index)
    return src, sign[src] * np.where(np.arange(16) > 0, p_g, 1.0)


_ROT = _gather_form(ROT_PAIR)


def _push(x: np.ndarray, src: np.ndarray, fac: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    """Apply the two-axis gather (src, fac) to the given axes of x."""
    moved = np.moveaxis(x, axes, (0, 1))
    out = moved.reshape(16, -1)[src] * fac[:, None]
    return np.moveaxis(out.reshape(moved.shape), (0, 1), axes)


@lru_cache(maxsize=64)
def _gather(ops: tuple, m: int, p_g: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat (src, fac) of a sequence of Clifford ops on a register of m pairs.

    ops holds ("ROT", (pair,)) and (gate, (control, target)) entries, applied
    in order, with pairs given by register position; together they map r to
    fac * r.flat[src].
    """
    src = np.arange(16**m).reshape((4,) * (2 * m))
    fac = np.ones(src.shape)
    for op, pairs in ops:
        if op == "ROT":
            moves = ((_ROT, (2 * pairs[0], 2 * pairs[0] + 1)),)
        else:
            gate = _gather_form(TWO_QUBIT_GATES[op], p_g)
            c, t = 2 * pairs[0], 2 * pairs[1]
            moves = ((gate, (c, t)), (gate, (c + 1, t + 1)))  # Alice's qubits, then Bob's
        for (g_src, g_fac), axes in moves:
            src = _push(src, g_src, _ONES, axes)
            fac = _push(fac, g_src, g_fac, axes)
    src, fac = src.reshape(-1), fac.reshape(-1)
    src.flags.writeable = fac.flags.writeable = False  # shared by every caller
    return src, fac


def clifford_lanes(r: np.ndarray, op: str, pairs: tuple[int, ...], p_g: float = 1.0) -> np.ndarray:
    """ROT on pairs[0], or the bilateral gate op from pairs[0] onto pairs[1], on every row of r.

    r holds one flat register per lane, and pairs are register positions.
    The rotation is noiseless; each gate depolarizes with success
    probability p_g.
    """
    pairs_held = (r.shape[1].bit_length() - 1) // 4  # a row holds 16**pairs_held strings
    src, fac = _gather(((op, pairs),), pairs_held, p_g)
    return r[:, src] * fac


@lru_cache(maxsize=16)
def _step_tables(p_g: float, p_m: float) -> tuple[np.ndarray, ...]:
    """Gather tables (main_idx, sac_idx, gate, read) of the pumping step.

    Entry (o, z) of the first three names the main and sacrificial input
    strings that reach output string o of the main pair with the sacrificial
    qubits reading z in (II, IZ, ZI, ZZ), and the signed gate-noise factor
    of that path. read[z, b] is the measurement factor of pattern z in
    outcome branch b, ordered (+1, +1), (+1, -1), (-1, +1), (-1, -1) for
    (Alice, Bob), so branch b of output o is sum_z gate * read * main * sac.
    Read off the composed gather of both rotations and the bilateral CNOT
    on the two-pair register (main, sac).
    """
    src, fac = _gather((("ROT", (0,)), ("ROT", (1,)), ("CNOT", (0, 1))), 2, p_g)
    kept = [0, 3, 12, 15]  # output string 16 o + s with s = II, IZ, ZI or ZZ on sac
    src, gate = src.reshape(16, 16)[:, kept], fac.reshape(16, 16)[:, kept]
    return src // 16, src % 16, gate, readout(p_m)


def _pump_step(
    tables: tuple, main: np.ndarray, sac: np.ndarray, u
) -> tuple[list, list, np.ndarray, list]:
    """Sample a step on each lane's Pauli-form pairs through channels.sample_branches.

    main and sac hold one flat pair per row, u each lane's two uniforms.
    Returns sample_branches' (out_a, out_b, post, prob), post in flat Pauli
    form. Every lane takes the same elementwise products and one stacked
    matmul, so its result does not depend on the batch.
    """
    main_idx, sac_idx, gate, read = tables
    branches = np.matmul(gate * main[:, main_idx] * sac[:, sac_idx], read)
    return sample_branches(branches, u)


def dejmps_step(
    main: TwoQubitState, sac: TwoQubitState, noise: NoiseParams, rng
) -> StepOutcome:
    """One pumping step: sacrifice `sac` to purify `main`.

    Both pairs get the bilateral twirl rotation, CNOTs run from the main
    qubits onto the sacrificial ones through the depolarizing gate channel,
    and the sacrificial qubits are Z-measured with imperfect projection.
    Success is coincidence (equal outcomes); post_state is the conditioned
    main pair either way. It samples through _pump_step, the kernel that
    the timed engines run, as a batch of one, converting to and from Pauli
    form at the call.
    """
    tables = _step_tables(noise.p_g, noise.p_m)
    out_a, out_b, post, prob = _pump_step(
        tables, to_pauli(main).reshape(1, 16), to_pauli(sac).reshape(1, 16), [(rng.random(), rng.random())]
    )
    return StepOutcome(out_a[0] == out_b[0], out_a[0], out_b[0], from_pauli(post[0]), prob[0])


# ---------------------------------------------------------------------------
# Circuit DSL
#
# Line-oriented text, '#' for comments:
#   PAIRS n
#   ROT p                      bilateral twirl rotation (noiseless)
#   GATE CNOT c t              bilateral two-qubit gate (depolarizing)
#   GATE CZ c t
#   MEASURE p BASIS Z KEEP equal
#
# Pairs are numbered 0..n-1 in arrival order and must be first referenced in
# that order. Exactly one pair survives unmeasured. At most three pairs may
# be live at once (the register cap).

MAX_LIVE_PAIRS = 3


class CircuitError(ValueError):
    """Raised for DSL parse or validation failures, with a line number."""


@dataclass(frozen=True)
class Rot:
    pair: int


@dataclass(frozen=True)
class Gate:
    kind: str  # CNOT | CZ
    control_pair: int
    target_pair: int


@dataclass(frozen=True)
class Measure:
    pair: int
    basis: str  # X | Y | Z
    keep_equal: bool


Instruction = Union[Rot, Gate, Measure]


@dataclass(frozen=True)
class PurificationCircuit:
    num_pairs: int
    instructions: tuple[Instruction, ...]
    survivor: int
    max_live: int


def _fail(line_no: int, msg: str) -> CircuitError:
    return CircuitError(f"line {line_no}: {msg}")


def parse_circuit(text: str) -> PurificationCircuit:
    num_pairs = None
    instructions: list[Instruction] = []
    referenced: list[int] = []  # first-reference order
    measured: set[int] = set()
    max_live = 0

    def touch(line_no: int, pair: int) -> None:
        if num_pairs is None or not 0 <= pair < num_pairs:
            raise _fail(line_no, f"pair index {pair} out of range")
        if pair in measured:
            raise _fail(line_no, f"pair {pair} was already measured")
        if pair not in referenced:
            if pair != len(referenced):
                raise _fail(
                    line_no,
                    f"pair {pair} referenced before pair {len(referenced)} "
                    "(pairs arrive in index order)",
                )
            referenced.append(pair)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op = tokens[0]
        measured_before = len(measured)
        if op == "PAIRS":
            if num_pairs is not None:
                raise _fail(line_no, "duplicate PAIRS line")
            if len(tokens) != 2 or not tokens[1].isdecimal() or int(tokens[1]) < 1:
                raise _fail(line_no, "expected: PAIRS <positive integer>")
            num_pairs = int(tokens[1])
            continue
        if num_pairs is None:
            raise _fail(line_no, "PAIRS must come before instructions")
        if op == "ROT":
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise _fail(line_no, "expected: ROT <pair>")
            pair = int(tokens[1])
            touch(line_no, pair)
            instructions.append(Rot(pair))
        elif op == "GATE":
            if len(tokens) != 4 or tokens[1] not in TWO_QUBIT_GATES:
                raise _fail(line_no, "expected: GATE CNOT|CZ <control> <target>")
            if not (tokens[2].isdecimal() and tokens[3].isdecimal()):
                raise _fail(line_no, "gate pair indices must be integers")
            control, target = int(tokens[2]), int(tokens[3])
            if control == target:
                raise _fail(line_no, "gate control and target must differ")
            touch(line_no, control)
            touch(line_no, target)
            instructions.append(Gate(tokens[1], control, target))
        elif op == "MEASURE":
            if (
                len(tokens) != 6
                or tokens[2] != "BASIS"
                or tokens[3] not in ("X", "Y", "Z")
                or tokens[4] != "KEEP"
                or tokens[5] not in ("equal", "unequal")
                or not tokens[1].isdecimal()
            ):
                raise _fail(
                    line_no, "expected: MEASURE <pair> BASIS X|Y|Z KEEP equal|unequal"
                )
            pair = int(tokens[1])
            touch(line_no, pair)
            measured.add(pair)
            instructions.append(Measure(pair, tokens[3], tokens[5] == "equal"))
        else:
            raise _fail(line_no, f"unknown instruction {op!r}")
        # A pair measured by this instruction still occupies its slot during it.
        live = len(referenced) - measured_before
        max_live = max(max_live, live)
        if live > MAX_LIVE_PAIRS:
            raise _fail(
                line_no, f"{live} pairs live at once, register holds {MAX_LIVE_PAIRS}"
            )

    if num_pairs is None:
        raise CircuitError("missing PAIRS line")
    # A trailing pair may go untouched (it is then the survivor); anything
    # beyond that leaves two pairs unmeasured and fails the check below.
    # Counting, not listing, keeps a huge PAIRS count cheap to reject.
    n_survivors = num_pairs - len(measured)
    if n_survivors != 1:
        raise CircuitError(
            f"exactly one pair must survive unmeasured, found {n_survivors}"
        )
    survivor = next((p for p in referenced if p not in measured), len(referenced))
    # The survivor holds a slot even if no instruction ever touches it.
    return PurificationCircuit(
        num_pairs, tuple(instructions), survivor, max(max_live, 1)
    )


def load_circuit(path: str | Path) -> PurificationCircuit:
    return parse_circuit(Path(path).read_text())
