"""Purification mechanics.

The DEJMPS pumping step kernel that every timed engine runs, a small
circuit DSL for externally supplied purification circuits, and the analytic
Bell-diagonal recurrence oracle the simulator is tested against.

The step kernel works on pairs in Pauli transfer form (states.to_pauli)
through gather tables built in closed form per (p_g, p_m); the DSL
instructions act on dense registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .channels import (
    CNOT,
    TWO_QUBIT_GATES,
    ImpossibleOutcomeError,
    NoiseParams,
    PairRegister,
    apply_unitary,
    depolarize_gate,
    extract_pair,
    join,
    noisy_measure,
    register_from_pair,
)
from .states import BellCoeffs, I2, PAULI_X, TwoQubitState, from_pauli, pauli_image, to_pauli

# Bilateral twirl rotations: Alice rotates +pi/2 about X, Bob -pi/2. Which
# side takes which sign is conventionally arbitrary; Alice gets the plus.
ROT_ALICE = (I2 - 1j * PAULI_X) / np.sqrt(2.0)
ROT_BOB = (I2 + 1j * PAULI_X) / np.sqrt(2.0)
ROT_PAIR = np.kron(ROT_ALICE, ROT_BOB)  # on one pair's (A, B) qubits


@dataclass(frozen=True)
class StepOutcome:
    success: bool
    alice_outcome: int  # +1 / -1
    bob_outcome: int
    post_state: TwoQubitState
    branch_prob: float


def _rotate_pair(reg: PairRegister, pair_label: int) -> PairRegister:
    """Apply the bilateral DEJMPS rotation to one pair (noiseless 1q gates)."""
    ia = reg.qubit_index(pair_label, "A")
    ib = reg.qubit_index(pair_label, "B")
    return apply_unitary(reg, ROT_PAIR, (ia, ib))


def _bilateral_gate(
    reg: PairRegister, gate: np.ndarray, control_pair: int, target_pair: int, p_g: float
) -> PairRegister:
    """Apply the gate on Alice's qubits and on Bob's, each depolarizing."""
    for side in ("A", "B"):
        c = reg.qubit_index(control_pair, side)
        t = reg.qubit_index(target_pair, side)
        reg = depolarize_gate(reg, gate, (c, t), p_g)
    return reg


def _measure_pair(
    reg: PairRegister, pair_label: int, basis: str, p_m: float, rng
) -> tuple[int, int, PairRegister, float]:
    """Measure both qubits of a pair, Alice first, and drop them."""
    ia = reg.qubit_index(pair_label, "A")
    out_a, reg, prob_a = noisy_measure(reg, ia, basis, p_m, rng.random())
    ib = reg.qubit_index(pair_label, "B")
    out_b, reg, prob_b = noisy_measure(reg, ib, basis, p_m, rng.random())
    return out_a, out_b, reg, prob_a * prob_b


# Lone pairs are held in Pauli transfer form (states.to_pauli). The step's
# rotations and CNOTs are Clifford, so each maps a Pauli string to one signed
# Pauli string; a depolarizing CNOT also scales every string that is not I on
# both its qubits by p_g, and a Z measurement traces out X and Y on the
# measured qubit and reads a Z as the outcome times 2 p_m - 1. The step is
# therefore linear in main (x) sac with at most one input string per output.

# Signed permutations of the 16 two-qubit Pauli strings, index 4 i + j.
_ROT_INDEX, _ROT_SIGN = pauli_image(ROT_PAIR)
_CNOT_INDEX, _CNOT_SIGN = pauli_image(CNOT)
# gather form of the rotation: the source string of each output string
_ROT_SRC = np.argsort(_ROT_INDEX)
_ROT_SRC_SIGN = _ROT_SIGN[_ROT_SRC]


def _rotate_pauli(r: np.ndarray) -> np.ndarray:
    """The bilateral DEJMPS rotation of a lone pair in Pauli form."""
    return (r.reshape(16)[_ROT_SRC] * _ROT_SRC_SIGN).reshape(4, 4)


@lru_cache(maxsize=16)
def _step_tables(p_g: float, p_m: float) -> tuple[np.ndarray, ...]:
    """Gather tables (main_idx, sac_idx, gate, read) of the pumping step.

    Entry (o, z) of the first three names the main and sacrificial input
    strings that reach output string o of the main pair with the sacrificial
    qubits reading z in (II, IZ, ZI, ZZ), and the signed gate-noise factor
    of that path. read[z, b] is the measurement factor of pattern z in
    outcome branch b, ordered (+1, +1), (+1, -1), (-1, +1), (-1, -1) for
    (Alice, Bob), so branch b of output o is sum_z gate * read * main * sac.
    Built in closed form from the Pauli images of ROT_PAIR and CNOT.
    """
    main_idx = np.zeros((16, 4), dtype=np.intp)
    sac_idx = np.zeros((16, 4), dtype=np.intp)
    gate = np.zeros((16, 4))
    for m in range(16):
        a, b = divmod(int(_ROT_INDEX[m]), 4)
        for s in range(16):
            c, d = divmod(int(_ROT_INDEX[s]), 4)
            # CNOT from main to sac on Alice's qubits, then on Bob's
            oa, oc = divmod(int(_CNOT_INDEX[4 * a + c]), 4)
            ob, od = divmod(int(_CNOT_INDEX[4 * b + d]), 4)
            if oc in (1, 2) or od in (1, 2):
                continue  # X or Y on a measured qubit traces to zero
            coef = _ROT_SIGN[m] * _ROT_SIGN[s] * _CNOT_SIGN[4 * a + c] * _CNOT_SIGN[4 * b + d]
            if a or c:
                coef *= p_g
            if b or d:
                coef *= p_g
            o, z = 4 * oa + ob, 2 * (oc == 3) + (od == 3)
            main_idx[o, z], sac_idx[o, z], gate[o, z] = m, s, coef
    # each measured qubit halves the coefficient; its Z reads outcome * e
    e = 2.0 * p_m - 1.0
    read = np.array([
        [0.25 * (out_a * e) ** za * (out_b * e) ** zb for out_a in (1, -1) for out_b in (1, -1)]
        for za in (0, 1) for zb in (0, 1)
    ])
    return main_idx, sac_idx, gate, read


def _pump_step(
    tables: tuple, main: np.ndarray, sac: np.ndarray, rng
) -> tuple[int, int, np.ndarray, float]:
    """Sample a step on Pauli-form pairs (Alice's uniform, then Bob's).

    Returns (out_a, out_b, post, prob) with post in Pauli form. Column b of
    branches is branch b's unnormalized state; its weight is the identity
    coefficient, row 0.
    """
    main_idx, sac_idx, gate, read = tables
    branches = np.dot(gate * main.take(main_idx) * sac.take(sac_idx), read)
    traces = branches[0].tolist()
    total = sum(traces)
    if total < 1e-15:
        raise ImpossibleOutcomeError("all step branches have vanishing probability")
    out_a = 1 if rng.random() < (traces[0] + traces[1]) / total else -1
    base = 0 if out_a == 1 else 2
    sub = traces[base] + traces[base + 1]
    if sub < 1e-15:
        raise ImpossibleOutcomeError("selected measurement branch is impossible")
    out_b = 1 if rng.random() < traces[base] / sub else -1
    idx = base + (0 if out_b == 1 else 1)
    if traces[idx] < 1e-15:
        raise ImpossibleOutcomeError("selected measurement branch is impossible")
    return out_a, out_b, (branches[:, idx] / traces[idx]).reshape(4, 4), traces[idx] / total


def dejmps_step(
    main: TwoQubitState, sac: TwoQubitState, noise: NoiseParams, rng
) -> StepOutcome:
    """One pumping step: sacrifice `sac` to purify `main`.

    Both pairs get the bilateral twirl rotation, CNOTs run from the main
    qubits onto the sacrificial ones through the depolarizing gate channel,
    and the sacrificial qubits are Z-measured with imperfect projection.
    Success is coincidence (equal outcomes); post_state is the conditioned
    main pair either way. It samples through _pump_step, the kernel that
    the timed engines run, converting to and from Pauli form at the call.
    """
    tables = _step_tables(noise.p_g, noise.p_m)
    out_a, out_b, post, prob = _pump_step(tables, to_pauli(main), to_pauli(sac), rng)
    return StepOutcome(out_a == out_b, out_a, out_b, from_pauli(post), prob)


def bell_recurrence_oracle(
    main: BellCoeffs, sac: BellCoeffs
) -> tuple[BellCoeffs, float]:
    """Closed-form noiseless recurrence for the coincidence branch.

    With both inputs Bell-diagonal, ordered (a, b, c, d) on
    (phi+, psi-, psi+, phi-), the kept branch has probability
    N = (a1+b1)(a2+b2) + (c1+d1)(c2+d2) and coefficients
    a' = (a1 a2 + b1 b2)/N   b' = (c1 d2 + d1 c2)/N
    c' = (c1 c2 + d1 d2)/N   d' = (a1 b2 + b1 a2)/N.
    """
    for coeffs in (main, sac):
        if abs(sum(coeffs) - 1.0) > 1e-9:
            raise ValueError(f"Bell coefficients must sum to 1, got {coeffs}")
    a1, b1, c1, d1 = main
    a2, b2, c2, d2 = sac
    n = (a1 + b1) * (a2 + b2) + (c1 + d1) * (c2 + d2)
    post = BellCoeffs(
        (a1 * a2 + b1 * b2) / n,
        (c1 * d2 + d1 * c2) / n,
        (c1 * c2 + d1 * d2) / n,
        (a1 * b2 + b1 * a2) / n,
    )
    return post, n


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
            if len(tokens) != 2 or not tokens[1].isdigit() or int(tokens[1]) < 1:
                raise _fail(line_no, "expected: PAIRS <positive integer>")
            num_pairs = int(tokens[1])
            continue
        if num_pairs is None:
            raise _fail(line_no, "PAIRS must come before instructions")
        if op == "ROT":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise _fail(line_no, "expected: ROT <pair>")
            pair = int(tokens[1])
            touch(line_no, pair)
            instructions.append(Rot(pair))
        elif op == "GATE":
            if len(tokens) != 4 or tokens[1] not in TWO_QUBIT_GATES:
                raise _fail(line_no, "expected: GATE CNOT|CZ <control> <target>")
            if not (tokens[2].isdigit() and tokens[3].isdigit()):
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
                or not tokens[1].isdigit()
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


PairSupplier = Union[Callable[[], TwoQubitState], Iterable[TwoQubitState]]


def run_circuit(
    circ: PurificationCircuit, pair_supplier: PairSupplier, noise: NoiseParams, rng
) -> StepOutcome:
    """Execute a circuit on pairs taken from the supplier in arrival order.

    Untimed: no storage decoherence, instructions run back to back. Overall
    success is the conjunction of all keep conditions; the reported outcomes
    are those of the final MEASURE. The timed variant lives in protocols.
    """
    supply: Iterator[TwoQubitState]
    if callable(pair_supplier):
        # states are arrays, so the two-argument iter() sentinel form would
        # trip on elementwise comparison
        supply = (pair_supplier() for _ in count())
    else:
        supply = iter(pair_supplier)

    reg: PairRegister | None = None
    present: set[int] = set()

    def ensure(pair: int) -> PairRegister:
        nonlocal reg
        if pair not in present:
            fresh = register_from_pair(next(supply), pair)
            reg = fresh if reg is None else join(reg, fresh)
            present.add(pair)
        assert reg is not None
        return reg

    success = True
    prob = 1.0
    out_a = out_b = 0
    for instr in circ.instructions:
        if isinstance(instr, Rot):
            reg = _rotate_pair(ensure(instr.pair), instr.pair)
        elif isinstance(instr, Gate):
            ensure(instr.control_pair)
            reg = _bilateral_gate(
                ensure(instr.target_pair),
                TWO_QUBIT_GATES[instr.kind],
                instr.control_pair,
                instr.target_pair,
                noise.p_g,
            )
        else:
            ensure(instr.pair)
            out_a, out_b, reg, p = _measure_pair(
                reg, instr.pair, instr.basis, noise.p_m, rng
            )
            prob *= p
            success &= (out_a == out_b) == instr.keep_equal
    reg = ensure(circ.survivor)  # an untouched survivor still has to be taken
    return StepOutcome(success, out_a, out_b, extract_pair(reg, circ.survivor), prob)
