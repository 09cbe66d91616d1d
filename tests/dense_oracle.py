"""Dense test oracle of the Pauli-form runtime.

Registers here are complex 2^n x 2^n density matrices, and every channel is
built from full operators: gates and rotations by embedding (embed_two,
insert_mixed, trace_out), measurements by projectors, memory decoherence by
the amplitude damping and dephasing Kraus operators, whose strengths
damping_lambda and dephasing_pz give (channels.decay_transfer inlines
them). run_circuit interprets the circuit DSL on them, untimed.
pauli_register and dense_register convert an n-qubit state to and from the
Pauli transfer form of purlink.channels, and pauli_expectation reads one
entry of a pair's form by trace, the oracle of states.to_pauli.

step_branch_maps pushes every basis matrix of the joint 16x16 input through
the dense channels, giving the pumping step's four outcome branches as
16 -> 4 dimensional superoperators. dense_pump_step samples a step from them
exactly as purify._pump_step samples from its gather tables, and
pauli_transfer rewrites the maps in the Pauli basis, where they must equal
the tables.

check_state asserts that a density matrix is physical, bell_diagonal reads
its Bell-basis weights, and bell_recurrence_oracle is the closed-form
noiseless recurrence for one pumping step on Bell-diagonal pairs.

The tests share two helpers from here too: QueuedU, an rng that returns
scripted uniforms, and packaged_circuit, which parses a circuit shipped
with purlink.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import count

import numpy as np

from purlink.channels import CNOT, TWO_QUBIT_GATES, ImpossibleOutcomeError
from purlink.purify import ROT_PAIR, Gate, PurificationCircuit, Rot, StepOutcome, load_circuit
from purlink.states import BELL_VECTORS, I2, PAULI_ORDER, PAULIS, BellCoeffs, to_pauli

PAULI_PAIRS = [np.kron(PAULIS[a], PAULIS[b]) for a in PAULI_ORDER for b in PAULI_ORDER]
SIGMA = np.array([PAULIS[a] for a in PAULI_ORDER])


class QueuedU:
    """Stands in for an rng, returning preset uniforms in order.

    random(n) returns up to n of them, as the engine's prefetched blocks
    accept; it raises once they run out, like random(). It copies only the
    values it returns, so a long loss pattern is served in linear time.
    """

    def __init__(self, *vals):
        self._vals, self._next = vals, 0

    def random(self, size=None):
        i = self._next
        if i >= len(self._vals):
            raise IndexError("no uniforms left")
        if size is None:
            self._next = i + 1
            return self._vals[i]
        self._next = min(i + size, len(self._vals))
        return np.array(self._vals[i:self._next])


def packaged_circuit(name: str) -> PurificationCircuit:
    """The circuit purlink ships as circuits/<name>.circuit."""
    return load_circuit(resources.files("purlink") / "circuits" / f"{name}.circuit")


# --- Bell-diagonal algebra and state checks. ---


def check_state(rho: np.ndarray, tol: float = 1e-9) -> None:
    """Assert hermiticity, unit trace, and positivity."""
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError(f"state trace is {np.trace(rho).real}, expected 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("state has a negative eigenvalue")


def bell_diagonal(rho):
    """Diagonal of rho in the Bell basis, fixed order (phi+, psi-, psi+, phi-)."""
    return BellCoeffs(*(float(np.real(v.conj() @ rho @ v)) for v in BELL_VECTORS))


def bell_recurrence_oracle(main: BellCoeffs, sac: BellCoeffs) -> tuple[BellCoeffs, float]:
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


# --- n-qubit embedding. Qubit 0 is the leftmost (most significant) factor. ---


def embed_single(op, qubit, n_qubits):
    """Lift a 2x2 operator to the full 2^n space at the given position."""
    ops = [I2] * n_qubits
    ops[qubit] = op
    full = ops[0]
    for o in ops[1:]:
        full = np.kron(full, o)
    return full


def embed_two(op, qubit_a, qubit_b, n_qubits):
    """Lift a 4x4 operator on (qubit_a, qubit_b), in that index order, to the full space."""
    if qubit_a == qubit_b:
        raise ValueError("two-qubit operator needs distinct qubits")
    dim = 1 << n_qubits
    sa = n_qubits - 1 - qubit_a
    sb = n_qubits - 1 - qubit_b
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        ba = (col >> sa) & 1
        bb = (col >> sb) & 1
        base = col & ~(1 << sa) & ~(1 << sb)
        in_idx = (ba << 1) | bb
        for ca in (0, 1):
            for cb in (0, 1):
                row = base | (ca << sa) | (cb << sb)
                full[row, col] += op[(ca << 1) | cb, in_idx]
    return full


def trace_out(rho, qubits, n_qubits):
    """Partial trace removing the listed qubits."""
    t = rho.reshape((2,) * (2 * n_qubits))
    n = n_qubits
    for q in sorted(qubits, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + n)
        n -= 1
    dim = 1 << n
    return t.reshape(dim, dim)


def insert_mixed(rho, positions, n_total):
    """Tensor maximally mixed qubits back in at the given positions.

    rho covers the other n_total - len(positions) qubits in their original
    relative order; the result covers all n_total.
    """
    k = len(positions)
    n_kept = n_total - k
    full = np.kron(rho, np.eye(1 << k, dtype=complex) / (1 << k))
    # kept qubits first (original order), then the mixed ones; permute back
    kept = [q for q in range(n_total) if q not in positions]
    order = [0] * n_total
    for cur, q in enumerate(kept):
        order[q] = cur
    for j, q in enumerate(sorted(positions)):
        order[q] = n_kept + j
    t = full.reshape((2,) * (2 * n_total))
    axes = order + [o + n_total for o in order]
    return t.transpose(axes).reshape(1 << n_total, 1 << n_total)


def pauli_expectation(rho, obs_a: str, obs_b: str) -> float:
    """Tr(rho * A tensor B) for Paulis A, B in {I, X, Y, Z}."""
    op = np.kron(PAULIS[obs_a], PAULIS[obs_b])
    return float(np.real(np.trace(rho @ op)))


def pauli_register(rho):
    """Pauli transfer form, shape (4,) * n, of an n-qubit density matrix."""
    n = rho.shape[0].bit_length() - 1
    t = rho.reshape((2,) * (2 * n))
    for q in range(n):  # Tr(rho sigma) = sum_ab rho[a, b] sigma[b, a]
        t = np.tensordot(t, SIGMA, axes=([0, n - q], [2, 1]))
    return t.real


def dense_register(r):
    """Inverse of pauli_register."""
    n = r.ndim
    t = r.astype(complex)
    for _ in range(n):
        t = np.tensordot(t, SIGMA, axes=([0], [0]))
    t = t.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return t.reshape(1 << n, 1 << n) / (1 << n)


# --- registers of labelled qubits ---


@dataclass(frozen=True)
class PairRegister:
    """Joint state of stored qubits; qubits lists (pair_label, side) per tensor slot."""

    rho: np.ndarray
    qubits: tuple

    @property
    def n_qubits(self):
        return len(self.qubits)

    @property
    def pair_labels(self):
        return tuple(dict.fromkeys(label for label, _ in self.qubits))

    def qubit_index(self, pair_label, side):
        return self.qubits.index((pair_label, side))


def register_from_pair(state, pair_label):
    return PairRegister(np.array(state, dtype=complex), ((pair_label, "A"), (pair_label, "B")))


def join(reg_a, reg_b):
    """Tensor two registers; reg_a's qubits stay leftmost."""
    return PairRegister(np.kron(reg_a.rho, reg_b.rho), reg_a.qubits + reg_b.qubits)


def extract_pair(reg, pair_label):
    """Trace out everything but the named pair, ordered (A, B)."""
    ia = reg.qubit_index(pair_label, "A")
    ib = reg.qubit_index(pair_label, "B")
    others = tuple(i for i in range(reg.n_qubits) if i not in (ia, ib))
    rho = trace_out(reg.rho, others, reg.n_qubits)
    if ia > ib:
        rho = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return rho


# --- channels ---


def depolarize_gate(reg, unitary, qubits, p_g):
    """p_g U rho U+ + (1 - p_g) Tr_{i,j}(rho) (x) I/4, the identity at the gate's qubits."""
    n = reg.n_qubits
    if len(set(qubits)) != 2 or not all(0 <= q < n for q in qubits):
        raise ValueError(f"invalid gate qubits {qubits} for a {n}-qubit register")
    u = embed_two(unitary, *qubits, n)
    out = u @ reg.rho @ u.conj().T
    if p_g < 1.0:
        out = p_g * out + (1.0 - p_g) * insert_mixed(trace_out(reg.rho, qubits, n), qubits, n)
    return PairRegister(out, reg.qubits)


def measurement_branches(rho, qubit, n_qubits, basis, p_m):
    """Reduced (+1, -1) branches Tr_q[p_m P_o rho P_o + (1-p_m) P_!o rho P_!o]."""
    kept = []
    for sign in (1.0, -1.0):
        proj = embed_single((I2 + sign * PAULIS[basis]) / 2.0, qubit, n_qubits)
        kept.append(trace_out(proj @ rho @ proj, (qubit,), n_qubits))
    return p_m * kept[0] + (1.0 - p_m) * kept[1], p_m * kept[1] + (1.0 - p_m) * kept[0]


def noisy_measure(reg, qubit, basis, p_m, u):
    """Measure one qubit; u in [0, 1) picks the outcome by threshold.

    Returns (outcome as +1/-1, renormalized register without the qubit,
    branch probability).
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
    labels = reg.qubits[:qubit] + reg.qubits[qubit + 1 :]
    return outcome, PairRegister(post / np.trace(post), labels), prob


def damping_lambda(t: float, t1: float) -> float:
    if t < 0:
        raise ValueError(f"negative duration {t}")
    if math.isinf(t1):
        return 0.0
    return 1.0 - math.exp(-t / t1)


def dephasing_pz(t: float, t1: float, t2: float) -> float:
    if t < 0:
        raise ValueError(f"negative duration {t}")
    if t2 > 2.0 * t1:
        raise ValueError("dephasing needs t2 <= 2*t1")
    decay = 0.0 if math.isinf(t2) else t / t2
    revive = 0.0 if math.isinf(t1) else t / (2.0 * t1)
    return 0.5 * (1.0 - math.exp(-decay + revive))


def amplitude_damp(reg, qubit, t, t1):
    """Relaxation toward |0> for duration t with time constant t1."""
    lam = damping_lambda(t, t1)
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(lam)], [0.0, 0.0]], dtype=complex)
    k0 = embed_single(e0, qubit, reg.n_qubits)
    k1 = embed_single(e1, qubit, reg.n_qubits)
    return PairRegister(k0 @ reg.rho @ k0.conj().T + k1 @ reg.rho @ k1.conj().T, reg.qubits)


def dephase(reg, qubit, t, t1, t2):
    """Phase flip with probability p_z(t; t1, t2) on one qubit."""
    p_z = dephasing_pz(t, t1, t2)
    z = embed_single(PAULIS["Z"], qubit, reg.n_qubits)
    return PairRegister((1.0 - p_z) * reg.rho + p_z * (z @ reg.rho @ z), reg.qubits)


def decohere(reg, qubits, dt, noise):
    """Amplitude damping then dephasing for dt on each listed qubit."""
    for q in qubits:
        reg = amplitude_damp(reg, q, dt, noise.t1)
        reg = dephase(reg, q, dt, noise.t1, noise.t2)
    return reg


# --- the circuit DSL, untimed ---


def rotate_pair(reg, pair_label):
    """The bilateral DEJMPS rotation of one pair."""
    u = embed_two(ROT_PAIR, reg.qubit_index(pair_label, "A"), reg.qubit_index(pair_label, "B"), reg.n_qubits)
    return PairRegister(u @ reg.rho @ u.conj().T, reg.qubits)


def bilateral_gate(reg, gate, control_pair, target_pair, p_g):
    """The gate on Alice's qubits, then on Bob's, each depolarizing."""
    for side in ("A", "B"):
        qubits = (reg.qubit_index(control_pair, side), reg.qubit_index(target_pair, side))
        reg = depolarize_gate(reg, gate, qubits, p_g)
    return reg


def measure_pair(reg, pair_label, basis, p_m, rng):
    """Measure both qubits of a pair, Alice first, and drop them."""
    out_a, reg, prob_a = noisy_measure(reg, reg.qubit_index(pair_label, "A"), basis, p_m, rng.random())
    out_b, reg, prob_b = noisy_measure(reg, reg.qubit_index(pair_label, "B"), basis, p_m, rng.random())
    return out_a, out_b, reg, prob_a * prob_b


def run_circuit(circ, pair_supplier, noise, rng):
    """Execute a circuit on pairs from the supplier (a callable or an iterable), in arrival order.

    No storage decoherence; success is the conjunction of all keep
    conditions, and the reported outcomes are those of the final MEASURE.
    """
    if callable(pair_supplier):
        supply = (pair_supplier() for _ in count())
    else:
        supply = iter(pair_supplier)
    reg = None
    present = set()

    def ensure(pair):
        nonlocal reg
        if pair not in present:
            fresh = register_from_pair(next(supply), pair)
            reg = fresh if reg is None else join(reg, fresh)
            present.add(pair)
        return reg

    success, prob, out_a, out_b = True, 1.0, 0, 0
    for instr in circ.instructions:
        if isinstance(instr, Rot):
            reg = rotate_pair(ensure(instr.pair), instr.pair)
        elif isinstance(instr, Gate):
            ensure(instr.control_pair)
            reg = bilateral_gate(
                ensure(instr.target_pair), TWO_QUBIT_GATES[instr.kind],
                instr.control_pair, instr.target_pair, noise.p_g,
            )
        else:
            out_a, out_b, reg, p = measure_pair(ensure(instr.pair), instr.pair, instr.basis, noise.p_m, rng)
            prob *= p
            success &= (out_a == out_b) == instr.keep_equal
    reg = ensure(circ.survivor)  # an untouched survivor still has to be taken
    return StepOutcome(success, out_a, out_b, extract_pair(reg, circ.survivor), prob)


# --- the pumping step ---


@lru_cache(maxsize=16)
def step_branch_maps(p_g, p_m):
    """(64, 256) maps: branch 2 ia + ib, output entry, joint input entry."""
    r16 = np.kron(ROT_PAIR, ROT_PAIR)
    maps = np.empty((4, 16, 256), dtype=complex)
    for row in range(16):
        for col in range(16):
            basis = np.zeros((16, 16), dtype=complex)
            basis[row, col] = 1.0
            reg = PairRegister(r16 @ basis @ r16.conj().T, ((0, "A"), (0, "B"), (1, "A"), (1, "B")))
            reg = bilateral_gate(reg, CNOT, 0, 1, p_g)
            # Alice's sacrificial qubit, then Bob's (now at index 2); the
            # branch order (+1, +1), (+1, -1), (-1, +1), (-1, -1) is _pump_step's
            for ia, rho_a in enumerate(measurement_branches(reg.rho, 2, 4, "Z", p_m)):
                for ib, rho_b in enumerate(measurement_branches(rho_a, 2, 3, "Z", p_m)):
                    maps[2 * ia + ib, :, row * 16 + col] = rho_b.reshape(-1)
    return maps.reshape(64, 256)


def pauli_transfer(maps):
    """(4, 16, 256) real: output Pauli coefficient per joint input string (main, sac)."""
    out = np.empty((4, 16, 256))
    for k, pk in enumerate(PAULI_PAIRS):
        for l, pl in enumerate(PAULI_PAIRS):
            # the state with the single joint coefficient R_main[k] R_sac[l] = 1
            branches = (maps @ (np.kron(pk, pl).reshape(-1) / 16.0)).reshape(4, 4, 4)
            for b in range(4):
                out[b, :, 16 * k + l] = to_pauli(branches[b]).reshape(-1)
    return out


def dense_pump_step(maps, main, sac, rng):
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
