import math
from itertools import permutations

import numpy as np
import pytest

from purlink.channels import (
    CNOT,
    CZ,
    ImpossibleOutcomeError,
    NoiseParams,
    OpticalHardware,
    PairRegister,
    amplitude_damp,
    decohere,
    dephase,
    depolarize_gate,
    diffraction_efficiency,
    extract_pair,
    fiber_transmissivity,
    join,
    measurement_branches,
    noisy_measure,
    pair_decohere,
    register_from_pair,
    satellite_transmissivity,
)
from purlink.channels import _damping_lambda, _dephasing_pz
from purlink.purify import ROT_ALICE, ROT_BOB, ROT_PAIR, _rotate_pair, _rotate_pauli, _step_tables
from purlink.states import (
    I2,
    PAULIS,
    embed_single,
    embed_two,
    fidelity,
    insert_mixed,
    make_werner,
    to_pauli,
    trace_out,
)

from dense_oracle import pauli_transfer, step_branch_maps

RNG = np.random.default_rng(77)
PAIR0 = ((0, "A"), (0, "B"))


def choi_matrix(channel, dim):
    """Choi operator of a linear map on dim x dim matrices."""
    j = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for k in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, k] = 1.0
            proj = np.zeros((dim, dim), dtype=complex)
            proj[i, k] = 1.0
            j += np.kron(channel(unit), proj)
    return j


def assert_cptp(channel, dim, tol=1e-10):
    j = choi_matrix(channel, dim)
    eigs = np.linalg.eigvalsh((j + j.conj().T) / 2.0)
    assert eigs.min() > -tol, f"Choi matrix not PSD: min eig {eigs.min()}"
    traced = np.einsum("aiak->ik", j.reshape(dim, dim, dim, dim))
    assert np.abs(traced - np.eye(dim)).max() < tol, "channel is not trace preserving"


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# --- noise parameter validation ---


def test_noise_params_defaults():
    noise = NoiseParams()
    assert noise.p_g == 0.99 and noise.p_m == 0.99
    assert noise.t1 == 360.0 and noise.t2 == 1.0


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(p_g=1.2)
    with pytest.raises(ValueError):
        NoiseParams(p_m=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(t1=0.0)
    with pytest.raises(ValueError):
        NoiseParams(t2=-1.0)
    with pytest.raises(ValueError):
        NoiseParams(t1=1.0, t2=3.0)  # t2 > 2*t1 is unphysical
    NoiseParams(t1=1.0, t2=2.0)
    NoiseParams(t1=math.inf, t2=math.inf)


# --- register plumbing ---


def test_register_roundtrip():
    w = make_werner(0.8)
    reg = register_from_pair(w, 3)
    assert reg.n_qubits == 2
    assert reg.pair_labels == (3,)
    assert reg.qubit_index(3, "A") == 0 and reg.qubit_index(3, "B") == 1
    assert np.allclose(extract_pair(reg, 3), w)


def test_join_and_extract():
    wa, wb = make_werner(0.9), make_werner(0.6)
    reg = join(register_from_pair(wa, 0), register_from_pair(wb, 1))
    assert reg.n_qubits == 4
    assert reg.pair_labels == (0, 1)
    assert np.allclose(extract_pair(reg, 0), wa)
    assert np.allclose(extract_pair(reg, 1), wb)


def test_extract_pair_reversed_slots():
    # a register may hold B before A; extraction must reorder to (A, B)
    w = make_werner(0.7)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    reg = PairRegister(swap @ w @ swap, ((0, "B"), (0, "A")))
    assert np.allclose(extract_pair(reg, 0), w)


# --- gate noise ---


def test_depolarize_gate_identity_example():
    # failing branch leaves I/4, so fidelity = p_g*1 + (1-p_g)*0.25
    reg = register_from_pair(make_werner(1.0), 0)
    out = depolarize_gate(reg, np.eye(4, dtype=complex), (0, 1), 0.99)
    assert abs(fidelity(out.rho) - 0.9925) < 1e-12


def test_depolarize_gate_is_cptp():
    for p_g in (1.0, 0.99, 0.5):
        for gate in (CNOT, CZ):
            assert_cptp(
                lambda rho: depolarize_gate(
                    PairRegister(rho, PAIR0), gate, (0, 1), p_g
                ).rho,
                4,
            )


def test_depolarize_gate_perfect_is_unitary():
    rho = random_density(4, RNG)
    out = depolarize_gate(PairRegister(rho, PAIR0), CNOT, (0, 1), 1.0)
    assert np.allclose(out.rho, CNOT @ rho @ CNOT.conj().T)


def test_depolarize_gate_bad_qubits():
    reg = register_from_pair(make_werner(0.9), 0)
    with pytest.raises(ValueError):
        depolarize_gate(reg, CNOT, (0, 0), 0.99)
    with pytest.raises(ValueError):
        depolarize_gate(reg, CNOT, (0, 2), 0.99)


# --- measurement ---


def test_noisy_measure_branch_probs_sum_to_one():
    for _ in range(20):
        rho = random_density(4, RNG)
        reg = PairRegister(rho, PAIR0)
        _, _, p_plus = noisy_measure(reg, 0, "Z", 0.9, 0.0)
        _, _, p_minus = noisy_measure(reg, 0, "Z", 0.9, 1.0 - 1e-12)
        assert abs(p_plus + p_minus - 1.0) < 1e-10


def test_noisy_measure_projective():
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0  # |00>
    reg = PairRegister(zero, PAIR0)
    outcome, post, prob = noisy_measure(reg, 0, "Z", 1.0, 0.0)
    assert outcome == 1 and abs(prob - 1.0) < 1e-12
    assert post.n_qubits == 1
    assert post.qubits == ((0, "B"),)
    assert np.allclose(post.rho, [[1, 0], [0, 0]])


def test_noisy_measure_flip_probability():
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    reg = PairRegister(zero, PAIR0)
    # p_m=0.9 reports the wrong face with probability 0.1
    outcome, _, prob = noisy_measure(reg, 0, "Z", 0.9, 0.95)
    assert outcome == -1
    assert abs(prob - 0.1) < 1e-12


def test_noisy_measure_impossible_branch():
    # the threshold rule never lands in an exactly-zero branch, so only a
    # fully underflowed state can trip the guard
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    reg = PairRegister(zero, PAIR0)
    outcome, _, prob = noisy_measure(reg, 0, "Z", 1.0, 1.0 - 1e-12)
    assert outcome == 1 and prob == 1.0
    with pytest.raises(ImpossibleOutcomeError):
        noisy_measure(PairRegister(np.zeros((4, 4), dtype=complex), PAIR0), 0, "Z", 1.0, 0.5)


def test_noisy_measure_bad_basis():
    reg = register_from_pair(make_werner(0.9), 0)
    with pytest.raises(ValueError):
        noisy_measure(reg, 0, "I", 0.99, 0.5)


def test_measurement_channel_preserves_trace():
    # unconditioned on the outcome, measurement is trace preserving
    for basis in ("X", "Y", "Z"):
        rho = random_density(4, RNG)
        reg = PairRegister(rho, PAIR0)
        _, _, p_plus = noisy_measure(reg, 1, basis, 0.8, 0.0)
        _, _, p_minus = noisy_measure(reg, 1, basis, 0.8, 1.0 - 1e-12)
        assert abs(p_plus + p_minus - 1.0) < 1e-10


# --- register channels against the dense oracle ---
#
# The channels contract over the qubits they act on; the oracle builds the
# full 2^n x 2^n operators with the embedding helpers of states.


def _dense_gate(rho, n, unitary, qubits, p_g):
    u = embed_two(unitary, *qubits, n)
    out = u @ rho @ u.conj().T
    if p_g < 1.0:
        out = p_g * out + (1.0 - p_g) * insert_mixed(trace_out(rho, qubits, n), qubits, n)
    return out


def _dense_branches(rho, n, qubit, basis, p_m):
    kept = []
    for sign in (1.0, -1.0):
        proj = embed_single((I2 + sign * PAULIS[basis]) / 2.0, qubit, n)
        kept.append(trace_out(proj @ rho @ proj, (qubit,), n))
    return p_m * kept[0] + (1.0 - p_m) * kept[1], p_m * kept[1] + (1.0 - p_m) * kept[0]


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_register_channels_match_dense_oracle(n):
    rng = np.random.default_rng((41, n))
    rho = random_density(1 << n, rng)
    labels = tuple((q + 1, "A") for q in range(n))
    reg = PairRegister(rho, labels)
    for i, j in permutations(range(n), 2):
        for gate in (CNOT, CZ):
            for p_g in (1.0, 0.97):
                got = depolarize_gate(reg, gate, (i, j), p_g).rho
                assert np.abs(got - _dense_gate(rho, n, gate, (i, j), p_g)).max() < 1e-14
        # pair 0 with Alice's qubit at i and Bob's at j
        pair = PairRegister(rho, labels[:i] + ((0, "A"),) + labels[i + 1 :])
        pair = PairRegister(rho, pair.qubits[:j] + ((0, "B"),) + pair.qubits[j + 1 :])
        ops = [I2] * n
        ops[i], ops[j] = ROT_ALICE, ROT_BOB
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        got = _rotate_pair(pair, 0).rho
        assert np.abs(got - full @ rho @ full.conj().T).max() < 1e-14
    for q in range(n):
        for basis in ("X", "Y", "Z"):
            for p_m in (1.0, 0.93):
                got = measurement_branches(rho, q, n, basis, p_m)
                want = _dense_branches(rho, n, q, basis, p_m)
                for g, w in zip(got, want):
                    assert g.shape == (1 << (n - 1), 1 << (n - 1))
                    assert np.abs(g - w).max() < 1e-14


@pytest.mark.parametrize("p_g, p_m", ((0.99, 0.99), (1.0, 1.0), (0.9, 0.95)))
def test_step_branch_maps_match_dense_oracle(p_g, p_m):
    # the step's rotations, two CNOTs and two Z measurements, pushed through
    # the dense operators basis matrix by basis matrix
    r16 = np.kron(ROT_PAIR, ROT_PAIR)
    want = np.empty((4, 16, 256), dtype=complex)
    for row in range(16):
        for col in range(16):
            basis = np.zeros((16, 16), dtype=complex)
            basis[row, col] = 1.0
            rho = r16 @ basis @ r16.conj().T
            rho = _dense_gate(rho, 4, CNOT, (0, 2), p_g)
            rho = _dense_gate(rho, 4, CNOT, (1, 3), p_g)
            for ia, rho_a in enumerate(_dense_branches(rho, 4, 2, "Z", p_m)):
                for ib, rho_b in enumerate(_dense_branches(rho_a, 3, 2, "Z", p_m)):
                    want[2 * ia + ib, :, row * 16 + col] = rho_b.reshape(-1)
    got = step_branch_maps(p_g, p_m)
    assert np.abs(got - want.reshape(64, 256)).max() < 1e-14


def test_pauli_rotation_matches_rot_pair():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(4, rng)
        want = to_pauli(ROT_PAIR @ rho @ ROT_PAIR.conj().T)
        assert np.abs(_rotate_pauli(to_pauli(rho)) - want).max() < 1e-15


_RANDOM_NOISE = tuple(np.random.default_rng(21).uniform(0.5, 1.0, size=2))


@pytest.mark.parametrize(
    "p_g, p_m", ((0.99, 0.99), (1.0, 1.0), (0.9, 0.95), _RANDOM_NOISE)
)
def test_pauli_step_tables_match_dense_maps(p_g, p_m):
    # the closed-form gather tables, spread out to per-branch matrices over
    # the 256 joint input strings, equal the dense maps in the Pauli basis
    main_idx, sac_idx, gate, read = _step_tables(p_g, p_m)
    got = np.zeros((4, 16, 256))
    outputs = np.repeat(np.arange(16), 4)
    inputs = (16 * main_idx + sac_idx).reshape(-1)
    # the step permutes strings, so no input string reaches two outputs
    assert len(set(inputs)) == 64
    coef = gate[None, :, :] * read.T[:, None, :]  # branch, output, pattern
    got[:, outputs, inputs] = coef.reshape(4, 64)
    want = pauli_transfer(step_branch_maps(p_g, p_m))
    assert np.abs(got - want).max() < 1e-15


# --- memory decoherence ---


def test_damping_lambda():
    assert _damping_lambda(0.0, 1.0) == 0.0
    assert _damping_lambda(1.0, math.inf) == 0.0
    assert abs(_damping_lambda(2.0, 1.0) - (1.0 - math.exp(-2.0))) < 1e-15
    with pytest.raises(ValueError):
        _damping_lambda(-0.1, 1.0)


def test_dephasing_pz():
    assert _dephasing_pz(0.0, 1.0, 1.0) == 0.0
    # pure dephasing when damping is off
    assert abs(_dephasing_pz(0.5, math.inf, 1.0) - 0.5 * (1 - math.exp(-0.5))) < 1e-15
    # damping eats part of the phase decay budget
    want = 0.5 * (1.0 - math.exp(-1.0 / 0.3 + 1.0 / 2.0))
    assert abs(_dephasing_pz(1.0, 1.0, 0.3) - want) < 1e-15
    assert _dephasing_pz(10.0, math.inf, math.inf) == 0.0
    with pytest.raises(ValueError):
        _dephasing_pz(1.0, 1.0, 3.0)


def test_amplitude_damp_populations():
    one_one = np.zeros((4, 4), dtype=complex)
    one_one[3, 3] = 1.0  # |11>
    t, t1 = 0.7, 2.0
    lam = 1.0 - math.exp(-t / t1)
    out = amplitude_damp(PairRegister(one_one, PAIR0), 0, t, t1)
    want = np.zeros((4, 4), dtype=complex)
    want[3, 3] = 1.0 - lam
    want[1, 1] = lam  # |01>
    assert np.allclose(out.rho, want)


def test_amplitude_damp_is_cptp():
    for t in (0.0, 0.3, 5.0):
        assert_cptp(
            lambda rho: amplitude_damp(PairRegister(rho, PAIR0), 0, t, 1.0).rho, 4
        )


def test_dephase_is_cptp():
    for t, t1, t2 in ((0.5, math.inf, 1.0), (1.0, 1.0, 0.5), (2.0, 3.0, 4.0)):
        assert_cptp(
            lambda rho: dephase(PairRegister(rho, PAIR0), 1, t, t1, t2).rho, 4
        )


def test_dephase_bell_fidelity():
    # one-sided phase flip sends phi+ to phi-, so F = 1 - p_z
    t, t2 = 0.4, 1.0
    p_z = 0.5 * (1.0 - math.exp(-t / t2))
    out = dephase(register_from_pair(make_werner(1.0), 0), 0, t, math.inf, t2)
    assert abs(fidelity(out.rho) - (1.0 - p_z)) < 1e-12


def test_decohere_is_cptp():
    noise = NoiseParams(t1=1.0, t2=0.8)
    for dt in (0.1, 1.0):
        assert_cptp(
            lambda rho: decohere(PairRegister(rho, PAIR0), (0, 1), dt, noise).rho, 4
        )


def test_decohere_werner_dephasing_oracle():
    # pure dephasing on both qubits: net flip iff exactly one side flips
    t2, dt, f0 = 0.5, 0.2, 0.9
    noise = NoiseParams(t1=math.inf, t2=t2)
    p_z = 0.5 * (1.0 - math.exp(-dt / t2))
    q = 2.0 * p_z * (1.0 - p_z)
    out = decohere(register_from_pair(make_werner(f0), 0), (0, 1), dt, noise)
    want = (1.0 - q) * f0 + q * (1.0 - f0) / 3.0
    assert abs(fidelity(out.rho) - want) < 1e-12


def _dense_decohere(reg, qubits, dt, noise):
    for q in qubits:
        reg = amplitude_damp(reg, q, dt, noise.t1)
        reg = dephase(reg, q, dt, noise.t1, noise.t2)
    return reg


@pytest.mark.parametrize("n_pairs", (1, 2, 3))
@pytest.mark.parametrize(
    "t1, t2", ((1.0, 0.8), (2.0, 4.0), (math.inf, 0.5), (math.inf, math.inf))
)
@pytest.mark.parametrize("dt_kind", ("short", "t2", "10_t1"))
def test_decohere_matches_dense_kraus_oracle(n_pairs, t1, t2, dt_kind):
    n = 2 * n_pairs
    noise = NoiseParams(t1=t1, t2=t2)
    dt = {"short": 1e-6, "t2": t2, "10_t1": 10.0 * t1}[dt_kind]
    rng = np.random.default_rng((n_pairs, int(t1 < math.inf), int(t2 < math.inf)))
    labels = tuple((i // 2, "AB"[i % 2]) for i in range(n))
    reg = PairRegister(random_density(1 << n, rng), labels)
    # every single qubit, then the two outermost ones (non-adjacent from 2 pairs on)
    for qubits in [(q,) for q in range(n)] + [(0, n - 1)]:
        got = decohere(reg, qubits, dt, noise).rho
        want = _dense_decohere(reg, qubits, dt, noise).rho
        assert np.abs(got - want).max() < 1e-14


@pytest.mark.parametrize(
    "t1, t2", ((1.0, 0.8), (2.0, 4.0), (math.inf, 0.5), (math.inf, math.inf))
)
@pytest.mark.parametrize("dt_kind", ("short", "t2", "10_t1"))
def test_pair_decohere_matches_register_decohere(t1, t2, dt_kind):
    noise = NoiseParams(t1=t1, t2=t2)
    dt = {"short": 1e-6, "t2": t2, "10_t1": 10.0 * t1}[dt_kind]
    rng = np.random.default_rng((int(t1 < math.inf), int(t2 < math.inf)))
    for rho in (random_density(4, rng), make_werner(0.9)):
        want = to_pauli(decohere(register_from_pair(rho, 0), (0, 1), dt, noise).rho)
        assert np.abs(pair_decohere(to_pauli(rho), dt, noise) - want).max() < 1e-15


def test_pair_decohere_checks():
    r = to_pauli(make_werner(0.6))
    assert pair_decohere(r, 0.0, NoiseParams()) is r
    with pytest.raises(ValueError):
        pair_decohere(r, -1.0, NoiseParams())


def test_decohere_identity_at_zero():
    reg = register_from_pair(make_werner(0.6), 0)
    out = decohere(reg, (0, 1), 0.0, NoiseParams())
    assert out is reg
    with pytest.raises(ValueError):
        decohere(reg, (0, 1), -1.0, NoiseParams())


# --- photon loss ---


def test_fiber_transmissivity_frozen():
    got = fiber_transmissivity(20.0, 0.2)
    assert got == 0.3981071705534972
    assert abs(got - 10.0 ** (-0.4)) < 1e-15
    assert fiber_transmissivity(0.0, 0.2) == 1.0
    assert fiber_transmissivity(10.0, 0.0) == 1.0


def test_fiber_transmissivity_compounds():
    # exponent additivity: two half spans equal the full span
    full = fiber_transmissivity(20.0, 0.2)
    half = fiber_transmissivity(10.0, 0.2)
    assert abs(full - half * half) < 1e-15
    with pytest.raises(ValueError):
        fiber_transmissivity(-1.0, 0.2)
    with pytest.raises(ValueError):
        fiber_transmissivity(1.0, -0.2)


SLANT_500_400 = 471.6990566028302
ATMOS_500_400 = 11.792476415070755


def test_diffraction_efficiency_frozen():
    hw = OpticalHardware()
    got = diffraction_efficiency(SLANT_500_400, hw)
    assert got == 0.8166477208597263
    assert abs(got - 0.81665) < 1e-4
    # clamps to 1 close in, decreases with distance
    assert diffraction_efficiency(1.0, hw) == 1.0
    assert diffraction_efficiency(800.0, hw) < got
    with pytest.raises(ValueError):
        diffraction_efficiency(0.0, hw)


def test_satellite_transmissivity_frozen():
    hw = OpticalHardware()
    no_atmo = satellite_transmissivity(SLANT_500_400, 0.0, hw, 0.028125)
    assert no_atmo == 0.8166477208597263
    full = satellite_transmissivity(SLANT_500_400, ATMOS_500_400, hw, 0.028125)
    assert full == 0.5861316461504793
    want = no_atmo * math.exp(-0.028125 * ATMOS_500_400)
    assert abs(full - want) < 1e-15
    with pytest.raises(ValueError):
        satellite_transmissivity(SLANT_500_400, -1.0, hw, 0.028125)
