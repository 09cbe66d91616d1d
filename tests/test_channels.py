import math
from itertools import permutations

import numpy as np
import pytest

from purlink.channels import (
    CNOT,
    CZ,
    TWO_QUBIT_GATES,
    ImpossibleOutcomeError,
    NoiseParams,
    OpticalHardware,
    decay_transfer,
    decohere_lanes,
    diffraction_efficiency,
    fiber_transmissivity,
    pauli_measure,
    satellite_transmissivity,
)
from purlink.channels import _damping_lambda, _dephasing_pz
from purlink.purify import ROT_PAIR, _step_tables, pauli_clifford
from purlink.states import fidelity, from_pauli, make_werner, to_pauli

from dense_oracle import (
    PairRegister,
    amplitude_damp,
    bilateral_gate,
    decohere,
    dense_register,
    dephase,
    depolarize_gate,
    extract_pair,
    join,
    measure_pair,
    measurement_branches,
    pauli_register,
    pauli_transfer,
    register_from_pair,
    rotate_pair,
    step_branch_maps,
)

RNG = np.random.default_rng(77)
PAIR0 = ((0, "A"), (0, "B"))
HI = 1.0 - 1e-12
BRANCH_UNIFORMS = ((0.0, 0.0), (0.0, HI), (HI, 0.0), (HI, HI))  # (+,+), (+,-), (-,+), (-,-)


class QueuedU:
    """Stands in for an rng, returning preset uniforms in order."""

    def __init__(self, *vals):
        self._vals = list(vals)

    def random(self):
        return self._vals.pop(0)


def decohere_one(r, pair, dt, noise):
    """The memory channel for dt on pair `pair` of one register: decohere_lanes as a batch of one."""
    return decohere_lanes(r.reshape(1, -1), pair, decay_transfer([dt], noise)).reshape(r.shape)


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
#
# pauli_measure measures both qubits of a pair of a Pauli register, Alice's
# uniform first; the dense oracle checks it below.


def test_noisy_measure_branch_probs_sum_to_one():
    for _ in range(20):
        r = to_pauli(random_density(4, RNG))
        probs = [pauli_measure(r, 0, "Z", 0.9, QueuedU(*u))[3] for u in BRANCH_UNIFORMS]
        assert abs(sum(probs) - 1.0) < 1e-10


def test_noisy_measure_projective():
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0  # |00>
    r = np.multiply.outer(to_pauli(zero), to_pauli(zero))  # |00> on both pairs
    out_a, out_b, post, prob = pauli_measure(r, 0, "Z", 1.0, QueuedU(0.0, 0.0))
    assert (out_a, out_b) == (1, 1) and abs(prob - 1.0) < 1e-12
    assert post.shape == (4, 4)  # one pair left
    assert np.allclose(from_pauli(post), zero)


def test_noisy_measure_flip_probability():
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    # p_m=0.9 reports the wrong face with probability 0.1 on each side
    out_a, out_b, _, prob = pauli_measure(to_pauli(zero), 0, "Z", 0.9, QueuedU(0.95, 0.0))
    assert (out_a, out_b) == (-1, 1)
    assert abs(prob - 0.1 * 0.9) < 1e-12


def test_noisy_measure_impossible_branch():
    # the threshold rule never lands in an exactly-zero branch, so only a
    # fully underflowed state can trip the guard
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    out_a, out_b, _, prob = pauli_measure(to_pauli(zero), 0, "Z", 1.0, QueuedU(HI, HI))
    assert out_a == out_b == 1 and prob == 1.0
    with pytest.raises(ImpossibleOutcomeError):
        pauli_measure(np.zeros((4, 4)), 0, "Z", 1.0, QueuedU(0.5, 0.5))


def test_noisy_measure_bad_basis():
    with pytest.raises(ValueError):
        pauli_measure(to_pauli(make_werner(0.9)), 0, "I", 0.99, QueuedU(0.5, 0.5))


def test_measurement_channel_preserves_trace():
    # unconditioned on the outcomes, measurement is trace preserving
    for basis in ("X", "Y", "Z"):
        r = to_pauli(random_density(4, RNG))
        probs = [pauli_measure(r, 0, basis, 0.8, QueuedU(*u))[3] for u in BRANCH_UNIFORMS]
        assert abs(sum(probs) - 1.0) < 1e-10


# --- Pauli registers against the dense oracle ---
#
# A Pauli register of n // 2 pairs against the dense register of the same n
# qubits, (A, B) of each pair adjacent: every ordered gate pair, every
# rotation, pair measurement and pair decoherence, and the join.


@pytest.mark.parametrize("n", (2, 4, 6))
def test_register_channels_match_dense_oracle(n):
    m = n // 2
    rng = np.random.default_rng((41, n))
    rho = random_density(1 << n, rng)
    r = pauli_register(rho)
    assert np.abs(dense_register(r) - rho).max() < 1e-15
    reg = PairRegister(rho, tuple((q // 2, "AB"[q % 2]) for q in range(n)))
    for c, t in permutations(range(m), 2):
        for kind in ("CNOT", "CZ"):
            for p_g in (1.0, 0.97):
                got = dense_register(pauli_clifford(r, kind, (c, t), p_g))
                want = bilateral_gate(reg, TWO_QUBIT_GATES[kind], c, t, p_g).rho
                assert np.abs(got - want).max() < 1e-15
    noise = NoiseParams(t1=1.0, t2=0.8)
    for i in range(m):
        got = dense_register(pauli_clifford(r, "ROT", (i,)))
        assert np.abs(got - rotate_pair(reg, i).rho).max() < 1e-15
        got = dense_register(decohere_one(r, i, 0.3, noise))
        assert np.abs(got - decohere(reg, (2 * i, 2 * i + 1), 0.3, noise).rho).max() < 1e-15
        for basis in ("X", "Y", "Z"):
            for p_m in (1.0, 0.93):
                for u in BRANCH_UNIFORMS:
                    out_a, out_b, post, prob = pauli_measure(r, i, basis, p_m, QueuedU(*u))
                    want_a, want_b, want, want_prob = measure_pair(reg, i, basis, p_m, QueuedU(*u))
                    assert (out_a, out_b) == (want_a, want_b)
                    assert abs(prob - want_prob) < 1e-15
                    assert post.shape == (4,) * (n - 2)
                    assert np.abs(dense_register(post) - want.rho).max() < 1e-15
    other = random_density(4, rng)
    joined = np.multiply.outer(r, to_pauli(other))
    assert np.abs(dense_register(joined) - np.kron(rho, other)).max() < 1e-15


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
            reg = PairRegister(r16 @ basis @ r16.conj().T, PAIR0 + ((1, "A"), (1, "B")))
            reg = depolarize_gate(reg, CNOT, (0, 2), p_g)
            reg = depolarize_gate(reg, CNOT, (1, 3), p_g)
            for ia, rho_a in enumerate(measurement_branches(reg.rho, 2, 4, "Z", p_m)):
                for ib, rho_b in enumerate(measurement_branches(rho_a, 2, 3, "Z", p_m)):
                    want[2 * ia + ib, :, row * 16 + col] = rho_b.reshape(-1)
    got = step_branch_maps(p_g, p_m)
    assert np.abs(got - want.reshape(64, 256)).max() < 1e-14


def test_pauli_rotation_matches_rot_pair():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(4, rng)
        want = to_pauli(ROT_PAIR @ rho @ ROT_PAIR.conj().T)
        assert np.abs(pauli_clifford(to_pauli(rho), "ROT", (0,)) - want).max() < 1e-15


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


def test_decay_transfer_inlines_the_scalar_rates():
    # decay_transfer computes lam and p_z lane by lane, term for term as
    # _damping_lambda and _dephasing_pz do, so the entries agree exactly
    dts = [1e-9, 3.7e-6, 2e-4, 0.01, 0.3, 2.0, 40.0]
    for noise in (NoiseParams(t1=360.0, t2=0.01), NoiseParams(t1=1.0, t2=0.8), NoiseParams(t1=math.inf, t2=1e-3),
                  NoiseParams(t1=5.0, t2=10.0), NoiseParams(t1=math.inf, t2=math.inf)):
        t = decay_transfer(dts, noise)
        assert t.shape == (len(dts), 4, 4)
        for ti, dt in zip(t, dts):
            lam = _damping_lambda(dt, noise.t1)
            c = math.sqrt(1.0 - lam) * (1.0 - 2.0 * _dephasing_pz(dt, noise.t1, noise.t2))
            want = np.array([[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [lam, 0, 0, 1 - lam]])
            assert np.array_equal(ti, want)
    with pytest.raises(ValueError):
        decay_transfer([0.1, -1e-9], NoiseParams())


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
    out = decohere_one(to_pauli(make_werner(f0)), 0, dt, noise)
    want = (1.0 - q) * f0 + q * (1.0 - f0) / 3.0
    assert abs(fidelity(from_pauli(out)) - want) < 1e-12


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
    r = pauli_register(reg.rho)
    for i in range(n_pairs):  # both qubits of every pair
        got = dense_register(decohere_one(r, i, dt, noise))
        want = decohere(reg, (2 * i, 2 * i + 1), dt, noise).rho
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
        assert np.abs(decohere_one(to_pauli(rho), 0, dt, noise) - want).max() < 1e-15


def test_pair_decohere_checks():
    # a zero duration leaves a lone pair exactly as it was; a negative one is refused
    r = to_pauli(make_werner(0.6))
    assert np.array_equal(decohere_one(r, 0, 0.0, NoiseParams()), r)
    with pytest.raises(ValueError):
        decohere_one(r, 0, -1.0, NoiseParams())


def test_decohere_identity_at_zero():
    w = to_pauli(make_werner(0.6))
    reg = np.multiply.outer(w, w)
    assert np.array_equal(decohere_one(reg, 1, 0.0, NoiseParams()), reg)
    with pytest.raises(ValueError):
        decohere_one(reg, 1, -1.0, NoiseParams())


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
