import numpy as np
import pytest

from purlink.states import (
    BELL_VECTORS,
    BellCoeffs,
    bell_diagonal_state,
    fidelity,
    make_werner,
    from_pauli,
    to_pauli,
)
from purlink.states import PAULI_X, PAULI_Z, PHI_PLUS

from dense_oracle import bell_diagonal, check_state, embed_single, embed_two, insert_mixed, pauli_expectation, trace_out

RNG = np.random.default_rng(20240811)


def random_density(n_qubits: int, rng) -> np.ndarray:
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_bell_vectors_orthonormal():
    for i, u in enumerate(BELL_VECTORS):
        for j, v in enumerate(BELL_VECTORS):
            want = 1.0 if i == j else 0.0
            assert abs(u.conj() @ v - want) < 1e-12


def test_bell_basis_order():
    # (phi+, psi-, psi+, phi-): signs distinguish the middle two
    phi_plus, psi_minus, psi_plus, phi_minus = BELL_VECTORS
    s = 1 / np.sqrt(2)
    assert np.allclose(phi_plus, [s, 0, 0, s])
    assert np.allclose(psi_minus, [0, s, -s, 0])
    assert np.allclose(psi_plus, [0, s, s, 0])
    assert np.allclose(phi_minus, [s, 0, 0, -s])


def test_werner_fidelity_roundtrip():
    for f0 in (0.25, 0.5, 0.7, 0.85, 1.0):
        rho = make_werner(f0)
        check_state(rho)
        assert abs(fidelity(rho) - f0) < 1e-12


def test_werner_edge_cases():
    assert np.allclose(make_werner(0.25), np.eye(4) / 4)
    assert np.allclose(make_werner(1.0), np.outer(PHI_PLUS, PHI_PLUS.conj()))
    with pytest.raises(ValueError):
        make_werner(0.2)
    with pytest.raises(ValueError):
        make_werner(1.01)


def test_werner_bell_coefficients():
    coeffs = bell_diagonal(make_werner(0.9))
    assert abs(coeffs.a - 0.9) < 1e-12
    for w in (coeffs.b, coeffs.c, coeffs.d):
        assert abs(w - 1 / 30) < 1e-12


def test_werner_xx_expectation():
    # Tr(rho X(x)X) = (4F-1)/3 for a Werner state
    for f0 in (0.3, 0.6, 0.9):
        theta = pauli_expectation(make_werner(f0), "X", "X")
        assert abs(theta - (4 * f0 - 1) / 3) < 1e-12


def test_bell_diagonal_state_roundtrip():
    for _ in range(50):
        w = RNG.dirichlet(np.ones(4))
        coeffs = BellCoeffs(*w)
        rho = bell_diagonal_state(coeffs)
        check_state(rho)
        back = bell_diagonal(rho)
        assert np.allclose(back, coeffs, atol=1e-12)
        assert abs(fidelity(rho) - coeffs.a) < 1e-12


def test_check_state_rejections():
    bad_trace = np.eye(4, dtype=complex) / 2
    with pytest.raises(ValueError):
        check_state(bad_trace)
    not_hermitian = np.eye(4, dtype=complex) / 4
    not_hermitian[0, 1] = 0.1j
    with pytest.raises(ValueError):
        check_state(not_hermitian)
    negative = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        check_state(negative)


def test_fidelity_clamps():
    assert fidelity(np.zeros((4, 4), dtype=complex)) == 0.0
    assert fidelity(2 * make_werner(1.0)) == 1.0


def test_fidelity_is_the_phi_plus_overlap():
    # the Pauli-form formula agrees with <phi+|rho|phi+> on any state
    rng = np.random.default_rng(7)
    for _ in range(200):
        rho = random_density(2, rng)
        assert abs(fidelity(rho) - float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))) < 1e-15


def test_embed_single_matches_kron():
    x = PAULI_X
    assert np.allclose(embed_single(x, 0, 2), np.kron(x, np.eye(2)))
    assert np.allclose(embed_single(x, 1, 2), np.kron(np.eye(2), x))
    got = embed_single(x, 1, 3)
    want = np.kron(np.eye(2), np.kron(x, np.eye(2)))
    assert np.allclose(got, want)


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_embed_two_adjacent():
    assert np.allclose(embed_two(CNOT, 0, 1, 2), CNOT)
    got = embed_two(CNOT, 1, 2, 3)
    assert np.allclose(got, np.kron(np.eye(2), CNOT))


def test_embed_two_reversed_and_split():
    # control on qubit 1, target on qubit 0: swap-conjugated CNOT
    got = embed_two(CNOT, 1, 0, 2)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(got, swap @ CNOT @ swap)
    # non-adjacent qubits: check unitarity and action on basis states
    u = embed_two(CNOT, 0, 2, 3)
    assert np.allclose(u @ u.conj().T, np.eye(8))
    # |100> -> |101>, |001> stays
    v = np.zeros(8)
    v[0b100] = 1.0
    assert np.allclose(u @ v, np.eye(8)[0b101])
    with pytest.raises(ValueError):
        embed_two(CNOT, 1, 1, 3)


def test_trace_out_product_state():
    rho_a = random_density(1, RNG)
    rho_b = random_density(2, RNG)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(trace_out(joint, (1, 2), 3), rho_a)
    assert np.allclose(trace_out(joint, (0,), 3), rho_b)


def test_trace_out_preserves_trace():
    for _ in range(20):
        rho = random_density(3, RNG)
        for qs in [(0,), (1,), (2,), (0, 2), (1, 2)]:
            red = trace_out(rho, qs, 3)
            assert abs(np.trace(red) - 1.0) < 1e-12


def test_insert_mixed_inverts_trace_out():
    # tracing back out the inserted mixed qubits recovers the input
    for _ in range(10):
        rho = random_density(2, RNG)
        for positions in [(0,), (1,), (2,), (0, 3)]:
            n_total = 2 + len(positions)
            full = insert_mixed(rho, positions, n_total)
            assert abs(np.trace(full) - 1.0) < 1e-12
            assert np.allclose(trace_out(full, positions, n_total), rho)


def test_insert_mixed_positions_are_mixed():
    rho = random_density(1, RNG)
    full = insert_mixed(rho, (0,), 2)
    assert np.allclose(trace_out(full, (1,), 2), np.eye(2) / 2)
    assert np.allclose(trace_out(full, (0,), 2), rho)


def test_pauli_expectation_basics():
    phi = make_werner(1.0)
    assert abs(pauli_expectation(phi, "X", "X") - 1.0) < 1e-12
    assert abs(pauli_expectation(phi, "Z", "Z") - 1.0) < 1e-12
    assert abs(pauli_expectation(phi, "Y", "Y") + 1.0) < 1e-12
    assert abs(pauli_expectation(phi, "I", "I") - 1.0) < 1e-12
    assert abs(pauli_expectation(phi, "X", "I")) < 1e-12
    mixed = np.eye(4, dtype=complex) / 4
    assert abs(pauli_expectation(mixed, "Z", "Z")) < 1e-12


def test_pauli_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = random_density(2, rng)
        r = to_pauli(rho)
        assert r.dtype == float and r.shape == (4, 4)
        assert abs(r[0, 0] - 1.0) < 1e-15
        assert abs(r[1, 3] - pauli_expectation(rho, "X", "Z")) < 1e-15
        assert np.abs(from_pauli(r) - rho).max() < 1e-15
    w = (4.0 * 0.9 - 1.0) / 3.0
    assert np.abs(to_pauli(make_werner(0.9)) - np.diag([1.0, w, -w, w])).max() < 1e-15
