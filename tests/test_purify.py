import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from purlink.channels import NoiseParams
from purlink.purify import (
    MAX_LIVE_PAIRS,
    CircuitError,
    PurificationCircuit,
    dejmps_step,
    load_circuit,
    parse_circuit,
)
from purlink.states import (
    BellCoeffs,
    bell_diagonal_state,
    fidelity,
    make_werner,
)

from dense_oracle import (
    QueuedU,
    bell_diagonal,
    bell_recurrence_oracle,
    check_state,
    dense_pump_step,
    run_circuit,
    step_branch_maps,
)

NOISELESS = NoiseParams(p_g=1.0, p_m=1.0, t1=math.inf, t2=math.inf)
HI = 1.0 - 1e-12
RNG = np.random.default_rng(314159)


def forced_branch(main, sac, ua, ub, noise=NOISELESS):
    return dejmps_step(main, sac, noise, QueuedU(ua, ub))


def conditioned_success(main, sac, noise=NOISELESS):
    """Success-conditioned post state and probability via forced branches."""
    pp = forced_branch(main, sac, 0.0, 0.0, noise)
    mm = forced_branch(main, sac, HI, HI, noise)
    assert pp.alice_outcome == pp.bob_outcome == 1
    assert mm.alice_outcome == mm.bob_outcome == -1
    p_succ = pp.branch_prob + mm.branch_prob
    state = (pp.branch_prob * pp.post_state + mm.branch_prob * mm.post_state) / p_succ
    return state, p_succ


def random_bell_coeffs(rng):
    return BellCoeffs(*rng.dirichlet(np.ones(4)))


def published_recurrence(main, sac):
    # written out independently of the implementation
    a1, b1, c1, d1 = main
    a2, b2, c2, d2 = sac
    n = (a1 + b1) * (a2 + b2) + (c1 + d1) * (c2 + d2)
    a = (a1 * a2 + b1 * b2) / n
    b = (c1 * d2 + d1 * c2) / n
    c = (c1 * c2 + d1 * d2) / n
    d = (a1 * b2 + b1 * a2) / n
    return BellCoeffs(a, b, c, d), n


# --- the analytic oracle ---


def test_oracle_matches_independent_formula():
    for _ in range(200):
        main, sac = random_bell_coeffs(RNG), random_bell_coeffs(RNG)
        got, p_got = bell_recurrence_oracle(main, sac)
        want, p_want = published_recurrence(main, sac)
        assert np.allclose(got, want, atol=1e-14)
        assert abs(p_got - p_want) < 1e-14


def test_oracle_werner_09_frozen():
    w = bell_diagonal(make_werner(0.9))
    post, p = bell_recurrence_oracle(w, w)
    assert abs(post.a - 0.9263959390862944) < 1e-12
    assert abs(p - 0.8755555555555556) < 1e-12
    assert abs(post.a - 0.926396) < 1e-6
    assert abs(p - 0.875556) < 1e-6


def test_oracle_fixed_point_and_symmetry():
    pure = BellCoeffs(1.0, 0.0, 0.0, 0.0)
    post, p = bell_recurrence_oracle(pure, pure)
    assert post == pytest.approx((1.0, 0.0, 0.0, 0.0))
    assert p == 1.0
    x, y = random_bell_coeffs(RNG), random_bell_coeffs(RNG)
    ab, p_ab = bell_recurrence_oracle(x, y)
    ba, p_ba = bell_recurrence_oracle(y, x)
    assert np.allclose(ab, ba, atol=1e-14)
    assert abs(p_ab - p_ba) < 1e-14


def test_oracle_rejects_unnormalized():
    good = BellCoeffs(0.7, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        bell_recurrence_oracle(good, BellCoeffs(0.5, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        bell_recurrence_oracle(BellCoeffs(1.1, 0.0, 0.0, -0.1 + 0.2), good)


# --- dejmps_step against the oracle ---


def test_step_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(2001)
    for _ in range(100):
        cm, cs = random_bell_coeffs(rng), random_bell_coeffs(rng)
        main, sac = bell_diagonal_state(cm), bell_diagonal_state(cs)
        state, p_succ = conditioned_success(main, sac)
        want, p_want = bell_recurrence_oracle(cm, cs)
        assert abs(p_succ - p_want) < 1e-10
        assert np.allclose(bell_diagonal(state), want, atol=1e-10)
        # conditioned output is Bell-diagonal: off-diagonal mass vanishes
        assert np.allclose(state, bell_diagonal_state(bell_diagonal(state)), atol=1e-10)


def test_step_branch_probs_sum_to_one():
    main, sac = make_werner(0.85), make_werner(0.7)
    total = 0.0
    for ua, ub in ((0.0, 0.0), (0.0, HI), (HI, 0.0), (HI, HI)):
        out = forced_branch(main, sac, ua, ub)
        check_state(out.post_state, tol=1e-9)
        total += out.branch_prob
    assert abs(total - 1.0) < 1e-10


def test_step_phi_plus_fixed_point():
    out = dejmps_step(make_werner(1.0), make_werner(1.0), NOISELESS, np.random.default_rng(5))
    assert out.success
    assert abs(fidelity(out.post_state) - 1.0) < 1e-10
    assert abs(out.branch_prob - 0.5) < 1e-10  # (+,+) and (-,-) each carry half


def test_step_success_frequency():
    # empirical coincidence rate vs the oracle branch probability
    w = bell_diagonal(make_werner(0.85))
    _, p_want = bell_recurrence_oracle(w, w)
    main = make_werner(0.85)
    rng = np.random.default_rng(98765)
    n = 4000
    wins = sum(dejmps_step(main, main, NOISELESS, rng).success for _ in range(n))
    sigma = math.sqrt(p_want * (1.0 - p_want) / n)
    assert abs(wins / n - p_want) < 3.0 * sigma


def test_step_noisy_regression():
    noise = NoiseParams(p_g=0.95, p_m=0.95, t1=math.inf, t2=math.inf)
    out = dejmps_step(make_werner(0.85), make_werner(0.75), noise, np.random.default_rng(42))
    assert out.success
    assert (out.alice_outcome, out.bob_outcome) == (-1, -1)
    assert abs(fidelity(out.post_state) - 0.7809409205590889) < 1e-12
    assert abs(out.branch_prob - 0.34746999999999995) < 1e-12
    again = dejmps_step(make_werner(0.85), make_werner(0.75), noise, np.random.default_rng(42))
    assert out != again and len({out, again}) == 2  # compared by identity, so == and hash never touch the arrays


def test_dejmps_step_matches_dense_step_over_noise():
    # 20 noise settings outside any cache: same outcomes and states as the
    # dense branch maps, draw for draw
    rng = np.random.default_rng(2718)
    for i, (p_g, p_m) in enumerate(rng.uniform(0.6, 1.0, size=(20, 2))):
        noise = NoiseParams(p_g=p_g, p_m=p_m)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        main, sac = a @ a.conj().T / np.trace(a @ a.conj().T).real, make_werner(0.8)
        for seed in range(3):
            got = dejmps_step(main, sac, noise, np.random.default_rng((i, seed)))
            out_a, out_b, post, prob = dense_pump_step(
                step_branch_maps(p_g, p_m), main, sac, np.random.default_rng((i, seed))
            )
            assert (got.alice_outcome, got.bob_outcome) == (out_a, out_b)
            assert np.abs(got.post_state - post).max() < 1e-15
            assert abs(got.branch_prob - prob) < 1e-15


def test_step_gate_noise_degrades_output():
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=math.inf, t2=math.inf)
    state, _ = conditioned_success(make_werner(0.9), make_werner(0.9), noise)
    f = fidelity(state)
    assert 0.9 < f < 0.926396


def test_pumping_monotone_convergence():
    # fresh Werner sacrifices keep raising fidelity until a fixed point
    for f0 in (0.6, 0.8, 0.95):
        sac = bell_diagonal(make_werner(f0))
        cur = sac
        last = cur.a
        for _ in range(400):
            cur, _ = bell_recurrence_oracle(cur, sac)
            assert cur.a >= last - 1e-12
            last = cur.a
        stepped, _ = bell_recurrence_oracle(cur, sac)
        assert abs(stepped.a - cur.a) < 1e-9  # converged
        assert last > f0


def test_pumping_monotone_via_step():
    sac = make_werner(0.8)
    main = sac
    last = 0.8
    for _ in range(12):
        main, _ = conditioned_success(main, sac)
        f = fidelity(main)
        assert f >= last - 1e-12
        last = f


# --- circuit DSL ---

DEJMPS_TEXT = """
PAIRS 2
ROT 0
ROT 1
GATE CNOT 0 1
MEASURE 1 BASIS Z KEEP equal
"""


def test_parse_dejmps_text():
    circ = parse_circuit(DEJMPS_TEXT)
    assert circ.num_pairs == 2
    assert circ.survivor == 0
    assert circ.max_live == 2
    assert len(circ.instructions) == 4


def test_shipped_circuits_load():
    base = resources.files("purlink") / "circuits"
    dejmps = parse_circuit((base / "dejmps.circuit").read_text())
    assert dejmps.num_pairs == 2 and dejmps.survivor == 0
    opt5 = parse_circuit((base / "optimized5.circuit").read_text())
    assert opt5.num_pairs == 5
    assert opt5.survivor == 0
    assert opt5.max_live == 3  # five pairs cycled through a three-slot register


def test_load_circuit_from_path(tmp_path):
    p = tmp_path / "c.circuit"
    p.write_text(DEJMPS_TEXT)
    assert load_circuit(p) == parse_circuit(DEJMPS_TEXT)


def test_circuit_matches_step_same_seed():
    circ = parse_circuit(DEJMPS_TEXT)
    noise = NoiseParams(p_g=0.97, p_m=0.96, t1=math.inf, t2=math.inf)
    rng = np.random.default_rng(11)
    for _ in range(50):
        f_main, f_sac = rng.uniform(0.5, 1.0, size=2)
        main, sac = make_werner(f_main), make_werner(f_sac)
        seed = int(rng.integers(0, 2**31))
        got = run_circuit(circ, [main, sac], noise, np.random.default_rng(seed))
        want = dejmps_step(main, sac, noise, np.random.default_rng(seed))
        assert got.success == want.success
        assert (got.alice_outcome, got.bob_outcome) == (want.alice_outcome, want.bob_outcome)
        assert abs(got.branch_prob - want.branch_prob) < 1e-12
        assert np.allclose(got.post_state, want.post_state, atol=1e-12)


def test_zero_instruction_circuit_is_identity():
    circ = parse_circuit("PAIRS 1\n")
    assert circ.survivor == 0 and circ.max_live == 1
    w = make_werner(0.77)
    out = run_circuit(circ, [w], NOISELESS, np.random.default_rng(0))
    assert out.success
    assert out.branch_prob == 1.0
    assert np.allclose(out.post_state, w)


def test_untouched_trailing_survivor():
    circ = parse_circuit("PAIRS 2\nMEASURE 0 BASIS Z KEEP equal\n")
    assert circ.survivor == 1
    w0, w1 = make_werner(0.9), make_werner(0.6)
    out = run_circuit(circ, [w0, w1], NOISELESS, np.random.default_rng(1))
    assert np.allclose(out.post_state, w1)


def test_circuits_preserve_phi_plus():
    # noiseless perfect inputs pass any coincidence test
    base = resources.files("purlink") / "circuits"
    for name in ("dejmps.circuit", "optimized5.circuit"):
        circ = parse_circuit((base / name).read_text())
        supplier = [make_werner(1.0) for _ in range(circ.num_pairs)]
        out = run_circuit(circ, supplier, NOISELESS, np.random.default_rng(3))
        assert out.success
        assert abs(fidelity(out.post_state) - 1.0) < 1e-10


def test_optimized5_purifies():
    base = resources.files("purlink") / "circuits"
    circ = parse_circuit((base / "optimized5.circuit").read_text())
    rng = np.random.default_rng(17)
    f_in = 0.9
    # average the survivor over the kept branches only
    num = np.zeros((4, 4), dtype=complex)
    den = 0.0
    for _ in range(200):
        out = run_circuit(circ, [make_werner(f_in)] * 5, NOISELESS, rng)
        if out.success:
            num += out.branch_prob * out.post_state
            den += out.branch_prob
    kept = num / den
    assert fidelity(kept / np.trace(kept).real) > f_in


def test_run_circuit_accepts_callable_supplier():
    circ = parse_circuit(DEJMPS_TEXT)
    it = iter([make_werner(0.9), make_werner(0.9)])
    out = run_circuit(circ, lambda: next(it), NOISELESS, np.random.default_rng(9))
    assert out.success in (True, False)


def test_max_live_pairs_constant():
    assert MAX_LIVE_PAIRS == 3


@pytest.mark.parametrize(
    "text,needle",
    [
        ("ROT 0\n", "line 1: PAIRS must come before instructions"),
        ("PAIRS 2\nPAIRS 2\n", "line 2: duplicate PAIRS"),
        ("PAIRS 0\n", "line 1: expected: PAIRS"),
        ("PAIRS two\n", "line 1: expected: PAIRS"),
        # str.isdigit accepts superscript digits, which int() rejects
        ("PAIRS \u00b2\n", "line 1: expected: PAIRS"),
        ("PAIRS 2\nROT \u00b2\n", "line 2: expected: ROT"),
        ("PAIRS 2\nGATE CNOT 0 \u00b2\n", "line 2: gate pair indices must be integers"),
        ("PAIRS 2\nMEASURE \u00b2 BASIS Z KEEP equal\n", "line 2: expected: MEASURE"),
        ("PAIRS 2\nROT 5\n", "line 2: pair index 5 out of range"),
        ("PAIRS 2\nROT 1\n", "line 2: pair 1 referenced before pair 0"),
        ("PAIRS 2\nFLIP 0\n", "line 2: unknown instruction 'FLIP'"),
        ("PAIRS 2\nGATE CNOT 0 0\n", "line 2: gate control and target must differ"),
        ("PAIRS 2\nGATE SWAP 0 1\n", "line 2: expected: GATE CNOT|CZ"),
        ("PAIRS 2\nMEASURE 0 BASIS W KEEP equal\n", "line 2: expected: MEASURE"),
        ("PAIRS 2\nMEASURE 0 BASIS Z KEEP maybe\n", "line 2: expected: MEASURE"),
        (
            "PAIRS 2\nMEASURE 0 BASIS Z KEEP equal\nROT 0\n",
            "line 3: pair 0 was already measured",
        ),
        (
            "PAIRS 4\nGATE CNOT 0 1\nGATE CNOT 2 3\n",
            "line 3: 4 pairs live at once",
        ),
        ("PAIRS 3\nGATE CNOT 0 1\n", "exactly one pair must survive unmeasured, found 3"),
        (
            "PAIRS 2\nMEASURE 0 BASIS Z KEEP equal\nMEASURE 1 BASIS Z KEEP equal\n",
            "exactly one pair must survive unmeasured, found 0",
        ),
        ("# only a comment\n", "missing PAIRS line"),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    assert needle in str(err.value)


def test_huge_pair_count_is_rejected_in_small_memory():
    text = DEJMPS_TEXT.replace("PAIRS 2", "PAIRS 1000000")
    tracemalloc.start()
    try:
        with pytest.raises(CircuitError) as err:
            parse_circuit(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "exactly one pair must survive unmeasured, found 999999" in str(err.value)
    assert peak < 1 << 20


def test_circuit_type_is_frozen():
    circ = parse_circuit(DEJMPS_TEXT)
    assert isinstance(circ, PurificationCircuit)
    with pytest.raises(Exception):
        circ.survivor = 1
