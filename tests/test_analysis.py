"""Secret-key fraction, CI machinery, and the estimate() driver."""

import math

import numpy as np
import pytest

from purlink.analysis import (
    SKF_MODES,
    Estimates,
    binary_entropy,
    ci_halfwidth,
    estimate,
    skf_bb84,
)
from purlink.channels import NoiseParams
from purlink.linkmodel import LinkConfig
from purlink.protocols import BASE, NOP, Pumping, expected_nop_time, run_trial
from purlink.states import make_werner, pauli_fidelity

from dense_oracle import check_state

NOISELESS = NoiseParams(p_g=1.0, p_m=1.0, t1=math.inf, t2=math.inf)
LOSSLESS_KHZ = LinkConfig("ground", d=20.0, mu=1e3, f0=0.9, alpha_f=0.0)
LOSSY_MHZ = LinkConfig("ground", d=20.0, mu=1e6, f0=0.9)
DECOHERING = NoiseParams(p_g=0.99, p_m=0.99, t1=360.0, t2=1e-3)


def exact_phi_plus() -> np.ndarray:
    """Projector onto the first Bell vector with entries exactly 0.5."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return rho


# --- binary entropy ---


def test_binary_entropy_edges_and_max():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(-0.3) == 0.0
    assert binary_entropy(1.5) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_symmetric_and_concave():
    rng = np.random.default_rng(20240811)
    for x in rng.uniform(0.01, 0.99, size=50):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)
        assert 0.0 < binary_entropy(x) <= 1.0
    assert binary_entropy(0.25) < binary_entropy(0.4) < binary_entropy(0.5)


# --- secret-key fraction ---


def test_skf_default_mode_frozen_values():
    assert skf_bb84(make_werner(0.9)) == pytest.approx(0.29328132995715656, abs=1e-12)
    assert skf_bb84(make_werner(0.8)) == 0.0


def test_skf_perfect_state():
    assert skf_bb84(exact_phi_plus()) == 1.0
    assert skf_bb84(make_werner(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_skf_qber_threshold():
    # the 11% error threshold lands between Werner fidelities 0.83 and 0.84
    assert skf_bb84(make_werner(0.83)) == 0.0
    assert skf_bb84(make_werner(0.84)) > 0.0


def test_skf_raw_mode_shifts_the_threshold():
    # feeding the correlator straight into the entropy demands more fidelity
    assert skf_bb84(make_werner(0.9), "raw") == 0.0
    assert skf_bb84(make_werner(0.95), "raw") == pytest.approx(
        0.29328132995715483, abs=1e-12
    )
    # raw at F maps onto qber at the F whose error rate matches
    assert skf_bb84(make_werner(0.95), "raw") == pytest.approx(
        skf_bb84(make_werner(0.9), "qber"), abs=1e-12
    )


def test_skf_monotone_in_werner_fidelity():
    # raw mode is symmetric in the correlator, so start it above theta = 0.5
    # (fidelity 0.625); below that, anticorrelation masquerades as key
    starts = {"qber": 0.25, "raw": 0.625}
    for mode in SKF_MODES:
        grid = np.linspace(starts[mode], 1.0, 40)
        vals = [skf_bb84(make_werner(f), mode) for f in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_skf_unknown_mode():
    with pytest.raises(ValueError) as err:
        skf_bb84(make_werner(0.9), "qwer")
    assert "qwer" in str(err.value)


def test_skf_modes_tuple():
    assert SKF_MODES == ("qber", "raw")


# --- confidence intervals ---


def test_ci_halfwidth_matches_formula():
    rng = np.random.default_rng(7)
    arr = rng.normal(3.0, 0.5, size=37)
    expected = 1.96 * float(np.std(arr, ddof=1)) / math.sqrt(37)
    assert ci_halfwidth(arr) == expected


def test_ci_halfwidth_near_the_float_range():
    # squaring deviations of 1e300 overflows; the samples are rescaled first
    arr = np.array([1.0, 3.0, 2.0, 7.0]) * 1e300
    scaled = 1.96 * float(np.std(arr / 7e300, ddof=1)) / math.sqrt(4)
    assert ci_halfwidth(arr) == 7e300 * scaled
    assert math.isfinite(ci_halfwidth(arr))


def test_ci_halfwidth_constant_samples():
    assert ci_halfwidth([2.5] * 10) == 0.0


def test_ci_halfwidth_of_equal_samples_is_exactly_zero():
    # np.std of 100 or 225 copies of this value is about 1e-16, not 0
    for n in (100, 225, 300):
        assert ci_halfwidth([0.821449872630141] * n) == 0.0


def test_ci_halfwidth_needs_two_samples():
    with pytest.raises(ValueError):
        ci_halfwidth([1.0])
    with pytest.raises(ValueError):
        ci_halfwidth([])


# --- estimate() ---


def test_estimate_zero_variance_converges_at_n_min():
    est = estimate(NOP, Pumping(0), LOSSLESS_KHZ, NOISELESS, n_min=100, seed=3)
    assert est.n_trials == 100
    assert est.converged
    assert est.rate == 1.0 / expected_nop_time(LOSSLESS_KHZ)
    assert est.ci_halfwidth_rate == 0.0
    assert est.ci_halfwidth_fidelity < 1e-15
    assert est.mean_fidelity == pytest.approx(0.9, abs=1e-12)
    assert np.abs(est.mean_state - make_werner(0.9)).max() < 1e-12
    expected_skr = skf_bb84(make_werner(0.9)) * est.rate
    assert est.skr == pytest.approx(expected_skr, rel=1e-9)


def test_estimate_is_deterministic():
    kw = dict(n_min=100, seed=11, max_trials=100)
    a = estimate(BASE, Pumping(2), LOSSY_MHZ, DECOHERING, **kw)
    b = estimate(BASE, Pumping(2), LOSSY_MHZ, DECOHERING, **kw)
    assert a.mean_fidelity == b.mean_fidelity
    assert a.rate == b.rate
    assert a.skr == b.skr
    assert a.ci_halfwidth_fidelity == b.ci_halfwidth_fidelity
    assert a.ci_halfwidth_rate == b.ci_halfwidth_rate
    assert a.n_trials == b.n_trials
    assert a.converged == b.converged
    assert np.array_equal(a.mean_state, b.mean_state)
    assert a != b and len({a, b}) == 2  # compared by identity, so == and hash never touch the arrays


def test_estimate_trial_seeding_contract():
    # trial i must draw from default_rng((*seed, i)) so batching is invisible
    est = estimate(BASE, Pumping(2), LOSSY_MHZ, DECOHERING, n_min=100, seed=(4, 9), max_trials=100)
    times, fids, row_sum = [], [], np.zeros(16)
    from purlink.states import from_pauli, pauli_fidelity

    for i in range(100):
        rng = np.random.default_rng((4, 9, i))
        res = run_trial(BASE, Pumping(2), LOSSY_MHZ, DECOHERING, rng)
        times.append(res.completion_time)
        fids.append(float(pauli_fidelity(res.pauli)))
        row_sum = row_sum + res.pauli
    assert est.mean_fidelity == float(np.mean(fids))
    assert est.rate == 1.0 / float(np.mean(times))
    assert np.array_equal(est.mean_state, from_pauli(row_sum / 100))


def test_estimate_deterministic_fidelity_is_exact():
    # every NOP trial decoheres for the same herald delay, so all 100 trials
    # deliver one fidelity: the mean is that value and its CI is 0.0
    link = LinkConfig("ground", d=20.0, mu=1e9, f0=0.9)
    est = estimate(NOP, Pumping(0), link, DECOHERING, n_min=100, seed=(1001, 0, 0), max_trials=100)
    one = pauli_fidelity(run_trial(NOP, Pumping(0), link, DECOHERING, np.random.default_rng((1001, 0, 0, 7))).pauli)
    assert est.mean_fidelity == float(one)
    assert est.ci_halfwidth_fidelity == 0.0


def test_estimate_integer_seed_equals_singleton_tuple():
    a = estimate(NOP, Pumping(0), LOSSY_MHZ, DECOHERING, n_min=100, seed=5, max_trials=100)
    b = estimate(NOP, Pumping(0), LOSSY_MHZ, DECOHERING, n_min=100, seed=(5,), max_trials=100)
    assert a.rate == b.rate
    assert np.array_equal(a.mean_state, b.mean_state)


def test_estimate_cap_reports_unconverged():
    est = estimate(BASE, Pumping(2), LOSSY_MHZ, DECOHERING, n_min=100, seed=11, max_trials=100)
    assert est.n_trials == 100
    assert not est.converged


def test_estimate_growth_batches_hit_the_cap():
    # batches grow by half the current count: 100 -> 150 stops exactly at the cap
    est = estimate(BASE, Pumping(2), LOSSY_MHZ, DECOHERING, n_min=100, seed=11, max_trials=150)
    assert est.n_trials == 150
    assert not est.converged


def test_estimate_result_is_well_formed():
    est = estimate(BASE, Pumping(1), LOSSY_MHZ, DECOHERING, n_min=100, seed=2, max_trials=100)
    assert isinstance(est, Estimates)
    assert est.rate > 0.0
    assert 0.0 <= est.skr
    assert est.ci_halfwidth_fidelity > 0.0
    assert est.ci_halfwidth_rate > 0.0
    assert abs(float(np.trace(est.mean_state).real) - 1.0) < 1e-9
    check_state(est.mean_state, tol=1e-8)


def test_estimate_validates_arguments():
    args = (NOP, Pumping(0), LOSSY_MHZ, NOISELESS)
    with pytest.raises(ValueError):
        estimate(*args, n_min=99)
    with pytest.raises(ValueError):
        estimate(*args, n_min=100, ci_target=0.0)
    with pytest.raises(ValueError):
        estimate(*args, n_min=100, ci_target=-0.5)
    with pytest.raises(ValueError):
        estimate(*args, n_min=100, max_trials=99)
    with pytest.raises(ValueError):
        estimate(*args, n_min=100, skf_mode="nope")
