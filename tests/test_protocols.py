import math

import numpy as np
import pytest

from purlink import protocols
from purlink.channels import NoiseParams
from purlink.linkmodel import GROUND, LinkConfig, attempt_success_prob, link_delays
from purlink.protocols import (
    PROTOCOL_NAMES,
    CircuitScheme,
    ProtocolKind,
    Pumping,
    TrialResult,
    expected_nop_time,
    run_trial,
)
from purlink.purify import parse_circuit
from purlink.states import fidelity, make_werner

from dense_oracle import QueuedU, check_state, packaged_circuit, run_circuit
from equivalence_grid import LONE_MEASURE, THREE_PAIR

INF = math.inf
NOISELESS = NoiseParams(p_g=1.0, p_m=1.0, t1=INF, t2=INF)
DEFAULT_NOISE = NoiseParams(p_g=0.99, p_m=0.99, t1=360.0, t2=1.0)

NOP = ProtocolKind("NOP")
BASE = ProtocolKind("BASE")
HOPT = ProtocolKind("HOPT")
OPT = ProtocolKind("OPT")
OPT_MBC = ProtocolKind("OPT", measure_before_confirm=True)


def ground(d=20.0, mu=1e6, f0=0.9, **kw):
    return LinkConfig(GROUND, d=d, mu=mu, f0=f0, **kw)


CIRCUITS = {
    "dejmps": lambda: packaged_circuit("dejmps"),
    "optimized5": lambda: packaged_circuit("optimized5"),
    "three_pair": lambda: parse_circuit(THREE_PAIR),
    "lone_measure": lambda: parse_circuit(LONE_MEASURE),
}


# --- scheme and kind validation ---


def test_protocol_names():
    assert PROTOCOL_NAMES == ("NOP", "BASE", "HOPT", "OPT")
    with pytest.raises(ValueError):
        ProtocolKind("FAST")


def test_pumping_range():
    Pumping(0)
    Pumping(5)
    with pytest.raises(ValueError):
        Pumping(6)
    with pytest.raises(ValueError):
        Pumping(-1)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        run_trial(BASE, "pump", ground(), DEFAULT_NOISE, np.random.default_rng(0))


# --- deterministic timelines ---


def test_base_single_pair_lossless_exact():
    # emission at 1 ms, photon 50 us, herald 100 us
    link = ground(mu=1e3, alpha_f=0.0)
    r = run_trial(BASE, Pumping(0), link, NOISELESS, np.random.default_rng(0))
    assert r.completion_time == 1.15e-3
    assert (r.pairs_consumed, r.steps_completed, r.restarts) == (1, 0, 0)
    assert abs(fidelity(r.output_state) - 0.9) < 1e-12


def test_nop_lossless_exact():
    link = ground(mu=1e3, alpha_f=0.0)
    r = run_trial(NOP, Pumping(0), link, NOISELESS, np.random.default_rng(0))
    assert r.completion_time == 1.15e-3
    mbc = run_trial(
        ProtocolKind("NOP", measure_before_confirm=True),
        Pumping(0),
        link,
        NOISELESS,
        np.random.default_rng(0),
    )
    # measured on arrival, no confirmation wait
    assert mbc.completion_time == 1.05e-3
    assert abs(fidelity(mbc.output_state) - 0.9) < 1e-12


def test_nop_ignores_scheme():
    link = ground(mu=1e3, alpha_f=0.0)
    b = run_trial(NOP, Pumping(0), link, NOISELESS, np.random.default_rng(1))
    for scheme in (Pumping(4), CircuitScheme(packaged_circuit("dejmps"))):
        a = run_trial(NOP, scheme, link, NOISELESS, np.random.default_rng(1))
        assert a.completion_time == b.completion_time
        assert a.steps_completed == 0
        assert a.pairs_consumed == 1
        assert np.array_equal(a.output_state, b.output_state)


def test_one_sided_loss_holds_slot_only_for_heralded_purification():
    # tick 1 loses Bob's photon, tick 2 keeps both; the herald (100 us) spans
    # ten source periods, so only a protocol that holds the survivor's slot
    # for the failure herald skips tick 2
    link = ground(mu=1e5)  # period 10 us, photon 50 us, herald 100 us
    lost_then_kept = (0.0, 1.0 - 1e-12, 0.0, 0.0)
    nop = run_trial(NOP, Pumping(0), link, NOISELESS, QueuedU(*lost_then_kept))
    assert nop.completion_time == pytest.approx(170e-6, abs=1e-15)  # stored at tick 2
    assert nop.pairs_consumed == 1
    base = run_trial(BASE, Pumping(0), link, NOISELESS, QueuedU(*lost_then_kept))
    # retries at the first tick arriving after the herald: 60 + 100 -> tick 11
    assert base.completion_time == pytest.approx(260e-6, abs=1e-15)
    assert base.pairs_consumed == 1


@pytest.mark.parametrize("d,herald_ticks,photon_ticks", [(20.0, 100_000, 50_000), (140.0, 700_000, 350_000)])
def test_one_sided_loss_jump_is_constant_at_large_ticks(d, herald_ticks, photon_ticks):
    # m one-sided losses, then a tick that keeps both photons; at 1 GHz the
    # losses walk the tick index into the millions, where float rounding
    # in the tick arithmetic could shift a jump by one
    link = ground(d=d, mu=1e9)
    m = 20
    uniforms = (0.0, 1.0 - 1e-12) * m + (0.0, 0.0)
    jumps = {
        NOP: 1,  # no partner slot is held: the next tick
        BASE: herald_ticks,  # the survivor's slot waits for the failure herald
        HOPT: herald_ticks,
        OPT: photon_ticks + herald_ticks,  # a first pair restarts once the loss is heralded
    }
    for kind, jump in jumps.items():
        events = []
        run_trial(kind, Pumping(0), link, NOISELESS, QueuedU(*uniforms), events=events)
        ticks = [int(line.rpartition("tick=")[2]) for line in events if " photon_lost tick=" in line]
        assert len(ticks) == m, kind
        assert {b - a for a, b in zip(ticks, ticks[1:])} == {jump}, kind


def test_nop_monte_carlo_matches_closed_form():
    # per-attempt success 1.0, 0.5, and 0.1 via the attenuation knob
    alphas = {1.0: 0.0, 0.5: 10.0 * math.log10(2.0) / 20.0, 0.1: 0.5}
    for p_want, alpha in alphas.items():
        link = ground(alpha_f=alpha)
        p = attempt_success_prob(link)
        assert abs(p - p_want) < 1e-12
        n = 4000
        times = np.empty(n)
        for i in range(n):
            r = run_trial(NOP, Pumping(0), link, NOISELESS, np.random.default_rng((31, i)))
            times[i] = r.completion_time
        want = expected_nop_time(link)
        if p_want == 1.0:
            assert np.all(times == want)
        else:
            period = link_delays(link).period
            sigma = period * math.sqrt((1.0 - p) / p**2 / n)
            assert abs(times.mean() - want) < 3.0 * sigma


# --- coupled-randomness dominance ---


def test_paired_dominance_and_state_identity():
    # lossless link, shared per-trial seeds: the three purifying protocols
    # consume identical draw streams, so outputs coincide and only the
    # waiting rules separate the clocks
    link = ground(alpha_f=0.0)
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=INF, t2=INF)
    for i in range(300):
        rs = {
            name: run_trial(
                ProtocolKind(name), Pumping(3), link, noise, np.random.default_rng((1234, i))
            )
            for name in ("BASE", "HOPT", "OPT")
        }
        assert rs["OPT"].completion_time <= rs["HOPT"].completion_time
        assert rs["HOPT"].completion_time <= rs["BASE"].completion_time
        assert np.allclose(rs["BASE"].output_state, rs["HOPT"].output_state, atol=1e-12)
        assert np.allclose(rs["BASE"].output_state, rs["OPT"].output_state, atol=1e-12)


# --- pumping vs circuit cross-check ---


def test_pumping_one_step_equals_dejmps_circuit():
    # DSL instructions and fused pumping steps must land on identical
    # timelines when fed the same instructions and seeds; without memory
    # decoherence the states coincide exactly too
    link = ground(gate_time=1e-6, measure_time=5e-7)
    circ = CircuitScheme(packaged_circuit("dejmps"))
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=INF, t2=INF)
    for kind in (BASE, HOPT, OPT):
        for i in range(150):
            seed = (77, i)
            a = run_trial(kind, Pumping(1), link, noise, np.random.default_rng(seed))
            b = run_trial(kind, circ, link, noise, np.random.default_rng(seed))
            assert a.completion_time == b.completion_time
            assert a.pairs_consumed == b.pairs_consumed
            assert a.restarts == b.restarts
            assert np.allclose(a.output_state, b.output_state, atol=1e-12)


def test_pumping_vs_circuit_under_decoherence():
    # a DSL rotation acts as soon as its pair is usable while a pumping step
    # folds the whole step into the measure instant; rotations
    # do not commute with dephasing, so states may drift a little, but the
    # clocks and the accounting must still agree exactly
    link = ground(gate_time=1e-6, measure_time=5e-7)
    circ = CircuitScheme(packaged_circuit("dejmps"))
    for kind in (BASE, HOPT, OPT):
        for i in range(100):
            seed = (78, i)
            a = run_trial(kind, Pumping(1), link, DEFAULT_NOISE, np.random.default_rng(seed))
            b = run_trial(kind, circ, link, DEFAULT_NOISE, np.random.default_rng(seed))
            assert a.completion_time == b.completion_time
            assert a.pairs_consumed == b.pairs_consumed
            assert a.restarts == b.restarts
            assert np.abs(a.output_state - b.output_state).max() < 2e-3


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_timed_circuit_matches_dense_oracle(name):
    # without memory noise or loss the timed engine must reproduce the dense
    # untimed interpreter draw for draw: on a lossless link acquisition draws
    # two uniforms per pair, which the oracle's supplier mirrors
    circ = CIRCUITS[name]()
    link = ground(alpha_f=0.0)
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=INF, t2=INF)
    werner = make_werner(link.f0)
    for i in range(60):
        r = run_trial(HOPT, CircuitScheme(circ), link, noise, np.random.default_rng((91, i)))
        rng = np.random.default_rng((91, i))

        def supply():
            rng.random()
            rng.random()
            return werner

        oracle = run_circuit(circ, supply, noise, rng)
        if oracle.success:
            assert r.restarts == 0
            assert r.pairs_consumed == circ.num_pairs
            assert np.abs(r.output_state - oracle.post_state).max() < 1e-12
        else:
            assert r.restarts >= 1


# --- result invariants ---


def test_returned_state_does_not_alias_kernel_werner():
    # a bare pair delivered with no storage time is the source Werner state
    kind = ProtocolKind("BASE", measure_before_confirm=True)
    link = ground(mu=1e3, alpha_f=0.0)
    r = run_trial(kind, Pumping(0), link, DEFAULT_NOISE, np.random.default_rng(0))
    for state in (r.output_state, r.pauli):
        try:
            state[...] = 0.0
        except ValueError:
            pass  # a read-only state may refuse the edit
    again = run_trial(kind, Pumping(0), link, DEFAULT_NOISE, np.random.default_rng(1))
    assert abs(fidelity(again.output_state) - 0.9) < 1e-12


def test_trial_result_invariants():
    link = ground()
    for name in PROTOCOL_NAMES:
        for mbc in (False, True):
            kind = ProtocolKind(name, measure_before_confirm=mbc)
            for i in range(40):
                r = run_trial(kind, Pumping(2), link, DEFAULT_NOISE, np.random.default_rng((55, i)))
                assert isinstance(r, TrialResult)
                assert r.completion_time > 0.0
                assert r.pairs_consumed >= r.steps_completed + 1
                assert r.restarts >= 0
                check_state(r.output_state, tol=1e-8)


def test_higher_steps_consume_more_pairs():
    link = ground(alpha_f=0.0)
    for n in range(6):
        r = run_trial(BASE, Pumping(n), link, NOISELESS, np.random.default_rng(3))
        assert r.steps_completed == n
        assert r.pairs_consumed >= n + 1


# --- decoherence accounting ---


def stored_intervals(monkeypatch, kind, scheme, seed):
    """{(episode, pair): (arrival, decohered, end)} for each pair the trial closes.

    _Batch.run is wrapped to append (ops, durations) to the trial's event
    list, so the log shows what the state kernels apply, in order. A pair
    opens at pair_stored; each load of it adds the duration decohere_lanes
    applies, the pair being key[pos], or the last stored pair for a step's
    sacrifice; measure, purify_step (its sacrifice) and delivered close it.
    A delivered line is written before its op runs, so the sums are settled
    after the whole log is read. Each episode stores pair 0 first.
    """
    log = []
    run = protocols._Batch.run

    def recording(self, ops, ix, dts, us):
        log.append((ops, dts[0]))
        return run(self, ops, ix, dts, us)

    link = ground(gate_time=1e-6, measure_time=5e-7)
    with monkeypatch.context() as patch:
        patch.setattr(protocols._Batch, "run", recording)
        run_trial(kind, scheme, link, DEFAULT_NOISE, np.random.default_rng(seed), events=log)
    episode, last = -1, None
    arrival, decohered, end = {}, {}, {}
    for entry in log:
        if isinstance(entry, tuple):
            ops, dts = entry
            for (_, loads, _, _, _), durations in zip(ops, dts):
                for (key, pos, _), dt in zip(loads, durations):
                    if dt > 0.0:
                        decohered[episode, last if key is None else key[pos]] += dt
            continue
        t, _, what, *detail = entry.split()
        if what in ("pair_stored", "measure", "delivered", "purify_step"):
            fields = dict(item.split("=") for item in detail)
            if what == "pair_stored":
                last = int(fields["pair"])
                episode += last == 0
                arrival[episode, last], decohered[episode, last] = float(t), 0.0
            else:
                end[episode, int(fields["step" if what == "purify_step" else "pair"])] = float(t)
    return {key: (arrival[key], decohered[key], t_end) for key, t_end in end.items()}


def test_decoherence_audit_covers_every_stored_interval(monkeypatch):
    # each closed pair: the durations _Batch applies sum to its lifetime
    # between arrival and close
    kinds = [NOP, BASE, HOPT, OPT, OPT_MBC, ProtocolKind("BASE", measure_before_confirm=True)]
    for kind in kinds:
        intervals = stored_intervals(monkeypatch, kind, Pumping(3), 11)
        assert intervals, f"no closed pairs for {kind}"
        for (episode, pair), (arrival, decohered, end) in intervals.items():
            assert abs((end - arrival) - decohered) < 1e-12, (kind, episode, pair)


@pytest.mark.parametrize("mbc", [False, True])
@pytest.mark.parametrize("name", ["BASE", "HOPT", "OPT"])
@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_decoherence_audit_circuit_scheme(circuit, name, mbc, monkeypatch):
    # pairs move from registers of their own into joined ones; every stored
    # interval must be decohered exactly once either way
    kind = ProtocolKind(name, measure_before_confirm=mbc)
    intervals = stored_intervals(monkeypatch, kind, CircuitScheme(CIRCUITS[circuit]()), 21)
    assert intervals
    for (episode, pair), (arrival, decohered, end) in intervals.items():
        assert abs((end - arrival) - decohered) < 1e-12, (episode, pair)


# --- blind pipelining (OPT + measure_before_confirm) ---


def test_blind_opt_deterministic_when_perfect():
    link = ground(f0=1.0, alpha_f=0.0)
    r = run_trial(OPT_MBC, Pumping(2), link, NOISELESS, np.random.default_rng(0))
    # three photons on consecutive ticks, delivery at the third arrival
    assert r.completion_time == 3 * 1e-6 + 5e-5
    assert (r.pairs_consumed, r.steps_completed, r.restarts) == (3, 2, 0)
    assert fidelity(r.output_state) > 1.0 - 1e-10


def test_blind_opt_round_structure():
    # rounds tile the tick grid back to back; every retry costs exactly one
    # round of ticks whatever the failure cause
    period, photon_delay = 1e-6, 5e-5
    for alpha, f0 in ((0.5, 1.0), (0.0, 0.9), (0.3, 0.85)):
        link = ground(f0=f0, alpha_f=alpha)
        for i in range(200):
            r = run_trial(OPT_MBC, Pumping(2), link, NOISELESS, np.random.default_rng((13, i)))
            want = (r.restarts + 1) * 3 * period + photon_delay
            assert abs(r.completion_time - want) < 1e-15
            assert r.pairs_consumed % 3 == 0 and r.pairs_consumed >= 3


def test_blind_opt_pairs_skip_lost_rounds():
    # loss-filtered rounds burn time but never store pairs, so stored pairs
    # can lag far behind the restart count
    link = ground(f0=0.95, alpha_f=1.0)  # eta^2 per slot is small
    counts = []
    for i in range(100):
        r = run_trial(OPT_MBC, Pumping(2), link, NOISELESS, np.random.default_rng((17, i)))
        counts.append((r.restarts, r.pairs_consumed // 3))
    assert any(restarts > rounds_stored - 1 for restarts, rounds_stored in counts)


def test_blind_opt_beats_plain_opt_fidelity():
    # delivery at the last local operation instead of after the confirm
    # wait, plus post filtering, buys fidelity under fast dephasing
    link = ground()
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=360.0, t2=1e-3)
    def mean_f(kind):
        return np.mean([
            fidelity(run_trial(kind, Pumping(2), link, noise, np.random.default_rng((5, i))).output_state)
            for i in range(300)
        ])
    assert mean_f(OPT_MBC) > mean_f(OPT) + 0.05


def test_blind_opt_gate_time_stride():
    # ops longer than a tick stretch the slot spacing instead of colliding
    link = ground(f0=1.0, alpha_f=0.0, gate_time=1.6e-6, measure_time=1e-6)
    r = run_trial(OPT_MBC, Pumping(2), link, NOISELESS, np.random.default_rng(0))
    # stride = ceil(2.6us / 1us) = 3 ticks; slots at ticks 1, 4, 7
    assert r.completion_time == (7 * 1e-6 + 5e-5) + 1.6e-6 + 1e-6
    assert r.restarts == 0


@pytest.mark.parametrize("gate_time,measure_time,stride", [(1e-5, 0.0, 1), (5e-6, 5e-6, 1), (1.5e-5, 5e-6, 2)])
def test_blind_opt_step_fires_at_sacrifice_arrival(gate_time, measure_time, stride):
    # gate work of a whole number of periods ends on the tick the next
    # sacrifice lands, and float rounding can put that end an ulp past the
    # arrival; the step still fires at the arrival, so delivery is exactly
    # the last arrival plus one step's work, at every tick lost rounds reach
    link = ground(d=1.0, mu=1e5, f0=1.0, alpha_f=1.2, gate_time=gate_time, measure_time=measure_time)
    period, photon_delay, _ = link_delays(link)
    for i in range(100):
        r = run_trial(OPT_MBC, Pumping(5), link, NOISELESS, np.random.default_rng((19, i)))
        assert r.pairs_consumed == 6  # perfect pairs never mismatch: every restart is a lost round
        tick = 1 + r.restarts * 6 * stride + 5 * stride
        assert r.completion_time == (tick * period + photon_delay) + gate_time + measure_time, (i, tick)


def test_blind_opt_mismatched_round_runs_to_its_end():
    # 1 km at 100 kHz: the herald (5 us) is shorter than a round (four 10 us
    # ticks), so an outcome message crosses mid-round; blind OPT never acts
    # on it. A round's first pair draws its lost rounds, then each step two
    # outcomes: had the mismatch aborted the round at step 3, the next
    # round would read step 3's uniforms as its loss draw (0.0: hundreds of
    # lost rounds)
    link = ground(d=1.0, mu=1e5, gate_time=1e-5)
    period, photon_delay, herald = link_delays(link)
    assert herald < 4 * period
    keep, flip, none_lost = (0.0, 0.0), (0.0, 1.0 - 1e-12), 1.0 - 1e-12
    uniforms = (none_lost, *flip, *keep, *keep, none_lost, *keep, *keep, *keep)
    events = []
    r = run_trial(OPT_MBC, Pumping(3), link, NOISELESS, QueuedU(*uniforms), events=events)
    assert (r.restarts, r.pairs_consumed, r.steps_completed) == (1, 8, 3)
    assert r.completion_time == (8 * period + photon_delay) + 1e-5
    steps = [line.split()[3:] for line in events if " purify_step " in line]
    assert steps == [["step=1", "a=+1", "b=-1"], ["step=2", "a=+1", "b=+1"], ["step=3", "a=+1", "b=+1"],
                     ["step=1", "a=+1", "b=+1"], ["step=2", "a=+1", "b=+1"], ["step=3", "a=+1", "b=+1"]]
    assert sum(" filtered" in line for line in events) == 1


def test_blind_zero_steps_is_raw_delivery():
    link = ground(mu=1e3, alpha_f=0.0)
    a = run_trial(OPT_MBC, Pumping(0), link, NOISELESS, np.random.default_rng(2))
    b = run_trial(
        ProtocolKind("NOP", measure_before_confirm=True),
        Pumping(0), link, NOISELESS, np.random.default_rng(2),
    )
    assert a.completion_time == b.completion_time == 1.05e-3


def test_mbc_filters_keep_fidelity_for_base_and_hopt():
    link = ground()
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=360.0, t2=1e-3)
    for name in ("BASE", "HOPT"):
        plain = ProtocolKind(name)
        filtered = ProtocolKind(name, measure_before_confirm=True)
        f_plain = np.mean([
            fidelity(run_trial(plain, Pumping(2), link, noise, np.random.default_rng((7, i))).output_state)
            for i in range(300)
        ])
        f_mbc = np.mean([
            fidelity(run_trial(filtered, Pumping(2), link, noise, np.random.default_rng((7, i))).output_state)
            for i in range(300)
        ])
        assert f_mbc > f_plain


# --- event log ---


def parse_events(lines):
    out = []
    for line in lines:
        parts = line.split()
        out.append((float(parts[0]), parts[1], parts[2], " ".join(parts[3:])))
    return out


def test_event_log_message_causality():
    link = ground()  # lossy: herald failures show up too
    herald = link_delays(link).herald_delay
    for kind in (NOP, ProtocolKind("NOP", measure_before_confirm=True), BASE, HOPT, OPT, OPT_MBC):
        events = []
        run_trial(kind, Pumping(2), link, DEFAULT_NOISE, np.random.default_rng(19), events=events)
        parsed = parse_events(events)
        sends = [e for e in parsed if e[2].startswith("send_")]
        recvs = [e for e in parsed if e[2].startswith("recv_")]
        assert len(sends) == len(recvs)
        for (t_s, node_s, kind_s, detail_s), (t_r, node_r, kind_r, detail_r) in zip(sends, recvs):
            assert kind_r == kind_s.replace("send_", "recv_")
            assert detail_r == detail_s
            assert node_r != node_s
            assert abs((t_r - t_s) - herald) < 1e-9
        assert any(e[2] == "delivered" for e in parsed)


def test_event_log_delivery_is_last():
    events = []
    r = run_trial(BASE, Pumping(1), ground(), DEFAULT_NOISE, np.random.default_rng(23), events=events)
    parsed = parse_events(events)
    delivered = [e for e in parsed if e[2] == "delivered"]
    assert len(delivered) == 1
    assert abs(delivered[0][0] - r.completion_time) < 1e-9
    assert max(t for t, _, _, _ in parsed) <= r.completion_time + 1e-9


def test_event_log_off_by_default():
    events = []
    run_trial(BASE, Pumping(1), ground(), DEFAULT_NOISE, np.random.default_rng(23))
    assert events == []  # nothing mutated behind the caller's back


# --- determinism ---


def test_run_trial_deterministic():
    link = ground(gate_time=1e-6, measure_time=5e-7)
    for kind in (NOP, BASE, HOPT, OPT, OPT_MBC):
        a = run_trial(kind, Pumping(2), link, DEFAULT_NOISE, np.random.default_rng(99))
        b = run_trial(kind, Pumping(2), link, DEFAULT_NOISE, np.random.default_rng(99))
        assert a.completion_time == b.completion_time
        assert a.pairs_consumed == b.pairs_consumed
        assert np.array_equal(a.output_state, b.output_state)
        assert a != b and len({a, b}) == 2  # compared by identity, so == and hash never touch the arrays
