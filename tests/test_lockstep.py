"""Trials in lockstep: a trial's result does not depend on its batch.

run_trials advances one lane per generator, or per lane of a
streams.Streams, through the compiled program together; run_trial is its
batch of one. Each lane reads its own stream's uniforms from prefetched
blocks, so lane i of any batch must equal run_trial on the same seed, bit
for bit.
"""

import numpy as np
import pytest
from dense_oracle import packaged_circuit
from equivalence_grid import LONE_MEASURE, THREE_PAIR

from purlink import protocols
from purlink.analysis import estimate
from purlink.channels import NoiseParams
from purlink.linkmodel import GROUND, LinkConfig
from purlink.protocols import CircuitScheme, ProtocolKind, Pumping, run_trial, run_trials
from purlink.purify import parse_circuit
from purlink.states import from_pauli, pauli_fidelity
from purlink.streams import Streams

NOISE = NoiseParams(p_g=0.98, p_m=0.99, t1=360.0, t2=0.01)
LINKS = {
    "lossy": LinkConfig(GROUND, d=20.0, mu=1e6, f0=0.9),
    "timed": LinkConfig(GROUND, d=20.0, mu=1e6, f0=0.9, gate_time=1e-6, measure_time=5e-7),
}
SCHEMES = {
    "pump0": lambda: Pumping(0),
    "pump2": lambda: Pumping(2),
    "pump5": lambda: Pumping(5),
    "dejmps": lambda: CircuitScheme(packaged_circuit("dejmps")),
    "optimized5": lambda: CircuitScheme(packaged_circuit("optimized5")),
    "three_pair": lambda: CircuitScheme(parse_circuit(THREE_PAIR)),
    "lone_measure": lambda: CircuitScheme(parse_circuit(LONE_MEASURE)),
}


class OnlyRandom:
    """A generator seen only through random() and random(n), as a counting proxy sees it."""

    __slots__ = ("_gen",)

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)

    def random(self, size=None):
        return self._gen.random(size)


def same(a, b):
    return (
        a.completion_time == b.completion_time
        and a.pairs_consumed == b.pairs_consumed
        and a.steps_completed == b.steps_completed
        and a.restarts == b.restarts
        and np.array_equal(a.output_state, b.output_state)
    )


@pytest.mark.parametrize("mbc", [False, True])
@pytest.mark.parametrize("name", ["NOP", "BASE", "HOPT", "OPT"])
def test_lane_equals_lone_trial_in_any_batch(name, mbc):
    kind = ProtocolKind(name, measure_before_confirm=mbc)
    for scheme_name, make in SCHEMES.items():
        scheme = make()
        for link_name, link in LINKS.items():
            where = (name, mbc, scheme_name, link_name)
            alone = [run_trial(kind, scheme, link, NOISE, np.random.default_rng((61, i))) for i in range(100)]
            for i in range(5):  # tracing draws nothing
                traced = run_trial(kind, scheme, link, NOISE, np.random.default_rng((61, i)), events=[])
                assert same(traced, alone[i]), (*where, "traced", i)
            for lo, size in ((0, 100), (3, 7), (42, 1)):
                rngs = [np.random.default_rng((61, i)) for i in range(lo, lo + size)]
                for source in (rngs, Streams((61,), lo, lo + size)):  # generator lanes, then stream lanes
                    batch = run_trials(kind, scheme, link, NOISE, source)
                    assert len(batch) == size
                    for i, res in enumerate(batch):
                        assert same(res, alone[lo + i]), (*where, type(source).__name__, size, lo + i)


def test_optimized5_batch_runs_the_largest_waiting_group_first(monkeypatch):
    # optimized5's lanes drift apart over its five runs; running one group
    # at a time, the largest, lets the others gather: this batch takes 37
    # calls, against 72 when every waiting group ran on every pass
    kind, scheme, link = ProtocolKind("BASE"), CircuitScheme(packaged_circuit("optimized5")), LINKS["lossy"]
    calls = []
    run = protocols._Batch.run

    def counted(self, ops, ix, dts, us):
        calls.append(len(ix))
        return run(self, ops, ix, dts, us)

    monkeypatch.setattr(protocols._Batch, "run", counted)
    batch = run_trials(kind, scheme, link, NOISE, Streams((1,), 0, 100))
    assert len(calls) <= 40, calls
    for i, res in enumerate(batch):
        assert same(res, run_trial(kind, scheme, link, NOISE, np.random.default_rng((1, i)))), i


def test_one_lane_streams_trial_equals_its_generator_trial():
    # the CLI's traced trial draws a one-lane Streams at index 2^62, events and all
    link = LINKS["timed"]
    for kind in (ProtocolKind("NOP"), ProtocolKind("HOPT"), ProtocolKind("OPT", measure_before_confirm=True)):
        for scheme in (Pumping(2), CircuitScheme(packaged_circuit("dejmps"))):
            for i in (0, 2**62):
                a, b = [], []
                by_rng = run_trial(kind, scheme, link, NOISE, np.random.default_rng((63, 1, i)), events=a)
                by_streams = run_trial(kind, scheme, link, NOISE, Streams((63, 1), i, i + 1), events=b)
                assert same(by_rng, by_streams) and a == b, (kind, scheme, i)


def test_lanes_draw_only_through_random():
    # a generator wrapped to expose nothing but random() and random(n) runs
    # the same trials
    link = LINKS["timed"]
    for kind in (ProtocolKind("BASE"), ProtocolKind("OPT"), ProtocolKind("OPT", measure_before_confirm=True)):
        for scheme in (Pumping(3), CircuitScheme(packaged_circuit("optimized5"))):
            wrapped = run_trials(kind, scheme, link, NOISE, [OnlyRandom((62, i)) for i in range(20)])
            for i, res in enumerate(wrapped):
                assert same(res, run_trial(kind, scheme, link, NOISE, np.random.default_rng((62, i))))


def test_run_trials_of_no_generators_is_empty():
    assert run_trials(ProtocolKind("BASE"), Pumping(2), LINKS["lossy"], NOISE, []) == []


def per_trial(kind, scheme, link, seed, n):
    return [run_trial(kind, scheme, link, NOISE, np.random.default_rng((*seed, i))) for i in range(n)]


@pytest.mark.parametrize("lanes", [None, 16])
def test_estimate_batches_split_100_50_75(lanes, monkeypatch):
    # an unreachable CI target grows the trial count 100 -> 150 -> 225; with
    # 16-lane chunks every batch is also cut inside
    if lanes is not None:
        monkeypatch.setattr("purlink.analysis.batch_lanes", lambda kind, scheme: lanes)
    kind, scheme, link = ProtocolKind("HOPT"), Pumping(2), LINKS["timed"]
    est = estimate(kind, scheme, link, NOISE, n_min=100, seed=(8, 3), ci_target=1e-9, max_trials=225)
    assert est.n_trials == 225 and not est.converged
    trials = per_trial(kind, scheme, link, (8, 3), 225)
    times = [r.completion_time for r in trials]
    row_sum = np.zeros(16)
    for r in trials:
        row_sum = row_sum + r.pauli
    assert est.mean_fidelity == float(np.mean([pauli_fidelity(r.pauli) for r in trials]))
    assert est.rate == 1.0 / float(np.mean(times))
    assert np.array_equal(est.mean_state, from_pauli(row_sum / 225))
    assert est.mean_pairs == float(np.mean([r.pairs_consumed for r in trials]))
    assert est.mean_restarts == float(np.mean([r.restarts for r in trials]))


def test_estimate_reports_pairs_and_restarts_per_delivery():
    restarts = {}
    for name in ("NOP", "BASE", "OPT"):
        kind = ProtocolKind(name)
        est = estimate(kind, Pumping(3), LINKS["lossy"], NOISE, n_min=100, seed=9, max_trials=100)
        trials = per_trial(kind, Pumping(3), LINKS["lossy"], (9,), 100)
        assert est.mean_pairs == float(np.mean([r.pairs_consumed for r in trials]))
        assert est.mean_restarts == float(np.mean([r.restarts for r in trials]))
        assert est.mean_pairs >= (1 if name == "NOP" else 4)
        restarts[name] = est.mean_restarts
    # raw delivery never restarts; OPT restarts on every lost photon as well
    assert restarts["NOP"] == 0.0 < restarts["BASE"] < restarts["OPT"]


def test_batch_lanes_is_bounded_by_the_element_budget():
    for scheme in (
        Pumping(0), Pumping(5), CircuitScheme(packaged_circuit("optimized5")), CircuitScheme(parse_circuit(THREE_PAIR))
    ):
        lanes = protocols.batch_lanes(ProtocolKind("BASE"), scheme)
        assert 1 <= lanes <= protocols._BATCH_ELEMENTS // protocols._FIRST_BLOCK
    # a wider register means fewer lanes per batch
    assert protocols.batch_lanes(ProtocolKind("BASE"), CircuitScheme(parse_circuit(THREE_PAIR))) < (
        protocols.batch_lanes(ProtocolKind("BASE"), Pumping(5))
    )
    assert protocols.batch_lanes(ProtocolKind("OPT", measure_before_confirm=True), Pumping(2)) >= 1


class AskedFor(OnlyRandom):
    """A generator stand-in that records the size of every block it is asked for."""

    __slots__ = ("asked",)

    def __init__(self, seed):
        super().__init__(seed)
        self.asked = []

    def random(self, size=None):
        self.asked.append(size)
        return super().random(size)


def test_generator_lane_blocks_grow_128_512_then_1024():
    # a long OPT trial at 20 km: 654 pairs over 824 restarts
    kind, scheme, link = ProtocolKind("OPT"), Pumping(5), LINKS["lossy"]
    lane = AskedFor((64, 1))
    res = run_trial(kind, scheme, link, NOISE, lane)
    assert lane.asked[:4] == [128, 512, 1024, 1024] and set(lane.asked[4:]) <= {1024}
    assert same(res, run_trial(kind, scheme, link, NOISE, np.random.default_rng((64, 1))))


class CutStreams(Streams):
    """Streams that records each refill, (rows, n), and cuts lane 0's blocks to 4 uniforms.

    Lane 0 runs dry far more often than the others, so some refills serve
    lanes due blocks of different sizes.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def refill(self, rows, n):
        self.calls.append((list(rows), n))
        return [block[:4] if row == 0 else block for row, block in zip(rows, super().refill(rows, n))]


def test_a_refill_draws_the_largest_block_its_lanes_are_due():
    streams = CutStreams((66,), 0, 6)
    run_trials(ProtocolKind("OPT"), Pumping(3), LINKS["lossy"], NOISE, streams)
    assert streams.calls[0] == (list(range(6)), 128)  # every lane's first block, in one call
    due, mixed = dict.fromkeys(range(6), 512), 0
    for rows, n in streams.calls[1:]:
        assert n == max(due[row] for row in rows), (rows, n)
        mixed += len({due[row] for row in rows}) > 1
        due.update(dict.fromkeys(rows, min(4 * n, 1024)))  # 4x the last block, up to 1024
    assert mixed


def test_estimate_builds_no_trial_result(monkeypatch):
    # estimate reads the engine's arrays; only run_trial and run_trials build TrialResult
    kind, scheme, link = ProtocolKind("HOPT"), Pumping(2), LINKS["timed"]
    want = estimate(kind, scheme, link, NOISE, n_min=100, seed=(8, 4), max_trials=100)

    def refuse(*args):
        raise AssertionError("TrialResult built")

    monkeypatch.setattr(protocols, "TrialResult", refuse)
    got = estimate(kind, scheme, link, NOISE, n_min=100, seed=(8, 4), max_trials=100)
    assert (got.mean_fidelity, got.rate, got.n_trials, got.mean_pairs, got.mean_restarts) == (
        want.mean_fidelity, want.rate, want.n_trials, want.mean_pairs, want.mean_restarts
    )
    with pytest.raises(AssertionError, match="TrialResult built"):
        run_trials(kind, scheme, link, NOISE, [np.random.default_rng((8, 4, 0))])


class RecordingStore(dict):
    """Stands in for _Batch.store: records the register of every write."""

    def __init__(self, store, written):
        super().__init__(store)
        self.written = written

    def __getitem__(self, key):
        return RecordingRows(self, key)


class RecordingRows:
    __slots__ = ("store", "key")

    def __init__(self, store, key):
        self.store, self.key = store, key

    def __getitem__(self, rows):
        return dict.__getitem__(self.store, self.key)[rows]

    def __setitem__(self, rows, value):
        self.store.written.add(self.key)
        assert self.key in self.store, f"register {self.key} written but not kept"
        dict.__getitem__(self.store, self.key)[rows] = value


@pytest.mark.parametrize("mbc", [False, True])
@pytest.mark.parametrize("name", ["NOP", "BASE", "HOPT", "OPT"])
def test_store_holds_only_the_registers_compile_keeps(name, mbc, monkeypatch):
    kind = ProtocolKind(name, measure_before_confirm=mbc)
    schemes = [Pumping(n) for n in range(6)] + [
        CircuitScheme(packaged_circuit("dejmps")), CircuitScheme(packaged_circuit("optimized5")),
        CircuitScheme(parse_circuit(THREE_PAIR)), CircuitScheme(parse_circuit(LONE_MEASURE)),
    ]
    written, stores = set(), []
    init = protocols._Batch.__init__

    def recording_init(self, noise, werner, kept, lanes):
        init(self, noise, werner, kept, lanes)
        self.store = RecordingStore(self.store, written)
        stores.append(self.store)

    monkeypatch.setattr(protocols._Batch, "__init__", recording_init)
    for scheme in schemes:
        written.clear()
        stores.clear()
        run_trials(kind, scheme, LINKS["timed"], NOISE, [np.random.default_rng((63, i)) for i in range(20)])
        _, circ, _ = protocols.plan(kind, scheme)
        lanes = protocols.batch_lanes(kind, scheme)
        _, _, _, kept, in_hand = protocols._compile(circ)
        assert written <= set(kept), (name, mbc, scheme)
        (store,) = stores
        stored = sum(dict.__getitem__(store, key).shape[1] for key in store)
        assert lanes * (protocols._FIRST_BLOCK + stored + in_hand) <= protocols._BATCH_ELEMENTS, (name, mbc, scheme)
    assert protocols.batch_lanes(kind, CircuitScheme(packaged_circuit("optimized5"))) >= 150


@pytest.mark.parametrize("mbc", [False, True])
@pytest.mark.parametrize("name", ["NOP", "BASE", "HOPT", "OPT"])
def test_compile_numbers_each_run_once(name, mbc):
    # a run goes from entry 0, or the entry after a step or measurement, to
    # the next step, measurement or delivery; equal runs share an id, so
    # every step of Pumping(n) is one group and its delivery another
    kind = ProtocolKind(name, measure_before_confirm=mbc)
    ends = (protocols._STEP, protocols._MEASURE)
    for n in range(1, 6):
        _, circ, _ = protocols.plan(kind, Pumping(n))
        _, runs, run_ops, _, _ = protocols._compile(circ)
        if name == "NOP":  # raw delivery: one run
            assert len(run_ops) == len(set(runs.values())) == 1, (name, mbc, n)
        else:
            assert len(run_ops) == len(set(runs.values())) == 2, (name, mbc, n)
    for scheme_name, make in SCHEMES.items():
        _, circ, _ = protocols.plan(kind, make())
        program, runs, run_ops, _, _ = protocols._compile(circ)
        assert set(runs) == {0} | {i + 1 for i, entry in enumerate(program) if entry[0] in ends}, scheme_name
        for start, ident in runs.items():
            end = next(i for i in range(start, len(program)) if program[i][0] in (*ends, protocols._DELIVER))
            assert run_ops[ident] == tuple(entry[3] for entry in program[start:end + 1]), (scheme_name, start)
