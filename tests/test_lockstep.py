"""Trials in lockstep: a trial's result does not depend on its batch.

run_trials advances one lane per generator through the compiled program
together; run_trial is its batch of one. Each lane reads its own
generator's uniforms from prefetched blocks, so lane i of any batch must
equal run_trial on the same seed, bit for bit.
"""

from importlib import resources

import numpy as np
import pytest
from equivalence_grid import LONE_MEASURE, THREE_PAIR

from purlink import protocols
from purlink.analysis import estimate
from purlink.channels import NoiseParams
from purlink.linkmodel import GROUND, LinkConfig
from purlink.protocols import CircuitScheme, ProtocolKind, Pumping, run_trial, run_trials
from purlink.purify import parse_circuit
from purlink.states import fidelity

NOISE = NoiseParams(p_g=0.98, p_m=0.99, t1=360.0, t2=0.01)
LINKS = {
    "lossy": LinkConfig(GROUND, d=20.0, mu=1e6, f0=0.9),
    "timed": LinkConfig(GROUND, d=20.0, mu=1e6, f0=0.9, gate_time=1e-6, measure_time=5e-7),
}
def packaged(name):
    return CircuitScheme(parse_circuit((resources.files("purlink") / "circuits" / f"{name}.circuit").read_text()))


SCHEMES = {
    "pump0": lambda: Pumping(0),
    "pump2": lambda: Pumping(2),
    "pump5": lambda: Pumping(5),
    "dejmps": lambda: packaged("dejmps"),
    "optimized5": lambda: packaged("optimized5"),
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
            for lo, size in ((0, 100), (3, 7), (42, 1)):
                rngs = [np.random.default_rng((61, i)) for i in range(lo, lo + size)]
                batch = run_trials(kind, scheme, link, NOISE, rngs)
                assert len(batch) == size
                for i, res in enumerate(batch):
                    assert same(res, alone[lo + i]), (*where, size, lo + i)


def test_lanes_draw_only_through_random():
    # a generator wrapped to expose nothing but random() and random(n) runs
    # the same trials
    link = LINKS["timed"]
    for kind in (ProtocolKind("BASE"), ProtocolKind("OPT"), ProtocolKind("OPT", measure_before_confirm=True)):
        for scheme in (Pumping(3), packaged("optimized5")):
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
    state_sum = np.zeros((4, 4), dtype=complex)
    for r in trials:
        state_sum = state_sum + r.output_state
    assert est.mean_fidelity == float(np.mean([fidelity(r.output_state) for r in trials]))
    assert est.rate == 1.0 / float(np.mean(times))
    assert np.array_equal(est.mean_state, state_sum / 225)
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
    for scheme in (Pumping(0), Pumping(5), packaged("optimized5"), CircuitScheme(parse_circuit(THREE_PAIR))):
        lanes = protocols.batch_lanes(ProtocolKind("BASE"), scheme)
        assert 1 <= lanes <= protocols._BATCH_ELEMENTS // protocols._MAX_BLOCK
    # a wider register means fewer lanes per batch
    assert protocols.batch_lanes(ProtocolKind("BASE"), CircuitScheme(parse_circuit(THREE_PAIR))) < (
        protocols.batch_lanes(ProtocolKind("BASE"), Pumping(5))
    )
    assert protocols.batch_lanes(ProtocolKind("OPT", measure_before_confirm=True), Pumping(2)) >= 1


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
        packaged("dejmps"), packaged("optimized5"),
        CircuitScheme(parse_circuit(THREE_PAIR)), CircuitScheme(parse_circuit(LONE_MEASURE)),
    ]
    written, stores = set(), []
    init = protocols._Batch.__init__

    def recording_init(self, kernel, kept, lanes):
        init(self, kernel, kept, lanes)
        self.store = RecordingStore(self.store, written)
        stores.append(self.store)

    monkeypatch.setattr(protocols._Batch, "__init__", recording_init)
    for scheme in schemes:
        written.clear()
        stores.clear()
        run_trials(kind, scheme, LINKS["timed"], NOISE, [np.random.default_rng((63, i)) for i in range(20)])
        _, circ = protocols._circuit(kind, scheme)
        lanes = protocols.batch_lanes(kind, scheme)
        _, kept, in_hand = protocols._compile(circ)
        assert written <= set(kept), (name, mbc, scheme)
        (store,) = stores
        stored = sum(dict.__getitem__(store, key).shape[1] for key in store)
        assert lanes * (protocols._MAX_BLOCK + stored + in_hand) <= protocols._BATCH_ELEMENTS, (name, mbc, scheme)
    assert protocols.batch_lanes(kind, packaged("optimized5")) >= 150
