"""Timed-event protocol engines for a single purified link.

Four protocols run the same physical story with different waiting rules:

  NOP   deliver the first heralded raw pair, no purification.
  BASE  herald every pair and check every step's outcomes before moving on.
  HOPT  herald pairs, but purify without waiting for outcome messages;
        mismatches abort as soon as the messages cross.
  OPT   act on local photon detection only; all classical messages are
        resolved in one final confirmation wait.

With measure_before_confirm the final confirmation wait is skipped: the pair
is consumed at the last local operation and bad rounds are filtered after
the fact (they cost time but deliver nothing).

A trial simulates from empty memories to one accepted pair. Storage
decoherence is applied to every stored qubit for every interval between the
events that touch it.

Every pair lives in a register held in Pauli transfer form (see channels):
a pair starts alone, as the real 4x4 matrix of states.to_pauli, and a gate
joins the registers of its two pairs. TrialResult.pauli is the delivered flat
row, and TrialResult.output_state its 4x4 density matrix, converted when read.

Every trial runs in one lockstep engine, run_trials, which executes a
purification circuit for one lane per trial; run_trial is its batch of
one. plan alone decides what a protocol and scheme run: Pumping(n) is a
circuit of n fused steps, raw delivery (NOP, whatever the scheme) is the
empty circuit Pumping(0) with no partner slot to hold, and blind OPT (OPT
with measure_before_confirm on pumping) acquires on a round schedule.
_compile flattens the circuit once and numbers its runs: a run goes from
entry 0, or the entry after a step or measurement, to the next step,
measurement or delivery, and equal runs share an id. Each lane is one
generator that tells its trial in order (acquisition from prefetched
uniforms, timing, restarts) and yields at the end of each run, and the
lanes wait in groups by the run id they yield. The engine runs one group at
a time, a delivery first, else the largest, and a group's state operations
run once over its lanes: registers decohere through channels.decohere_lanes,
are rotated and gated by purify.clifford_lanes and measured by
channels.measure_branches; pumping steps run purify._pump_step, and
channels.sample_branches draws the outcomes lane by lane. A lane draws its own uniforms in the order a lone
trial would and does its own arithmetic, so its result is bit-identical in
a batch of any size. Acquisition reads the source tick by tick, except
under blind OPT, whose pairs land on a fixed round schedule and whose lost
rounds are skipped in one draw. The engine keeps two timing rules, one per
instruction form:

  DSL instructions (ROT, GATE, MEASURE) dispatch eagerly: each fires as
  soon as its operands are usable and the local timeline is free, so a
  rotation acts when its pair becomes usable.
  A pumping step applies rotations, CNOTs and measurement at the measure
  instant, through the gather tables of purify._pump_step.

Rotations do not commute with dephasing, so under memory noise Pumping(1)
and dejmps.circuit are not interchangeable: on identical clocks their
delivered state entries differ by up to 4.7e-4 at t2 = 1 s.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Optional, Union

import numpy as np

from .channels import NoiseParams, decohere_lanes, measure_branches, sample_branches
from .linkmodel import LinkConfig, attempt_success_prob, link_delays, per_photon_survival
from .purify import Gate, Measure, PurificationCircuit, Rot, _pump_step, _step_tables, clifford_lanes
from .states import TwoQubitState, from_pauli, make_werner, to_pauli
from .streams import Streams

PROTOCOL_NAMES = ("NOP", "BASE", "HOPT", "OPT")

_TICK_EPS = 1e-9  # guard for float noise in tick index arithmetic


@dataclass(frozen=True)
class ProtocolKind:
    name: str
    measure_before_confirm: bool = False

    def __post_init__(self) -> None:
        if self.name not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.name!r}")


NOP = ProtocolKind("NOP")
BASE = ProtocolKind("BASE")
HOPT = ProtocolKind("HOPT")
OPT = ProtocolKind("OPT")


@dataclass(frozen=True)
class Pumping:
    n_steps: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_steps <= 5:
            raise ValueError("pumping steps must be in [0, 5]")


@dataclass(frozen=True)
class CircuitScheme:
    circuit: PurificationCircuit


Scheme = Union[Pumping, CircuitScheme]


@dataclass(frozen=True, eq=False)  # arrays have no truth value: compare by identity
class TrialResult:
    completion_time: float
    pauli: np.ndarray  # the delivered pair, flat, indexed 4 i + j as in states.to_pauli
    pairs_consumed: int
    steps_completed: int
    restarts: int

    @property
    def output_state(self) -> TwoQubitState:
        return from_pauli(self.pauli)


def expected_nop_time(link: LinkConfig) -> float:
    """Closed-form mean NOP delivery time: geometric wait plus delays."""
    p = attempt_success_prob(link)
    if not 0.0 < p <= 1.0:
        raise ValueError("attempt success probability must be in (0, 1]")
    period, photon_delay, herald_delay = link_delays(link)
    return period / p + photon_delay + herald_delay


# ---------------------------------------------------------------------------
# Event lines. A traced lane appends text lines "time node kind detail" to its
# caller's event list; an untraced lane holds None and formats nothing.


def _event(events: list, t: float, node: str, kind: str, detail: str = "") -> None:
    events.append(f"{t:.12f} {node} {kind} {detail}".rstrip())


def _message(
    events: list, send_time: float, arrival_time: float, node: str, kind: str,
    step: Optional[int] = None, outcome: Optional[int] = None,
) -> None:
    """Log a classical message from node to the other: herald_ok, herald_fail, purify_outcome or final_confirm."""
    extra = ""
    if step is not None:
        extra = f"step={step}"
        if outcome is not None:
            extra += f" outcome={outcome:+d}"
    other = "B" if node == "A" else "A"
    _event(events, send_time, node, f"send_{kind}", extra)
    _event(events, arrival_time, other, f"recv_{kind}", extra)


# ---------------------------------------------------------------------------
# The lockstep engine.


@dataclass(frozen=True, eq=False)  # identity hash keeps _compile lookups cheap
class _Step:
    """One fused pumping step: sacrifice `pair` to purify `main`.

    Rotations, bilateral CNOT and Z-coincidence check all act at the measure
    instant, through purify._pump_step. Only Pumping compiles to this
    instruction.
    """

    main: int
    pair: int


@lru_cache(maxsize=None)
def _pumping_circuit(n_steps: int) -> PurificationCircuit:
    steps = tuple(_Step(0, s) for s in range(1, n_steps + 1))
    return PurificationCircuit(n_steps + 1, steps, 0, 2 if n_steps else 1)


_ROT, _GATE, _MEASURE, _STEP, _DELIVER = range(5)


@lru_cache(maxsize=32)
def _compile(circ: PurificationCircuit) -> tuple:
    """Flatten a circuit to entries, and number its runs: (program, runs, run_ops, kept, hand).

    An entry is (code, operands, fresh, op, keep, seed). fresh lists the
    pairs first referenced by the entry, which are acquired in that order
    before it runs. A final _DELIVER entry acquires the survivor if no
    instruction touched it. op = (code, loads, out, arg, positions) is the
    entry's state operation. It names each register by its pairs in axis
    order, which the program fixes at every entry, since joins and
    measurements never depend on outcomes. loads holds (register, position,
    fresh) per operand, fresh meaning still the source pair; out is the
    register written. keep is a measurement's keep_equal. A step's sacrifice
    is the register None, and seed names its main pair's register if that
    pair is fresh: the walk stores the source pair there, so all steps of a
    pumping circuit share one op.

    A run is what a lane walks in one round: from entry 0, or the entry
    after a step or measurement, through the next one or the delivery.
    runs maps each start to its run's id, and run_ops[id] is that run of
    ops; equal runs share an id, so every step of Pumping(n) is one group.
    kept maps the registers a run leaves in _Batch.store to their sizes:
    each measurement's survivor, the seed among them, and any output no
    later op of the same run loads; a delivery stores nothing. Every other
    register lives only in hand, from op to op of one run, and hand is the
    size of the largest.
    """
    program = []
    layout: dict[int, tuple] = {}  # the register of each live pair
    for instr in circ.instructions:
        if isinstance(instr, Rot):
            code, operands, arg = _ROT, (instr.pair,), "ROT"
        elif isinstance(instr, Gate):
            code, operands, arg = _GATE, (instr.control_pair, instr.target_pair), instr.kind
        elif isinstance(instr, Measure):
            code, operands, arg = _MEASURE, (instr.pair,), instr
        else:
            code, operands, arg = _STEP, (instr.main, instr.pair), None
        fresh = tuple(p for p in operands if p not in layout)
        layout.update((p, (p,)) for p in fresh)
        loads = tuple((layout[p], layout[p].index(p), p in fresh) for p in operands)
        positions = keep = seed = None
        if code == _STEP:
            out = layout[instr.main]
            loads = ((out, 0, False), (None, 0, True))
            seed = out if instr.main in fresh else None
        elif code == _MEASURE:
            out = tuple(q for q in layout.pop(instr.pair) if q != instr.pair)
            arg, keep = instr.basis, instr.keep_equal
        else:
            first, reg = layout[operands[0]], layout[operands[-1]]
            out = reg if first == reg else first + reg  # a GATE joins its pairs' registers
            positions = tuple(map(out.index, operands))
        layout.update((q, out) for q in out)
        program.append((code, operands, fresh, (code, loads, out, arg, positions), keep, seed))
    survivor = circ.survivor
    fresh = () if survivor in layout else (survivor,)
    loads = (((survivor,), 0, bool(fresh)),)
    program.append((_DELIVER, (), fresh, (_DELIVER, loads, (), None, None), None, None))
    sizes = {entry[3][2]: 16 ** len(entry[3][2]) for entry in program if entry[3][2]}
    kept, held = set(), set()  # as _Batch.run stores them
    runs, ids, start = {}, {}, 0  # ids: run of ops -> its id
    for end, (code, _, _, (_, loads, out, _, _), _, _) in enumerate(program):
        held.difference_update(key for key, _, _ in loads)
        if out:
            held.add(out)
        if code == _STEP or code == _MEASURE:
            kept |= held
            held.clear()
        elif code != _DELIVER:
            continue
        runs[start] = ids.setdefault(tuple(entry[3] for entry in program[start:end + 1]), len(ids))
        start = end + 1
    hand = max((size for key, size in sizes.items() if key not in kept), default=0)
    return tuple(program), runs, tuple(ids), {key: sizes[key] for key in kept}, hand


_FIRST_BLOCK, _LAST_BLOCK = 128, 1024  # uniforms in a lane's first block and its largest; a refill draws 4x the last
_BATCH_ELEMENTS = 1 << 16  # floats one batch of lanes may hold (see batch_lanes)
_DRY = (None, None, None)  # what a lane yields when it needs its next block


class _Generators(list):
    """Generators as a block source: each listed lane draws rng.random(n); a stand-in may return fewer."""

    def refill(self, rows, n: int) -> list:
        return [array("d", self[row].random(n).tobytes()) for row in rows]


class _Rows:
    """Rows that depend on a duration alone, each computed once, held in one (rows, 16) array.

    make(dts) returns one row per duration, row by row, so a row does not
    depend on the others made with it.
    """

    def __init__(self, make):
        self.make, self.index, self.rows = make, {}, np.empty((0, 16))

    def __call__(self, dts: list) -> np.ndarray:
        index = self.index
        new = [dt for dt in dict.fromkeys(dts) if dt not in index]
        if new:
            index.update(zip(new, range(len(self.rows), len(self.rows) + len(new))))
            self.rows = np.concatenate([self.rows, self.make(new)])
        return self.rows[[index[dt] for dt in dts]]


class _Batch:
    """The registers of every lane of a batch, and its grouped state operations.

    A register named by its pairs lives in row i of store[pairs] for lane i.
    An op runs once per group of lanes: it decoheres each operand for its
    lane's duration, then steps, measures, gates or delivers through the
    stacked channels, so a lane's numbers do not depend on the batch. A
    delivery writes its lanes' rows of delivered. What depends on a
    duration alone is computed once per call: the memory channel's rates
    (transfer, for decohere_lanes), the source pair stored for a duration
    (source) and that pair rotated (rotated).
    """

    def __init__(self, noise: NoiseParams, werner: np.ndarray, kept: dict, lanes: int):
        self.noise = noise
        self.store = {key: np.empty((lanes, size)) for key, size in kept.items()}
        self.delivered = np.empty((lanes, 16))
        self.tables = _step_tables(self.noise.p_g, self.noise.p_m)
        self.transfer = transfer = {}  # the makers below hold no self, so a batch is freed on return
        self.source = source = _Rows(
            lambda dts: decohere_lanes(np.tile(werner, (len(dts), 1)), 0, dts, noise, transfer)
        )
        self.rotated = _Rows(lambda dts: clifford_lanes(source(dts), "ROT", (0,), noise.p_g))

    def run(self, ops: tuple, ix: np.ndarray, dts: tuple, us: tuple):
        """Apply a run of ops to the lanes ix, dts[i][j] holding lane i's durations for op j.

        Returns the last op's outcome lists, or None after a delivery.
        Registers pass from op to op in hand and are stored at the end.
        """
        held: dict = {}
        for j, (code, loads, out, arg, positions) in enumerate(ops):
            if code == _ROT and loads[0][2]:  # a fresh pair, rotated
                held[out] = self.rotated([d[j][0] for d in dts])
                continue
            regs: dict = {}  # in operand order
            for n, (key, pair, fresh) in enumerate(loads):
                lane_dts = [d[j][n] for d in dts]
                if fresh:
                    regs[key] = self.source(lane_dts)
                else:
                    r = regs[key] if key in regs else held.pop(key) if key in held else self.store[key][ix]
                    regs[key] = decohere_lanes(r, pair, lane_dts, self.noise, self.transfer)
            rs = list(regs.values())
            if code == _DELIVER:
                self.delivered[ix] = rs[0]
                return None
            if code == _STEP:
                *outcome, post, _ = _pump_step(self.tables, rs[0], rs[1], us)
            elif code == _MEASURE:
                *outcome, post, _ = sample_branches(measure_branches(rs[0], loads[0][1], arg, self.noise.p_m), us)
            else:
                post = rs[0] if len(rs) == 1 else (rs[0][:, :, None] * rs[1][:, None, :]).reshape(len(ix), -1)
                post = clifford_lanes(post, arg, positions, self.noise.p_g)
            if out:
                held[out] = post
        for key, r in held.items():
            self.store[key][ix] = r
        return outcome


def _lockstep(
    kind: ProtocolKind, scheme: Scheme, link: LinkConfig, noise: NoiseParams, source, logs
) -> tuple[list, np.ndarray]:
    """Run one lane per trial of source, generators or a Streams, from empty memories until each delivers.

    Each lane is a generator, trial, that tells its trial in program order.
    One pass of its outer loop is one episode from empty memories, and a
    restart breaks out to it. An entry first acquires the pairs it first
    references, reading the lane's prefetched uniforms two per source tick,
    then waits until its operands are usable. At each step or measurement
    the lane yields (run id, durations, uniforms) for the run of ops it
    walked, and is sent the outcomes (out_a, out_b). At delivery it records
    done[row] = (completion time, pairs consumed, steps completed, restarts)
    and yields (run id, durations, None), its last yield; its group writes
    row `row` of delivered, (lanes, 16). Returns (done, delivered). The
    lanes wait in groups by run id. A lane out of uniforms, as every lane
    is at its first draw, yields _DRY and is sent its next block: the
    engine first serves every dry lane from one source.refill(rows, n), n
    the largest block any of them is due (_FIRST_BLOCK at first, then 4x
    its last, up to _LAST_BLOCK). Then it runs one group through _Batch:
    the delivery group if lanes wait there, since a delivery frees its
    lanes, else the group with the most lanes, while the others gather. A
    lane takes its uniforms in the order a lone trial would and its
    arithmetic lane by lane, so its result is the same alone, in a batch
    of any size and whenever its group runs.

    Pairs take memory slots in arrival order; a slot frees at the
    measurement of the pair holding it, and under BASE a new pair is also
    held back until every earlier outcome is checked. A lost photon (OPT),
    a mismatch (without measure_before_confirm) or a filtered delivery
    (with it) restarts the episode from the moment it is known; OPT's first
    pair of an episode restarts in place, since the episode holds nothing
    yet. A one-sided loss keeps the survivor's slot for `hold` seconds after
    the lost tick's arrival, then retries: BASE and HOPT hold it until the
    failure herald crosses; NOP reserves no partner slot (hold = 0.0), so
    the retry is the next tick. plan picks the kind, the circuit and
    whether the lanes acquire blind.

    Blind OPT (measure_before_confirm on pumping) scans no source ticks:
    the shared source clock gives every tick a fixed role, round by round,
    so both nodes always act on matching halves without negotiating. A
    round's pairs land every `stride` ticks (the first tick after the
    previous step's gate work), each step fires when its sacrifice lands,
    and the rounds lost to photon loss before the next complete one are a
    single geometric draw. A mismatch only dooms the round: it runs to its
    end, is filtered, and the next round starts on schedule.
    """
    kind, circ, blind = plan(kind, scheme)
    program, runs, run_ops, kept, _ = _compile(circ)
    opt = kind.name == "OPT"
    base = kind.name == "BASE"
    mbc = kind.measure_before_confirm
    period, photon_delay, herald = link_delays(link)
    p_photon = per_photon_survival(link)
    werner = to_pauli(make_werner(link.f0)).reshape(16)  # the source pair, flat
    lag = 0.0 if opt else herald  # the others use a pair once heralded
    hold = None if opt else 0.0 if kind.name == "NOP" else herald
    gate_of = [link.gate_time if code == _STEP or code == _GATE else 0.0 for code, *_ in program]
    measure_of = [link.measure_time if code == _STEP or code == _MEASURE else 0.0 for code, *_ in program]
    if blind:
        op_dur = link.gate_time + link.measure_time
        stride = 1 if op_dur <= 0.0 else max(1, math.ceil(op_dur / period - _TICK_EPS))
        span = circ.num_pairs * stride  # ticks one round takes
        q_round = (p_photon * p_photon) ** circ.num_pairs  # every photon of a round survives
        log_lost = math.log1p(-q_round) if q_round < 1.0 else None

    def trial(events: Optional[list], row: int):
        """One lane, row of the batch's store; events is its caller's list, None when untraced."""
        buf, i, end = array("d"), 0, -1  # prefetched uniforms, the next one, and len(buf) - 1
        pairs = restarts = 0
        usable = [0.0] * circ.num_pairs  # local time from which each pair may be used
        touched = [0.0] * circ.num_pairs  # time each pair is decohered up to
        round_next = 1  # blind OPT: the first tick of the next round
        ref = 0.0
        while True:  # an episode: memories empty at ref; usable and touched are written before use
            k_last = max(0, math.ceil(ref / period - _TICK_EPS) - 1)  # before the first tick emitted at or after ref
            steps = 0
            slot_free = [0.0] * circ.max_live  # min-heap of slot release times
            last_arrival = t_local = 0.0
            check_floor = 0.0  # when every outcome so far has been checked
            mismatch_resolve = math.inf
            doomed = False  # a mismatch under measure_before_confirm filters the delivery
            ref = None  # when the episode restarts, once known
            start, dts = 0, []  # the entry this run began at, and the durations of its ops
            for pc, (code, operands, fresh, _, keep, seed) in enumerate(program):
                for p in fresh:  # acquire until the pair is stored at both nodes
                    floor = heappop(slot_free)
                    if base and check_floor > floor:
                        floor = check_floor
                    if blind:
                        # The pair lands on its tick of the round. The step it joins
                        # fires on its arrival, so t_local moves there even when float
                        # rounding ends the previous step an ulp later.
                        if pc == 0 and p == fresh[0]:
                            k = round_next
                            if log_lost is not None:  # the rounds photon loss dooms before this one
                                while i > end:
                                    buf, i = buf[i:] + (yield _DRY), 0
                                    end = len(buf) - 1
                                skipped = int(math.log(max(buf[i], 1e-300)) / log_lost)
                                i += 1
                                if skipped:
                                    restarts += skipped
                                    k += skipped * span
                                    if events is not None:
                                        _event(events, (k - 1) * period + photon_delay, "AB", "rounds_filtered",
                                               f"count={skipped} cause=loss")
                            round_next = k + span
                        else:
                            k = k_last + stride  # a stride after the previous pair's tick
                        t_local = a = k * period + photon_delay
                    else:
                        k = math.ceil((floor - photon_delay) / period - _TICK_EPS)  # first arrival at or after floor
                        if k <= k_last:
                            k = k_last + 1
                        while True:  # the tick scan
                            while i >= end:
                                buf, i = buf[i:] + (yield _DRY), 0
                                end = len(buf) - 1
                            got_a = buf[i] < p_photon
                            got_b = buf[i + 1] < p_photon
                            i += 2
                            if got_a and got_b:
                                break
                            if not got_a and not got_b:
                                k += 1
                                continue
                            a = k * period + photon_delay
                            if events is not None:
                                loser = "B" if got_a else "A"
                                _event(events, a, loser, "photon_lost", f"tick={k}")
                                _message(events, a, a + herald, loser, "herald_fail")
                            if hold is not None:
                                k_hold = math.ceil((a + hold - photon_delay) / period - _TICK_EPS)
                                k = k_hold if k_hold > k + 1 else k + 1
                            elif pc == 0 and p == fresh[0]:
                                # OPT's first pair restarts in place; the slot floor 0.0 never binds
                                restarts += 1
                                k = max(1, math.ceil((a + herald) / period - _TICK_EPS))
                            else:
                                ref = a + herald
                                break
                        if ref is not None:
                            break
                        a = k * period + photon_delay
                    k_last = k
                    pairs += 1
                    last_arrival = touched[p] = a
                    usable[p] = a + lag
                    if events is not None:
                        _event(events, a, "AB", "pair_stored", f"pair={p}")
                        _message(events, a, a + herald, "A", "herald_ok")
                if ref is not None:
                    break
                if code == _DELIVER:
                    # an untouched survivor is usable on arrival; every other pair
                    # arrived before the instruction that first touched it
                    t_local = completion = max(t_local, last_arrival)
                    if not mbc:
                        completion = max(t_local, last_arrival + herald, check_floor)
                        if events is not None:
                            _message(events, t_local, t_local + herald, "A", "final_confirm")
                    elif doomed:
                        # Delivered blind and filtered once the messages arrive;
                        # the round costs time but produces nothing.
                        ref = t_local
                        if events is not None:
                            _event(events, ref, "AB", "filtered")
                        break
                    if events is not None:
                        _event(events, completion, "AB", "delivered", f"pair={circ.survivor}")
                    dts.append((completion - touched[circ.survivor],))
                    done[row] = completion, pairs, steps, restarts
                    yield runs[start], dts, None
                tau = t_local
                for p in operands:
                    if usable[p] > tau:
                        tau = usable[p]
                if tau >= mismatch_resolve:
                    ref = mismatch_resolve  # the failure message crossed first
                    break
                tau_end = tau + gate_of[pc] + measure_of[pc]
                dts.append([tau_end - touched[p] for p in operands])
                for p in operands:
                    touched[p] = tau_end
                t_local = tau_end
                if code == _ROT or code == _GATE:  # no outcome: walk on
                    continue
                if seed:
                    batch.store[seed][row] = werner
                while i >= end:
                    buf, i = buf[i:] + (yield _DRY), 0
                    end = len(buf) - 1
                out_a, out_b = yield runs[start], dts, (buf[i], buf[i + 1])
                i += 2
                if code == _STEP:
                    passed = out_a == out_b
                    if events is not None:
                        _event(events, tau_end, "AB", "purify_step", f"step={steps + 1} a={out_a:+d} b={out_b:+d}")
                else:
                    passed = (out_a == out_b) == keep
                    if events is not None:
                        _event(events, tau_end, "AB", "measure", f"pair={operands[0]} a={out_a:+d} b={out_b:+d}")
                steps += 1
                heappush(slot_free, tau_end)
                check_floor = tau_end + herald
                if events is not None:
                    _message(events, tau_end, check_floor, "A", "purify_outcome", steps, out_a)
                if not passed:
                    if not mbc:
                        ref = check_floor
                        break
                    doomed = True
                    if not blind:  # the others abort once the outcome message crosses
                        mismatch_resolve = min(mismatch_resolve, check_floor)
                start, dts = pc + 1, []
            restarts += 1

    source = source if isinstance(source, Streams) else _Generators(source)
    batch = _Batch(noise, werner, kept, len(source))
    done: list = [None] * len(logs)
    due = [_FIRST_BLOCK] * len(logs)  # the size of each lane's next block
    lanes = [trial(events, row) for row, events in enumerate(logs)]
    groups = defaultdict(list)  # run id -> (row, durations, uniforms) of each lane waiting at its end
    for row, lane in enumerate(lanes):
        ident, dts, u = next(lane)
        groups[ident].append((row, dts, u))
    while groups:
        while None in groups:  # the dry lanes, served in one call
            rows = [row for row, _, _ in groups.pop(None)]
            n = max(due[row] for row in rows)
            for row, block in zip(rows, source.refill(rows, n)):
                due[row] = min(4 * n, _LAST_BLOCK)
                ident, dts, u = lanes[row].send(block)
                groups[ident].append((row, dts, u))
        # one group: the delivery, which frees its lanes, else the largest
        ident = max(groups, key=lambda ident: (run_ops[ident][-1][0] == _DELIVER, len(groups[ident])))
        rows, dts, us = zip(*groups.pop(ident))
        outcome = batch.run(run_ops[ident], np.array(rows), dts, us)
        if outcome is None:  # delivered: the lanes are done
            for row in rows:
                lanes[row] = None  # frees its uniforms and generator
        else:
            for row, a, b in zip(rows, *outcome):
                ident, dts, u = lanes[row].send((a, b))
                groups[ident].append((row, dts, u))
    return done, batch.delivered


def plan(kind: ProtocolKind, scheme: Scheme) -> tuple[ProtocolKind, PurificationCircuit, bool]:
    """The kind a trial runs as, the circuit it runs and whether it acquires blind.

    Raw delivery (NOP) runs the empty circuit of Pumping(0) whatever the
    scheme. Blind OPT is OPT with measure_before_confirm on pumping; its
    round of one bare pair is just measured on arrival, like raw delivery.
    """
    if isinstance(scheme, Pumping) and not scheme.n_steps and kind.name == "OPT" and kind.measure_before_confirm:
        kind = ProtocolKind("NOP", measure_before_confirm=True)
    if kind.name == "NOP":
        return kind, _pumping_circuit(0), False
    if isinstance(scheme, Pumping):
        return kind, _pumping_circuit(scheme.n_steps), kind.name == "OPT" and kind.measure_before_confirm
    if isinstance(scheme, CircuitScheme):
        return kind, scheme.circuit, False
    raise ValueError(f"unknown scheme {scheme!r}")


def run_trials(
    kind: ProtocolKind, scheme: Scheme, link: LinkConfig, noise: NoiseParams, rngs
) -> list[TrialResult]:
    """Simulate one delivery per generator, all trials in lockstep.

    Result i is trial i's, drawn from rngs[i] alone and equal to
    run_trial(kind, scheme, link, noise, rngs[i]) whatever the batch. Each
    generator may be advanced past its trial's last draw. rngs may be a streams.Streams instead.
    """
    done, delivered = _lockstep(kind, scheme, link, noise, rngs, [None] * len(rngs))
    return [TrialResult(t, row, pairs, steps, restarts) for (t, pairs, steps, restarts), row in zip(done, delivered)]


def batch_lanes(kind: ProtocolKind, scheme: Scheme) -> int:
    """How many trials one run_trials call should hold: a fixed float budget per batch.

    A lane is charged its first block of uniforms, the registers kept in the
    store and, while a run executes, at most the largest register held only
    in hand. A lane that runs dry draws larger blocks, up to _LAST_BLOCK,
    which the budget does not charge.
    """
    _, _, _, kept, hand = _compile(plan(kind, scheme)[1])
    return max(1, _BATCH_ELEMENTS // (_FIRST_BLOCK + sum(kept.values()) + hand))


def run_trial(
    kind: ProtocolKind,
    scheme: Scheme,
    link: LinkConfig,
    noise: NoiseParams,
    rng,
    *,
    events: Optional[list] = None,
) -> TrialResult:
    """Simulate one delivery from empty memories to one accepted pair: a batch of one.

    rng is a generator or a one-lane streams.Streams. A list passed as
    events receives the trial's event lines, "time node kind detail".
    """
    source = rng if isinstance(rng, Streams) else [rng]
    ((t, pairs, steps, restarts),), (row,) = _lockstep(kind, scheme, link, noise, source, [events])
    return TrialResult(t, row, pairs, steps, restarts)
