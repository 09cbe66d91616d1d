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
joins the registers of its two pairs. TrialResult.output_state is always a
4x4 density matrix, converted once at delivery.

Every trial runs in one lockstep engine, run_trials, which executes a
purification circuit for one lane per generator; run_trial is its batch of
one. Pumping(n) is compiled into a circuit of n fused steps, and raw
delivery (NOP, whatever the scheme) is the empty circuit Pumping(0) with no
partner slot to hold. Each round, every live lane does its scalar
bookkeeping (acquisition from prefetched uniforms, timing, restarts) up to
its next measurement or delivery, and the lanes are grouped by the run of
instructions they reached. A group's state operations run once over its
lanes: registers decohere through channels.decohere_lanes, are rotated and
gated by purify.clifford_lanes and measured by channels.measure_branches;
pumping steps run purify._pump_step, and channels.sample_branches draws the
outcomes lane by lane. A lane draws its own uniforms in the order a lone
trial would and does its own arithmetic, so its result is bit-identical in
a batch of any size. Acquisition reads the source tick by tick, except
under blind OPT (OPT with measure_before_confirm on pumping), whose pairs
land on a fixed round schedule and whose lost rounds are skipped in one
draw. The engine keeps two timing rules, one per instruction form:

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
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Optional, Union

import numpy as np

from .channels import NoiseParams, decay_transfer, decohere_lanes, measure_branches, sample_branches
from .linkmodel import LinkConfig, attempt_success_prob, link_delays, per_photon_survival
from .purify import Gate, Measure, PurificationCircuit, Rot, _pump_step, _step_tables, clifford_lanes
from .states import TwoQubitState, from_pauli, make_werner, to_pauli

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


@dataclass(frozen=True)
class TrialResult:
    completion_time: float
    output_state: Optional[TwoQubitState]
    pairs_consumed: int
    steps_completed: int
    restarts: int


def expected_nop_time(link: LinkConfig) -> float:
    """Closed-form mean NOP delivery time: geometric wait plus delays."""
    p = attempt_success_prob(link)
    if not 0.0 < p <= 1.0:
        raise ValueError("attempt success probability must be in (0, 1]")
    period, photon_delay, herald_delay = link_delays(link)
    return period / p + photon_delay + herald_delay


class _Kernel:
    """Per-configuration machinery shared by all trials of one cell.

    It keeps no memory-channel state. werner is the source pair in Pauli
    form, diag(1, w, -w, w) with w = (4 f0 - 1) / 3.
    """

    def __init__(self, link: LinkConfig, noise: NoiseParams):
        self.link = link
        self.noise = noise
        self.period, self.photon_delay, self.herald_delay = link_delays(link)
        self.p_photon = per_photon_survival(link)
        self.werner = to_pauli(make_werner(link.f0))
        self.werner.setflags(write=False)  # shared by every trial of the cell


@lru_cache(maxsize=8)
def _kernel(link: LinkConfig, noise: NoiseParams) -> _Kernel:
    return _Kernel(link, noise)


# ---------------------------------------------------------------------------
# Event/audit plumbing. Events are text lines "time node kind detail";
# audit maps (episode, pair) -> [arrival, decohered_total, end] and is only
# kept for pairs that reach their natural end (measured or delivered).


class _Trace:
    __slots__ = ("events", "audit", "episode", "live", "_open")

    def __init__(self, events, audit):
        self.events = events
        self.audit = audit
        self.episode = 0
        self.live = events is not None
        self._open: dict[int, list[float]] = {}

    def event(self, t: float, node: str, kind: str, detail: str = "") -> None:
        if self.events is not None:
            self.events.append(f"{t:.12f} {node} {kind} {detail}".rstrip())

    def message(
        self, send_time: float, arrival_time: float, node: str, kind: str,
        step: Optional[int] = None, outcome: Optional[int] = None,
    ) -> None:
        """Log a classical message from node to the other: herald_ok, herald_fail, purify_outcome or final_confirm."""
        if self.events is not None:
            extra = ""
            if step is not None:
                extra = f"step={step}"
                if outcome is not None:
                    extra += f" outcome={outcome:+d}"
            other = "B" if node == "A" else "A"
            self.event(send_time, node, f"send_{kind}", extra)
            self.event(arrival_time, other, f"recv_{kind}", extra)

    def born(self, pair: int, arrival: float) -> None:
        if self.audit is not None:
            self._open[pair] = [arrival, 0.0]

    def decohered(self, pair: int, dt: float) -> None:
        if self.audit is not None and pair in self._open:
            self._open[pair][1] += dt

    def closed(self, pair: int, end: float) -> None:
        if self.audit is not None and pair in self._open:
            arrival, total = self._open.pop(pair)
            self.audit[(self.episode, pair)] = (arrival, total, end)

    def teardown(self) -> None:
        self.episode += 1
        self._open.clear()


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
    """Flatten a circuit to (code, operands, fresh, op, keep, seed) entries, plus its register needs.

    fresh lists the pairs first referenced by the entry, which are acquired
    in that order before it runs. A final _DELIVER entry acquires the
    survivor if no instruction touched it. op = (code, loads, out, arg,
    positions) is the entry's state operation; lanes whose runs of ops are
    equal run together. It names each register by its pairs in axis order,
    which the program fixes at every entry, since joins and measurements
    never depend on outcomes. loads holds (register, position, fresh) per operand, fresh
    meaning still the source pair; out is the register written. keep is a
    measurement's keep_equal. A step's sacrifice is the register None, and
    seed names its main pair's register if that pair is fresh: the walk
    stores the source pair there, so all steps of a pumping circuit share
    one op. The second result maps the registers a run leaves in
    _Batch.store to their sizes: each measurement's survivor, the seed among
    them, and any output no later op of the same run loads. A run ends at
    each measurement or delivery, and a delivery stores nothing. Every other
    register lives only in hand, from op to op of one run; the third result
    is the size of the largest.
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
    for code, _, _, (_, loads, out, _, _), _, _ in program:
        held.difference_update(key for key, _, _ in loads)
        if out:
            held.add(out)
        if code == _STEP or code == _MEASURE:
            kept |= held
            held.clear()
    hand = max((size for key, size in sizes.items() if key not in kept), default=0)
    return tuple(program), {key: sizes[key] for key in kept}, hand


# Each lane prefetches its uniforms in blocks that double up to _MAX_BLOCK;
# rng.random(n) yields the same numbers as n scalar draws.
_FIRST_BLOCK = 32
_MAX_BLOCK = 128
_BATCH_ELEMENTS = 1 << 16  # floats one batch of lanes may hold (see batch_lanes)


class _Lane:
    """One trial of a batch: its uniforms, its totals and its episode's clocks."""

    __slots__ = (
        "rng", "buf", "pos", "block", "trace", "pairs", "restarts", "usable", "touched", "pc",
        "slot_free", "k_last", "last_arrival", "check_floor", "mismatch_resolve", "doomed", "t_local",
        "steps", "dts", "u", "row", "round_next",
    )

    def __init__(self, rng, trace: _Trace, n_pairs: int, row: int):
        self.rng = rng
        self.row = row  # in the batch's register store
        self.buf = array("d")
        self.pos = 0
        self.block = _FIRST_BLOCK
        self.trace = trace
        self.pairs = self.restarts = 0
        self.usable = [0.0] * n_pairs  # local time from which each pair may be used
        self.touched = [0.0] * n_pairs  # time each pair is decohered up to
        self.round_next = 1  # blind OPT: the first tick of the next round

    def refill(self) -> array:
        """Append the next block of uniforms; a scripted stand-in may return fewer."""
        self.buf = self.buf[self.pos:] + array("d", self.rng.random(self.block).tobytes())
        self.pos = 0
        self.block = min(2 * self.block, _MAX_BLOCK)
        return self.buf

    def uniform(self) -> float:
        """The lane's next uniform: blind OPT draws one per round for its lost rounds."""
        buf, i = self.buf, self.pos
        while i >= len(buf):
            buf, i = self.refill(), 0
        self.pos = i + 1
        return buf[i]

    def uniforms(self) -> tuple[float, float]:
        """The lane's next two uniforms: two per source tick, two per outcome."""
        buf, i = self.buf, self.pos
        while i + 2 > len(buf):
            buf, i = self.refill(), 0
        self.pos = i + 2
        return buf[i], buf[i + 1]


class _Batch:
    """The registers of every lane of a batch, and its grouped state operations.

    A register named by its pairs lives in row i of store[pairs] for lane i.
    An op runs once per group of lanes: it decoheres each operand for its
    lane's duration (rows with none keep theirs), then steps, measures,
    gates or delivers through the stacked channels, so a lane's numbers do
    not depend on the batch.
    """

    def __init__(self, kernel: _Kernel, kept: dict, lanes: int):
        self.noise = kernel.noise
        self.werner = kernel.werner.reshape(16)
        self.store = {key: np.empty((lanes, size)) for key, size in kept.items()}
        self.tables = _step_tables(self.noise.p_g, self.noise.p_m)

    def decohere(self, r: np.ndarray, pair: int, dts: list) -> np.ndarray:
        busy = [j for j, dt in enumerate(dts) if dt > 0.0]
        if len(busy) == len(dts):
            return decohere_lanes(r, pair, decay_transfer(dts, self.noise))
        if busy:
            r = r.copy()
            r[busy] = decohere_lanes(r[busy], pair, decay_transfer([dts[j] for j in busy], self.noise))
        return r

    def run(self, ops: tuple, ix: np.ndarray, dts: list, us: Optional[list]):
        """Apply a run of ops to the lanes ix, dts[i][j] holding lane i's durations for op j.

        Returns the last op's outcome lists, or the delivered states.
        Registers pass from op to op in hand and are stored at the end.
        """
        held: dict = {}
        for j, (code, loads, out, arg, positions) in enumerate(ops):
            regs: dict = {}  # in operand order
            for n, (key, pair, fresh) in enumerate(loads):
                if key in regs:
                    r = regs[key]
                elif fresh:
                    r = np.tile(self.werner, (len(ix), 1))
                else:
                    r = held.pop(key) if key in held else self.store[key][ix]
                regs[key] = self.decohere(r, pair, [d[j][n] for d in dts])
            rs = list(regs.values())
            if code == _DELIVER:
                return [from_pauli(row) for row in rs[0]]
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
    kernel: _Kernel, kind: ProtocolKind, circ: PurificationCircuit, rngs, traces
) -> list[TrialResult]:
    """Run one lane per generator from empty memories until each delivers.

    Each round walks every live lane through its scalar bookkeeping, in
    program order, to its next measurement or delivery: acquisition reads
    the lane's prefetched uniforms, two per source tick, and a restart
    resets its program counter and walks on. The lanes are then grouped by
    the run of ops they walked, and each group runs once through _Batch. A
    lane takes its uniforms in the order a lone trial would and its
    arithmetic lane by lane, so its result is the same alone and in a batch
    of any size.

    Pairs take memory slots in arrival order; a slot frees at the
    measurement of the pair holding it, and under BASE a new pair is also
    held back until every earlier outcome is checked. A lost photon (OPT),
    a mismatch (without measure_before_confirm) or a filtered delivery
    (with it) restarts the episode from the moment it is known. A one-sided
    loss keeps the survivor's slot for `hold` seconds after the lost tick's
    arrival, then retries: BASE and HOPT hold it until the failure herald
    crosses; NOP reserves no partner slot (hold = 0.0), so the retry is the
    next tick. Raw delivery (NOP) runs the empty circuit of Pumping(0).

    Blind OPT (measure_before_confirm on pumping) scans no source ticks:
    the shared source clock gives every tick a fixed role, round by round,
    so both nodes always act on matching halves without negotiating. A
    round's pairs land every `stride` ticks (the first tick after the
    previous step's gate work), each step fires when its sacrifice lands,
    and the rounds lost to photon loss before the next complete one are a
    single geometric draw. A mismatch only dooms the round: it runs to its
    end, is filtered, and the next round starts on schedule.
    """
    program, kept, _ = _compile(circ)
    survivor = circ.survivor
    n_slots = circ.max_live
    opt = kind.name == "OPT"
    base = kind.name == "BASE"
    mbc = kind.measure_before_confirm
    blind = opt and mbc and program[0][0] == _STEP  # only Pumping compiles to steps
    herald = kernel.herald_delay
    lag = 0.0 if opt else herald  # the others use a pair once heralded
    hold = None if opt else 0.0 if kind.name == "NOP" else herald
    gate_time = kernel.link.gate_time
    measure_time = kernel.link.measure_time
    period, photon_delay, p_photon = kernel.period, kernel.photon_delay, kernel.p_photon

    def begin(lane: _Lane, ref: float) -> None:
        """Empty the lane's memories at ref; usable and touched are written before use."""
        k = math.ceil(ref / period - _TICK_EPS)  # the first tick emitted at or after ref
        lane.k_last = k - 1 if k > 1 else 0
        lane.pc = lane.steps = 0
        lane.slot_free = [0.0] * n_slots  # min-heap of slot release times
        lane.last_arrival = lane.t_local = 0.0
        lane.check_floor = 0.0  # when every outcome so far has been checked
        lane.mismatch_resolve = math.inf
        lane.doomed = False  # a mismatch under measure_before_confirm filters the delivery

    def restart(lane: _Lane, ref: float) -> None:
        lane.restarts += 1
        if lane.trace.audit is not None:
            lane.trace.teardown()
        begin(lane, ref)

    def acquire(lane: _Lane, k_min: int, floor: float, first: bool) -> tuple[bool, int, float]:
        """Advance through source ticks until a pair is stored at both nodes.

        Returns (ok, k, arrival). Under OPT a one-sided loss returns ok=False
        so the lane can restart, except for the first pair of an episode:
        the episode holds nothing yet, so the restart is counted here and the
        ticks resume where a new episode's first acquisition starts them.
        """
        k = math.ceil((floor - photon_delay) / period - _TICK_EPS)  # first arrival at or after floor
        if k < k_min:
            k = k_min
        buf, i = lane.buf, lane.pos
        end = len(buf) - 1
        while True:
            if i >= end:
                lane.pos = i
                buf, i = lane.refill(), 0
                end = len(buf) - 1
                continue
            got_a = buf[i] < p_photon
            got_b = buf[i + 1] < p_photon
            i += 2
            if got_a and got_b:
                lane.pos = i
                return True, k, k * period + photon_delay
            if not got_a and not got_b:
                k += 1
                continue
            arrival = k * period + photon_delay
            trace = lane.trace
            if trace.live:
                loser = "B" if got_a else "A"
                trace.event(arrival, loser, "photon_lost", f"tick={k}")
                trace.message(arrival, arrival + herald, loser, "herald_fail")
            if hold is not None:
                k_hold = math.ceil((arrival + hold - photon_delay) / period - _TICK_EPS)
                k = k_hold if k_hold > k + 1 else k + 1
            elif first:
                lane.restarts += 1
                if trace.audit is not None:
                    trace.teardown()
                k = max(1, math.ceil((arrival + herald) / period - _TICK_EPS))  # the slot floor 0.0 never binds
            else:
                lane.pos = i
                return False, k, arrival

    if blind:
        op_dur = gate_time + measure_time
        stride = 1 if op_dur <= 0.0 else max(1, math.ceil(op_dur / period - _TICK_EPS))
        span = circ.num_pairs * stride  # ticks one round takes
        q_round = (p_photon * p_photon) ** circ.num_pairs  # every photon of a round survives
        log_lost = math.log1p(-q_round) if q_round < 1.0 else None

        def acquire(lane: _Lane, k_min: int, floor: float, first: bool) -> tuple[bool, int, float]:
            """Store the lane's next pair on its tick of the round; it always lands.

            A round's first pair draws how many rounds photon loss dooms
            before it (no draw on a lossless link). The step a pair joins
            fires on its arrival, so lane.t_local moves there even when
            float rounding ends the previous step an ulp later.
            """
            if first:
                k = lane.round_next
                if log_lost is not None:
                    skipped = int(math.log(max(lane.uniform(), 1e-300)) / log_lost)
                    if skipped:
                        lane.restarts += skipped
                        k += skipped * span
                        if lane.trace.live:
                            lane.trace.event(
                                (k - 1) * period + photon_delay, "AB", "rounds_filtered",
                                f"count={skipped} cause=loss",
                            )
                lane.round_next = k + span
            else:
                k = k_min - 1 + stride  # a stride after the previous pair's tick
            lane.t_local = arrival = k * period + photon_delay
            return True, k, arrival

    def walk(lane: _Lane) -> int:
        """Advance a lane to its next measurement or delivery; return the id of its run of ops.

        Rotations and gates on the way need no outcome, so the lane walks
        past them; lane.dts collects the durations of each op of the run.
        """
        trace = lane.trace
        live = trace.live
        audit = trace.audit is not None
        start = lane.pc
        lane.dts = []
        while True:
            code, operands, fresh, _, _, seed = program[lane.pc]
            ref = None
            for p in fresh:
                floor = heappop(lane.slot_free)
                if base and lane.check_floor > floor:
                    floor = lane.check_floor
                ok, lane.k_last, a = acquire(lane, lane.k_last + 1, floor, lane.pc == 0 and p == fresh[0])
                if not ok:
                    ref = a + herald
                    break
                lane.pairs += 1
                lane.last_arrival = lane.touched[p] = a
                lane.usable[p] = a + lag
                if audit:
                    trace.born(p, a)
                if live:
                    trace.event(a, "AB", "pair_stored", f"pair={p}")
                    trace.message(a, a + herald, "A", "herald_ok")
            if ref is None and code == _DELIVER:
                # an untouched survivor is usable on arrival; every other pair
                # arrived before the instruction that first touched it
                t_local = max(lane.t_local, lane.last_arrival)
                if mbc:
                    completion = t_local
                    if lane.doomed:
                        # Delivered blind and filtered once the messages arrive;
                        # the round costs time but produces nothing.
                        ref = completion
                        if live:
                            trace.event(completion, "AB", "filtered")
                else:
                    completion = max(t_local, lane.last_arrival + herald, lane.check_floor)
                    if live:
                        trace.message(t_local, t_local + herald, "A", "final_confirm")
                if ref is None:
                    dt = completion - lane.touched[survivor]
                    if audit:
                        trace.decohered(survivor, dt)
                        trace.closed(survivor, completion)
                    if live:
                        trace.event(completion, "AB", "delivered", f"pair={survivor}")
                    lane.t_local = completion
                    lane.dts.append((dt,))
                    return run_id(start, lane.pc)
            elif ref is None:
                tau = lane.t_local
                usable = lane.usable
                for p in operands:
                    if usable[p] > tau:
                        tau = usable[p]
                if tau >= lane.mismatch_resolve:
                    ref = lane.mismatch_resolve  # the failure message crossed first
            if ref is not None:
                restart(lane, ref)  # the ops walked so far belonged to the old episode
                start = 0
                lane.dts = []
                continue

            if code == _STEP:
                tau_end = tau + gate_time + measure_time
            elif code == _GATE:
                tau_end = tau + gate_time
            elif code == _MEASURE:
                tau_end = tau + measure_time
            else:
                tau_end = tau
            touched = lane.touched
            dts = [tau_end - touched[p] for p in operands]
            lane.dts.append(dts)
            for p, dt in zip(operands, dts):
                if audit and dt > 0.0:
                    trace.decohered(p, dt)
                touched[p] = tau_end
            lane.t_local = tau_end
            if code == _STEP or code == _MEASURE:
                if seed:
                    batch.store[seed][lane.row] = batch.werner
                lane.u = lane.uniforms()
                return run_id(start, lane.pc)
            lane.pc += 1

    def settle(lane: _Lane, out_a: int, out_b: int) -> None:
        """Book the outcome of the measurement at the lane's entry."""
        code, operands, _, _, keep, _ = program[lane.pc]
        p = operands[-1]
        trace = lane.trace
        tau_end = lane.t_local
        if code == _STEP:
            kept = out_a == out_b
            if trace.live:
                trace.event(tau_end, "AB", "purify_step", f"step={lane.steps + 1} a={out_a:+d} b={out_b:+d}")
        else:
            kept = (out_a == out_b) == keep
            if trace.live:
                trace.event(tau_end, "AB", "measure", f"pair={p} a={out_a:+d} b={out_b:+d}")
        lane.steps += 1
        heappush(lane.slot_free, tau_end)
        check = lane.check_floor = tau_end + herald
        if trace.audit is not None:
            trace.closed(p, tau_end)
        if trace.live:
            trace.message(tau_end, check, "A", "purify_outcome", lane.steps, out_a)
        lane.pc += 1
        if not kept:
            if not mbc:
                restart(lane, check)
            else:
                lane.doomed = True
                if not blind:  # the others abort once the outcome message crosses
                    lane.mismatch_resolve = min(lane.mismatch_resolve, check)

    run_of: dict[tuple, int] = {}  # (first, last) entry -> id of its run of ops
    run_ids: dict[tuple, int] = {}  # run of ops -> id; equal runs share one
    run_ops: list[tuple] = []

    def run_id(first: int, last: int) -> int:
        ident = run_of.get((first, last))
        if ident is None:
            ops = tuple(entry[3] for entry in program[first:last + 1])
            if ops not in run_ids:
                run_ids[ops] = len(run_ops)
                run_ops.append(ops)
            ident = run_of[first, last] = run_ids[ops]
        return ident

    lanes = [_Lane(rng, trace, circ.num_pairs, row) for row, (rng, trace) in enumerate(zip(rngs, traces))]
    for lane in lanes:
        begin(lane, 0.0)
    batch = _Batch(kernel, kept, len(lanes))
    results: list = [None] * len(lanes)
    active = range(len(lanes))
    while active:
        groups: dict[int, list] = {}
        for i in active:
            ident = walk(lanes[i])
            if ident in groups:
                groups[ident].append(i)
            else:
                groups[ident] = [i]
        for ident, members in groups.items():
            ops = run_ops[ident]
            code = ops[-1][0]
            us = None if code == _DELIVER else [lanes[i].u for i in members]
            outcome = batch.run(ops, np.array(members), [lanes[i].dts for i in members], us)
            if code == _DELIVER:
                for i, state in zip(members, outcome):
                    lane = lanes[i]
                    results[i] = TrialResult(lane.t_local, state, lane.pairs, lane.steps, lane.restarts)
                    lane.buf = lane.rng = None
            else:
                for i, a, b in zip(members, *outcome):
                    settle(lanes[i], a, b)
        active = [i for i in active if results[i] is None]
    return results


def _circuit(kind: ProtocolKind, scheme: Scheme) -> tuple[ProtocolKind, PurificationCircuit]:
    """The kind and circuit a trial runs."""
    if isinstance(scheme, Pumping) and not scheme.n_steps and kind.name == "OPT" and kind.measure_before_confirm:
        # a blind round of one bare pair is just measured on arrival, like
        # raw delivery
        kind = ProtocolKind("NOP", measure_before_confirm=True)
    if kind.name == "NOP":
        return kind, _pumping_circuit(0)  # raw delivery ignores the scheme
    if isinstance(scheme, Pumping):
        return kind, _pumping_circuit(scheme.n_steps)
    if isinstance(scheme, CircuitScheme):
        return kind, scheme.circuit
    raise ValueError(f"unknown scheme {scheme!r}")


def _run(kind, scheme, link, noise, rngs, traces) -> list[TrialResult]:
    return _lockstep(_kernel(link, noise), *_circuit(kind, scheme), rngs, traces)


def run_trials(
    kind: ProtocolKind, scheme: Scheme, link: LinkConfig, noise: NoiseParams, rngs
) -> list[TrialResult]:
    """Simulate one delivery per generator, all trials in lockstep.

    Result i is trial i's, drawn from rngs[i] alone and equal to
    run_trial(kind, scheme, link, noise, rngs[i]) whatever the batch. Each
    generator may be advanced past its trial's last draw.
    """
    quiet = _Trace(None, None)  # holds nothing, so every lane can share it
    return _run(kind, scheme, link, noise, rngs, [quiet] * len(rngs))


def batch_lanes(kind: ProtocolKind, scheme: Scheme) -> int:
    """How many trials one run_trials call should hold: a fixed float budget per batch.

    A lane holds its prefetch block, the registers kept in the store and,
    while a run executes, at most the largest register held only in hand.
    """
    _, kept, hand = _compile(_circuit(kind, scheme)[1])
    return max(1, _BATCH_ELEMENTS // (_MAX_BLOCK + sum(kept.values()) + hand))


def run_trial(
    kind: ProtocolKind,
    scheme: Scheme,
    link: LinkConfig,
    noise: NoiseParams,
    rng,
    *,
    events: Optional[list] = None,
    audit: Optional[dict] = None,
) -> TrialResult:
    """Simulate one delivery from empty memories to one accepted pair: a batch of one."""
    (result,) = _run(kind, scheme, link, noise, [rng], [_Trace(events, audit)])
    return result
