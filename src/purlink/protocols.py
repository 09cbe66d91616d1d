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
joins the registers of its two pairs. Registers decohere through
channels.pauli_decohere, are rotated and gated by purify.pauli_clifford and
measured by channels.pauli_measure; pumping steps run purify._pump_step.
TrialResult.output_state is always a 4x4 density matrix, converted once at
delivery.

Every trial except the blind OPT pipeline (_opt_blind_trial) runs in
_timed_trial, which executes a purification circuit; Pumping(n) is compiled
into a circuit of n fused steps, and raw delivery (NOP, whatever the scheme)
is the empty circuit Pumping(0) with no partner slot to hold. Blind OPT keeps
its own engine because it samples whole fixed-stride rounds instead of
source ticks. The engine keeps two timing rules, one per instruction form:

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
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Optional, Union

import numpy as np

from .channels import NoiseParams, pauli_decohere, pauli_measure
from .linkmodel import LinkConfig, attempt_success_prob, link_delays, per_photon_survival
from .purify import Gate, Measure, PurificationCircuit, Rot, _pump_step, _step_tables, pauli_clifford
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
class Message:
    send_time: float
    arrival_time: float
    kind: str  # herald_ok | herald_fail | purify_outcome | final_confirm
    step: Optional[int] = None
    outcome: Optional[int] = None


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

    # -- timing helpers ----------------------------------------------------
    def tick_from_emission(self, ref: float) -> int:
        """First tick whose emission time is at or after ref."""
        return max(1, math.ceil(ref / self.period - _TICK_EPS))

    def tick_from_arrival(self, floor: float) -> int:
        """First tick whose arrival time is at or after floor."""
        k = math.ceil((floor - self.photon_delay) / self.period - _TICK_EPS)
        return max(1, k)

    def arrival(self, k: int) -> float:
        return k * self.period + self.photon_delay


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

    def message(self, send_time: float, node: str, msg: Message) -> None:
        if self.events is not None:
            extra = ""
            if msg.step is not None:
                extra = f" step={msg.step}"
                if msg.outcome is not None:
                    extra += f" outcome={msg.outcome:+d}"
            other = "B" if node == "A" else "A"
            self.event(send_time, node, f"send_{msg.kind}", extra.strip())
            self.event(msg.arrival_time, other, f"recv_{msg.kind}", extra.strip())

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
# Acquisition. Draws two uniforms per tick (Alice's photon, then Bob's).


def _acquire(
    kernel: _Kernel, rng, k_min: int, floor: float, hold: Optional[float], trace: _Trace
):
    """Advance through source ticks until a pair is stored at both nodes.

    Returns (ok, k, arrival). A one-sided loss keeps the survivor's slot for
    hold seconds after the lost tick's arrival, then retries: BASE and HOPT
    hold it until the failure herald crosses; NOP reserves no partner slot
    (hold = 0.0), so the retry is the next tick. With hold=None (OPT) it
    returns ok=False so the caller can restart.
    """
    k = max(k_min, kernel.tick_from_arrival(floor))
    while True:
        got_a = rng.random() < kernel.p_photon
        got_b = rng.random() < kernel.p_photon
        arrival = kernel.arrival(k)
        if got_a and got_b:
            return True, k, arrival
        if not got_a and not got_b:
            k += 1
            continue
        if trace.live:
            loser = "B" if got_a else "A"
            trace.event(arrival, loser, "photon_lost", f"tick={k}")
            trace.message(arrival, loser, Message(arrival, arrival + kernel.herald_delay, "herald_fail"))
        if hold is None:
            return False, k, arrival
        k = max(k + 1, kernel.tick_from_arrival(arrival + hold))


def _geometric_gap(rng, eta: float) -> int:
    """Failures before the next success in a Bernoulli(eta) stream."""
    if eta >= 1.0:
        return 0
    u = rng.random()
    return int(math.log(max(u, 1e-300)) / math.log1p(-eta))


def _opt_blind_trial(kernel: _Kernel, n_steps: int, rng, trace: _Trace) -> TrialResult:
    """Measure-first pumping for the fully optimistic protocol.

    With delivery decoupled from confirmation, classical messages only filter
    rounds after the fact; they never steer the nodes. The shared source
    clock assigns every tick a fixed role in advance (round r, slot s), so
    both sides always operate on matching halves without negotiating: a
    round's photons arrive on consecutive ticks, each purification step runs
    the moment its slot's photon lands, and the finished pair is measured at
    the last local operation. Any lost photon or mismatched check silently
    dooms the round; post-processing discards it, but the next round is
    already underway, so failures cost no waiting time.
    """
    link = kernel.link
    eta = kernel.p_photon
    noise = kernel.noise
    tables = _step_tables(noise.p_g, noise.p_m)
    gate_time, measure_time = link.gate_time, link.measure_time
    op_dur = gate_time + measure_time
    period = kernel.period
    slots = n_steps + 1
    # slot spacing: the next photon is accepted on the first tick after the
    # previous slot's gate work has finished
    stride = 1 if op_dur <= 0.0 else max(1, math.ceil(op_dur / period - _TICK_EPS))
    span = slots * stride  # ticks consumed by one round
    # chance that all 2*slots photons of a round survive
    q_round = (eta * eta) ** slots
    pairs = 0
    rounds = 0
    round_start = 1
    while True:
        skipped = _geometric_gap(rng, q_round)  # rounds lost to photon loss
        if skipped:
            rounds += skipped
            round_start += skipped * span
            if trace.live:
                trace.event(
                    kernel.arrival(round_start - 1), "AB", "rounds_filtered",
                    f"count={skipped} cause=loss",
                )
        rounds += 1
        pairs += slots
        ticks = [round_start + s * stride for s in range(slots)]
        round_start += span

        a_main = kernel.arrival(ticks[0])
        trace.born(0, a_main)
        main = kernel.werner
        last_touch = a_main
        tau_end = a_main
        matched = True
        for step in range(1, slots):
            a_sac = kernel.arrival(ticks[step])
            trace.born(step, a_sac)
            tau_end = a_sac + gate_time + measure_time
            main = pauli_decohere(main, 0, tau_end - last_touch, noise)
            trace.decohered(0, tau_end - last_touch)
            sac = pauli_decohere(kernel.werner, 0, tau_end - a_sac, noise)
            trace.decohered(step, tau_end - a_sac)
            out_a, out_b, post, _ = _pump_step(tables, main, sac, rng)
            if trace.live:
                trace.event(tau_end, "AB", "purify_step", f"step={step} a={out_a:+d} b={out_b:+d}")
            trace.closed(step, tau_end)
            if out_a != out_b:
                matched = False  # neither node knows yet; the round runs on
            main = post
            last_touch = tau_end
        trace.closed(0, tau_end)
        if matched:
            trace.event(tau_end, "AB", "delivered", "pair=0")
            return TrialResult(tau_end, from_pauli(main), pairs, n_steps, rounds - 1)
        if trace.live:
            trace.event(tau_end, "AB", "round_filtered", "cause=outcome")
        trace.teardown()


# ---------------------------------------------------------------------------
# The timed circuit engine.


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
    """Flatten a circuit to (code, operands, fresh, arg) entries.

    fresh lists the pairs first referenced by the entry, which are acquired
    in that order before it runs. A final _DELIVER entry acquires the
    survivor if no instruction touched it.
    """
    program = []
    seen: set[int] = set()
    for instr in circ.instructions:
        if isinstance(instr, Rot):
            code, operands, arg = _ROT, (instr.pair,), "ROT"
        elif isinstance(instr, Gate):
            code, operands, arg = _GATE, (instr.control_pair, instr.target_pair), instr.kind
        elif isinstance(instr, Measure):
            code, operands, arg = _MEASURE, (instr.pair,), instr
        else:
            code, operands, arg = _STEP, (instr.main, instr.pair), None
        fresh = tuple(p for p in operands if p not in seen)
        seen.update(fresh)
        program.append((code, operands, fresh, arg))
    fresh = () if circ.survivor in seen else (circ.survivor,)
    program.append((_DELIVER, (), fresh, None))
    return tuple(program)


def _timed_trial(
    kernel: _Kernel, kind: ProtocolKind, circ: PurificationCircuit, rng, trace: _Trace
) -> TrialResult:
    """Run circuit episodes from empty memories until one delivers.

    held maps each pair to the register that holds it: a [state, pairs]
    list, shared by the pairs it holds, with pairs in axis order. A pair
    arrives in a register of its own, a GATE on pairs of two registers joins
    them, and a MEASURE drops the pair from its register. Pairs take memory
    slots in arrival order; a slot frees at the measurement of the pair
    holding it, and under BASE a new pair is also held back until every
    earlier outcome is checked. A lost photon (OPT), a mismatch (without
    measure_before_confirm) or a filtered delivery (with it) restarts the
    episode from the moment it is known.
    Raw delivery (NOP) runs the empty circuit of Pumping(0).
    """
    program = _compile(circ)
    survivor = circ.survivor
    n_pairs = circ.num_pairs
    n_slots = circ.max_live
    opt = kind.name == "OPT"
    base = kind.name == "BASE"
    mbc = kind.measure_before_confirm
    herald = kernel.herald_delay
    lag = 0.0 if opt else herald  # the others use a pair once heralded
    # how long a one-sided loss keeps the survivor's slot (see _acquire)
    hold = None if opt else 0.0 if kind.name == "NOP" else herald
    gate_time = kernel.link.gate_time
    measure_time = kernel.link.measure_time
    noise = kernel.noise
    # pumping circuits consist of _STEP entries only, and only they need tables
    tables = _step_tables(noise.p_g, noise.p_m) if program[0][0] == _STEP else None
    werner = kernel.werner
    live = trace.live
    audit = trace.audit is not None
    pairs = restarts = 0
    ref = 0.0
    while True:
        usable = [0.0] * n_pairs  # local time from which each pair may be used
        touched = [0.0] * n_pairs  # time each pair is decohered up to
        held: list = [None] * n_pairs  # the register of each stored pair
        slot_free = [0.0] * n_slots  # min-heap of slot release times
        k_last = kernel.tick_from_emission(ref) - 1
        last_arrival = 0.0
        check_floor = 0.0  # when every outcome so far has been checked
        mismatch_resolve = math.inf
        t_local = 0.0
        steps = 0
        restart = None
        for code, operands, fresh, arg in program:
            for p in fresh:
                floor = heappop(slot_free)
                if base and check_floor > floor:
                    floor = check_floor
                ok, k_last, a = _acquire(kernel, rng, k_last + 1, floor, hold, trace)
                if not ok:
                    restart = a + herald
                    break
                pairs += 1
                last_arrival = touched[p] = a
                usable[p] = a + lag
                held[p] = [werner, [p]]
                if audit:
                    trace.born(p, a)
                if live:
                    trace.event(a, "AB", "pair_stored", f"pair={p}")
                    trace.message(a, "A", Message(a, a + herald, "herald_ok"))
            if restart is not None or code == _DELIVER:
                break

            tau = t_local
            for p in operands:
                if usable[p] > tau:
                    tau = usable[p]
            if tau >= mismatch_resolve:
                restart = mismatch_resolve  # the failure message crossed first
                break

            if code == _STEP:
                tau_end = tau + gate_time + measure_time
            elif code == _GATE:
                tau_end = tau + gate_time
            elif code == _MEASURE:
                tau_end = tau + measure_time
            else:
                tau_end = tau
            for p in operands:
                dt = tau_end - touched[p]
                if dt > 0.0:
                    reg = held[p]
                    reg[0] = pauli_decohere(reg[0], reg[1].index(p), dt, noise)
                    if audit:
                        trace.decohered(p, dt)
                touched[p] = tau_end
            t_local = tau_end
            # from here p is the last operand: the rotated or measured pair

            if code == _STEP:
                m = operands[0]
                out_a, out_b, held[m][0], _ = _pump_step(tables, held[m][0], held[p][0], rng)
                kept = out_a == out_b
                if live:
                    trace.event(tau_end, "AB", "purify_step", f"step={steps + 1} a={out_a:+d} b={out_b:+d}")
            elif code == _MEASURE:
                reg = held[p]
                out_a, out_b, reg[0], _ = pauli_measure(reg[0], reg[1].index(p), arg.basis, noise.p_m, rng)
                reg[1].remove(p)
                kept = (out_a == out_b) == arg.keep_equal
                if live:
                    trace.event(tau_end, "AB", "measure", f"pair={p} a={out_a:+d} b={out_b:+d}")
            else:  # ROT or GATE
                reg = held[p]
                first = held[operands[0]]
                if first is not reg:  # a GATE joins the registers of its pairs
                    reg[0], reg[1] = np.multiply.outer(first[0], reg[0]), first[1] + reg[1]
                    for q in first[1]:
                        held[q] = reg
                reg[0] = pauli_clifford(reg[0], arg, tuple(map(reg[1].index, operands)), noise.p_g)
                continue
            # p was measured
            held[p] = None
            steps += 1
            heappush(slot_free, tau_end)
            check_floor = tau_end + herald
            if audit:
                trace.closed(p, tau_end)
            if live:
                trace.message(tau_end, "A", Message(tau_end, check_floor, "purify_outcome", steps, out_a))
            if not kept:
                if not mbc:
                    restart = check_floor
                    break
                mismatch_resolve = min(mismatch_resolve, check_floor)

        if restart is None:
            # an untouched survivor is usable on arrival; every other pair
            # arrived before the instruction that first touched it
            t_local = max(t_local, last_arrival)
            if mbc:
                completion = t_local
                if mismatch_resolve < math.inf:
                    # Delivered blind and filtered once the messages arrive;
                    # the round costs time but produces nothing.
                    restart = completion
                    if live:
                        trace.event(completion, "AB", "filtered")
            else:
                completion = max(t_local, last_arrival + herald, check_floor)
                if live:
                    trace.message(t_local, "A", Message(t_local, t_local + herald, "final_confirm"))
            if restart is None:
                dt = completion - touched[survivor]
                state = from_pauli(pauli_decohere(held[survivor][0], 0, dt, noise))
                if audit:
                    trace.decohered(survivor, dt)
                    trace.closed(survivor, completion)
                if live:
                    trace.event(completion, "AB", "delivered", f"pair={survivor}")
                return TrialResult(completion, state, pairs, steps, restarts)
        restarts += 1
        ref = restart
        if audit:
            trace.teardown()


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
    """Simulate one delivery from empty memories to one accepted pair."""
    kernel = _kernel(link, noise)
    trace = _Trace(events, audit)
    if isinstance(scheme, Pumping) and kind.name == "OPT" and kind.measure_before_confirm:
        # Nothing is awaited and nothing is held back for confirmation, so
        # rounds pipeline back to back on the shared source clock; a bare
        # pair is just measured on arrival like raw delivery.
        if scheme.n_steps:
            return _opt_blind_trial(kernel, scheme.n_steps, rng, trace)
        kind = ProtocolKind("NOP", measure_before_confirm=True)
    if kind.name == "NOP":
        circ = _pumping_circuit(0)  # raw delivery ignores the scheme
    elif isinstance(scheme, Pumping):
        circ = _pumping_circuit(scheme.n_steps)
    elif isinstance(scheme, CircuitScheme):
        circ = scheme.circuit
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _timed_trial(kernel, kind, circ, rng, trace)
