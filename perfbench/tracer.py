"""Spans and counts at purlink's module boundaries, recorded from outside.

install() replaces the names each module looks up when it calls into the
next layer (cli -> analysis -> protocols -> channels / purify, plus
numpy.random.default_rng) with wrappers that record a span: name, start,
end and parent. Spans live in flat arrays until summary() runs at the end.
A boundary whose name a refactor removed is skipped; its metrics read 0.

Generators returned by default_rng are wrapped in a proxy that counts
uniform draws and delegates every call unchanged, so traced output must be
byte-identical to untraced output.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name): the name the caller looks up at call time.
BOUNDARIES = (
    ("purlink.cli", "load_config", "config.load_config"),
    ("purlink.cli", "estimate", "analysis.estimate"),
    ("purlink.protocols", "decohere", "channels.decohere"),
    ("purlink.protocols", "noisy_measure", "channels.noisy_measure"),
    ("purlink.purify", "noisy_measure", "channels.noisy_measure"),
    ("purlink.purify", "depolarize_gate", "channels.depolarize_gate"),
    ("purlink.protocols", "_bilateral_gate", "purify.bilateral_gate"),
    ("purlink.protocols", "_rotate_pair", "purify.rotate_pair"),
)
LAYERS = ("cli", "config", "analysis", "protocols", "channels", "purify", "numpy")


class _CountingRNG:
    """Delegates to a numpy Generator, counting uniforms drawn by random()."""

    __slots__ = ("_gen", "_rec")

    def __init__(self, gen, rec: "Recorder"):
        self._gen = gen
        self._rec = rec

    def random(self, size=None, *args, **kwargs):
        if size is None:
            self._rec.draws += 1
        else:
            n = 1
            for dim in (size if isinstance(size, tuple) else (size,)):
                n *= int(dim)
            self._rec.draws += n
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.draws = 0
        # one entry per run_trial call
        self.trial_span = array("q")
        self.trial_protocol = array("i")
        self.trial_pairs = array("q")
        self.trial_restarts = array("q")
        self.trial_protocols: dict[str, int] = {}  # protocol name -> trial_protocol id
        # one entry per estimate call: (span index, protocol, n_steps or None)
        self.cells: list[tuple[int, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    @contextmanager
    def span(self, name: str):
        i = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(i)


def install(rec: Recorder) -> None:
    import importlib

    import numpy as np

    for module_name, attr, span_name in BOUNDARIES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        wrapped = rec.wrap(span_name, fn)
        if attr == "estimate":
            wrapped = _estimate_wrapper(rec, wrapped)
        setattr(module, attr, wrapped)

    analysis = importlib.import_module("purlink.analysis")
    if hasattr(analysis, "run_trial"):
        analysis.run_trial = _run_trial_wrapper(rec, analysis.run_trial)

    default_rng = rec.wrap("numpy.default_rng", np.random.default_rng)
    np.random.default_rng = lambda *a, **k: _CountingRNG(default_rng(*a, **k), rec)


def _estimate_wrapper(rec: Recorder, traced):
    def estimate(kind, scheme, *args, **kwargs):
        rec.cells.append((len(rec.start), kind.name, getattr(scheme, "n_steps", None)))
        return traced(kind, scheme, *args, **kwargs)

    return estimate


def _run_trial_wrapper(rec: Recorder, fn):
    nid = rec._id("protocols.run_trial")
    protocols = rec.trial_protocols

    def run_trial(kind, *args, **kwargs):
        i = rec.open(nid)
        try:
            res = fn(kind, *args, **kwargs)
        finally:
            rec.close(i)
        rec.trial_span.append(i)
        rec.trial_protocol.append(protocols.setdefault(kind.name, len(protocols)))
        rec.trial_pairs.append(getattr(res, "pairs_consumed", 0))
        rec.trial_restarts.append(getattr(res, "restarts", 0))
        return res

    return run_trial


def save(rec: Recorder, path) -> None:
    """Write the raw spans: names[name[i]] ran from start[i] to end[i]."""
    import numpy as np

    np.savez(path, names=np.array(rec.names), name=np.frombuffer(rec.name, dtype=np.int32),
             start=np.frombuffer(rec.start), end=np.frombuffer(rec.end),
             parent=np.frombuffer(rec.parent, dtype=np.int64))


def summary(rec: Recorder) -> dict:
    """Per-layer metrics (seconds unless named otherwise) from the spans."""
    import numpy as np

    name = np.frombuffer(rec.name, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int64)
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def by(span_name):
        if span_name not in rec._ids:
            return np.zeros(name.shape, dtype=bool)
        return name == rec._ids[span_name]

    def total(span_name, values=dur):
        return float(values[by(span_name)].sum())

    def count(span_name):
        return int(by(span_name).sum())

    trial_idx = np.frombuffer(rec.trial_span, dtype=np.int64)
    trial_dur = dur[trial_idx]
    trial_proto = np.frombuffer(rec.trial_protocol, dtype=np.int32)
    trials = max(len(trial_idx), 1)
    run_trial_s = float(trial_dur.sum())
    pairs = int(np.frombuffer(rec.trial_pairs, dtype=np.int64).sum())

    m: dict[str, float] = {}
    m["protocols.draws_per_trial"] = rec.draws / trials
    proto_ids = rec.trial_protocols
    for proto in ("NOP", "BASE", "HOPT", "OPT"):
        us = trial_dur[trial_proto == proto_ids[proto]] * 1e6 if proto in proto_ids else np.zeros(0)
        m[f"protocols.run_trial.{proto}.us_p50"] = float(np.percentile(us, 50)) if us.size else 0.0
        m[f"protocols.run_trial.{proto}.us_p99"] = float(np.percentile(us, 99)) if us.size else 0.0
        m[f"protocols.run_trial.{proto}.samples"] = int(us.size)
    m["protocols.run_trial.us_per_pair"] = run_trial_s * 1e6 / max(pairs, 1)
    m["protocols.pairs_per_trial"] = pairs / trials
    m["protocols.restarts_per_trial"] = int(np.frombuffer(rec.trial_restarts, dtype=np.int64).sum()) / trials
    m["protocols.decohere_calls_per_trial"] = count("channels.decohere") / trials

    # Lazy set-up paid inside run_trial: per cell, the first trial's time in
    # excess of the cell's median trial.
    trial_parent = parent[trial_idx]
    first_excess = 0.0
    cell_trials_per_s = []
    for span_idx, proto, n_steps in rec.cells:
        d = trial_dur[trial_parent == span_idx]
        if d.size:
            first_excess += float(d[0] - np.median(d))
            cell_trials_per_s.append((proto, n_steps, d.size / float(d.sum())))
    m["protocols.first_trial_s"] = first_excess

    for ch in ("decohere", "noisy_measure", "depolarize_gate"):
        calls = count(f"channels.{ch}")
        m[f"channels.{ch}.us_per_call"] = total(f"channels.{ch}") * 1e6 / calls if calls else 0.0
        m[f"channels.{ch}.calls"] = calls
    channels_self = sum(total(n, self_time) for n in rec.names if n.startswith("channels."))
    m["channels.self_frac"] = channels_self / run_trial_s if run_trial_s else 0.0

    cell_s = dur[by("analysis.estimate")]
    m["analysis.estimate.cell_s_p50"] = float(np.median(cell_s)) if cell_s.size else 0.0
    m["analysis.estimate.cell_s_max"] = float(cell_s.max()) if cell_s.size else 0.0
    m["analysis.estimate.cells"] = int(cell_s.size)
    est_total = float(cell_s.sum())
    m["analysis.overhead_frac"] = total("analysis.estimate", self_time) / est_total if est_total else 0.0
    rng_calls = count("numpy.default_rng")
    m["analysis.default_rng_us"] = total("numpy.default_rng") * 1e6 / rng_calls if rng_calls else 0.0
    m["config.load_config_ms"] = total("config.load_config") * 1e3

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            total(n, self_time) for n in rec.names if n.split(".", 1)[0] == layer
        )
    return {"metrics": m, "cell_trials_per_s": cell_trials_per_s, "spans": int(dur.size),
            "estimate_s": est_total}
