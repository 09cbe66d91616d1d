"""Child-process entry points. Every timed run starts a fresh interpreter.

    child.py cli ROOT ARGV...              the purlink CLI, as `purlink ARGV`
    child.py setup ROOT CONFIG SEED        first trial of each protocol
    child.py traced ROOT OUT ARGV...       the CLI with spans; summary to OUT,
                                           raw spans to OUT with suffix .npz
    child.py micro ROOT OUT                the untimed interpreters in purify

ROOT is the checkout; purlink is imported from ROOT/src, never from an
installed copy. The environment is inherited unchanged.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path


def import_purlink(root: str):
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import purlink

    if Path(purlink.__file__).resolve().parent.parent != src:
        raise SystemExit(f"purlink was imported from {purlink.__file__}, not from {src}")
    return purlink


def setup(root: str, config: str, seed: str) -> None:
    """Fresh interpreter to the first finished trial of every protocol.

    Covers import, load_config and the lazy kernel and branch-map builds.
    Runs trial 0 of each protocol cell at the first grid point, seeded as
    the CLI seeds it, then prints the CLOCK_MONOTONIC time.
    """
    purlink = import_purlink(root)
    from dataclasses import replace

    import numpy as np
    from purlink.config import apply_axis

    cfg = replace(purlink.load_config(config), seed=int(seed))
    point = cfg
    for param, values in cfg.axes:
        point = apply_axis(point, param, values[0])
    for name in cfg.protocols:
        kind = purlink.ProtocolKind(name, measure_before_confirm=cfg.measure_before_confirm)
        rng = np.random.default_rng((cfg.seed, purlink.PROTOCOL_NAMES.index(name), 0, 0))
        purlink.run_trial(kind, point.scheme, point.link, point.noise, rng)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


def traced(root: str, out: str, argv: list[str]) -> int:
    import_purlink(root)
    import tracer
    from purlink import cli

    rec = tracer.Recorder()
    tracer.install(rec)
    with rec.span("cli.main"):
        code = cli.main(argv)
    Path(out).write_text(json.dumps(tracer.summary(rec)))
    tracer.save(rec, Path(out).with_suffix(".npz"))
    return code


def _per_call_us(fn, calls: int, batches: int) -> float:
    times = []
    for _ in range(batches):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t) / calls * 1e6)
    return statistics.median(times)


def micro(root: str, out: str) -> None:
    """Median microseconds per call of dejmps_step and run_circuit.

    The CLI never calls these untimed interpreters, so they are timed here
    directly on Werner pairs of fidelity 0.9 with default noise.
    """
    purlink = import_purlink(root)
    import numpy as np

    noise = purlink.NoiseParams()
    werner = purlink.make_werner(0.9)
    rng = np.random.default_rng(0)
    m = {"purify.dejmps_step.us": 0.0, "purify.run_circuit.dejmps.us": 0.0,
         "purify.run_circuit.optimized5.us": 0.0}
    if hasattr(purlink, "dejmps_step"):
        m["purify.dejmps_step.us"] = _per_call_us(
            lambda: purlink.dejmps_step(werner, werner, noise, rng), 200, 7)
    if hasattr(purlink, "run_circuit"):
        circuits = Path(root) / "src" / "purlink" / "circuits"
        for name, calls in (("dejmps", 200), ("optimized5", 40)):
            circ = purlink.load_circuit(circuits / f"{name}.circuit")
            m[f"purify.run_circuit.{name}.us"] = _per_call_us(
                lambda: purlink.run_circuit(circ, lambda: werner, noise, rng), calls, 7)
    Path(out).write_text(json.dumps(m))


def main(argv: list[str]) -> int:
    mode, root, *rest = argv
    if mode == "cli":
        import_purlink(root)
        from purlink.cli import main as cli_main

        return cli_main(rest)
    if mode == "setup":
        setup(root, *rest)
    elif mode == "traced":
        return traced(root, rest[0], rest[1:])
    elif mode == "micro":
        micro(root, *rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
