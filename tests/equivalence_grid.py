"""Compare run_trial results of two checkouts over a fixed grid.

    python tests/equivalence_grid.py ROOT_A ROOT_B [--seeds N] [--batch]

Each root is a checkout; its grid runs in a fresh interpreter that imports
purlink from ROOT/src. The grid is NOP, BASE, HOPT and OPT, with
measure_before_confirm off and on, times Pumping 0, 2 and 5, the packaged
dejmps and optimized5 circuits, a three-pair circuit and a lone measurement,
times four links and three noise settings, times N seeds (default 20:
13,440 results). Trial s of a cell draws from default_rng((s, cell)).
With --batch, ROOT_B runs each cell's seeds through one run_trials call.

It prints the result count, how many timelines (completion time, pairs,
steps, restarts) are exact, the largest state difference among those, and
every flipped draw: a cell and seed whose timeline differs. It exits 1 if
any timeline differs or either side raised where the other did not.

    python tests/equivalence_grid.py --cli ROOT_A ROOT_B

compares the CLI instead: each checkout runs, as `python -m purlink` in
fresh interpreters, a sweep over n_steps 1, 3, 5 at 1 GHz, a simulate of
the packaged optimized5 circuit under BASE and HOPT, and a 2x2 heatmap,
each with --events-log and at --threads 1 and 2. It prints every output
(exit code, stdout, stderr, CSV, events log) that differs by a byte, with
its diff, and exits 1 if any does.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

THREE_PAIR = """PAIRS 3
ROT 0
ROT 1
ROT 2
GATE CNOT 0 1
GATE CNOT 0 2
MEASURE 1 BASIS Z KEEP equal
MEASURE 2 BASIS X KEEP equal
"""
LONE_MEASURE = """PAIRS 2
MEASURE 0 BASIS X KEEP equal
"""
SCHEMES = ("pump0", "pump2", "pump5", "dejmps", "optimized5", "three_pair", "lone_measure")
LINKS = (
    {"d": 20.0, "mu": 1e6, "f0": 0.9},  # lossy
    {"d": 20.0, "mu": 1e6, "f0": 0.9, "gate_time": 1e-6, "measure_time": 5e-7},
    {"d": 5.0, "mu": 1e9, "f0": 0.95},  # near-lossless ticks, many per herald
    # a gate of one whole period, and heralds shorter than a blind OPT round
    {"d": 1.0, "mu": 1e5, "f0": 0.9, "gate_time": 1e-5},
)
NOISES = (
    {"p_g": 1.0, "p_m": 1.0, "t1": math.inf, "t2": math.inf},
    {"p_g": 0.99, "p_m": 0.99, "t1": 360.0, "t2": 1.0},
    {"p_g": 0.97, "p_m": 0.98, "t1": 360.0, "t2": 1e-3},
)

CLI_COMMON = """kind = ground
f0 = 0.9
p_g = 0.99
p_m = 0.99
t1_s = 360
trials_min = 100
max_trials = 100
"""
CLI_RUNS = {  # name: (command, config lines); {circuit} is the checkout's optimized5
    "sweep": ("sweep", """d_km = 20
mu_hz = 1e9
t2_s = 1e-3
sweep_param = n_steps
sweep_values = 1, 3, 5
"""),
    "simulate": ("simulate", """d_km = 20
mu_hz = 1e9
t2_s = 0.01
circuit = {circuit}
protocols = BASE,HOPT
"""),
    "heatmap": ("heatmap", """d_km = 20
mu_hz = 1e6
n_steps = 1
sweep_param = f0
sweep_values = 0.85, 0.9
sweep_param2 = t2_s
sweep_values2 = 0.001, 0.01
"""),
}


def cells():
    for name, mbc, scheme, link, noise in itertools.product(
        ("NOP", "BASE", "HOPT", "OPT"), (False, True), SCHEMES, range(len(LINKS)), range(len(NOISES))
    ):
        yield (name, mbc, scheme, link, noise)


def run_grid(root: str, seeds: int, batch: bool) -> dict:
    """{(cell, seed): (time, pairs, steps, restarts, state) or error text}."""
    sys.path.insert(0, str(Path(root, "src").resolve()))
    import numpy as np
    from purlink import CircuitScheme, LinkConfig, NoiseParams, ProtocolKind, Pumping, parse_circuit, run_trial
    from purlink.linkmodel import GROUND

    circuits = Path(root, "src", "purlink", "circuits")
    schemes = {
        "pump0": Pumping(0), "pump2": Pumping(2), "pump5": Pumping(5),
        "dejmps": CircuitScheme(parse_circuit((circuits / "dejmps.circuit").read_text())),
        "optimized5": CircuitScheme(parse_circuit((circuits / "optimized5.circuit").read_text())),
        "three_pair": CircuitScheme(parse_circuit(THREE_PAIR)),
        "lone_measure": CircuitScheme(parse_circuit(LONE_MEASURE)),
    }
    out = {}
    for idx, cell in enumerate(cells()):
        name, mbc, scheme, link, noise = cell
        args = (ProtocolKind(name, measure_before_confirm=mbc), schemes[scheme],
                LinkConfig(GROUND, **LINKS[link]), NoiseParams(**NOISES[noise]))
        rngs = [np.random.default_rng((s, idx)) for s in range(seeds)]
        try:
            if batch:
                from purlink.protocols import run_trials

                results = run_trials(*args, rngs)
            else:
                results = [run_trial(*args, rng) for rng in rngs]
        except Exception as exc:  # recorded, compared like a result
            results = [f"{type(exc).__name__}: {exc}"] * seeds
        for s, r in enumerate(results):
            out[cell, s] = r if isinstance(r, str) else (
                r.completion_time, r.pairs_consumed, r.steps_completed, r.restarts, r.output_state)
    return out


def compare(a: dict, b: dict) -> int:
    import numpy as np

    exact, flipped, max_diff = 0, [], 0.0
    for key, ra in a.items():
        rb = b[key]
        if isinstance(ra, str) or isinstance(rb, str):
            if ra == rb:
                exact += 1
            else:
                flipped.append((key, ra if isinstance(ra, str) else ra[:4], rb if isinstance(rb, str) else rb[:4]))
            continue
        if ra[:4] != rb[:4]:
            flipped.append((key, ra[:4], rb[:4]))
            continue
        exact += 1
        max_diff = max(max_diff, float(np.abs(ra[4] - rb[4]).max()))
    print(f"results: {len(a)}")
    print(f"exact timelines: {exact}")
    print(f"max state difference: {max_diff:.3g}")
    print(f"flipped draws: {len(flipped)}")
    for key, ta, tb in flipped:
        print(f"  {key}: {ta} -> {tb}")
    return 1 if flipped else 0


def run_cli(root: str, work: Path) -> dict:
    """{(run, threads, output): bytes} from CLI commands of one checkout, run in work."""
    src = Path(root, "src").resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    circuit = src / "purlink" / "circuits" / "optimized5.circuit"
    out = {}
    for run, (command, lines) in CLI_RUNS.items():
        Path(work, f"{run}.cfg").write_text(CLI_COMMON + lines.format(circuit=circuit))
        files = [] if command == "simulate" else [f"{run}.csv"]
        for threads in (1, 2):
            done = subprocess.run(
                [sys.executable, "-m", "purlink", command, f"{run}.cfg", *files, "--seed", "1001",
                 "--threads", str(threads), "--events-log", f"{run}.log"],
                cwd=work, env=env, capture_output=True,
            )
            out[run, threads, "exit"] = b"%d\n" % done.returncode
            out[run, threads, "stdout"] = done.stdout
            out[run, threads, "stderr"] = done.stderr
            for name in (*files, f"{run}.log"):
                path = Path(work, name)
                out[run, threads, name] = path.read_bytes() if path.exists() else b"<missing>\n"
                path.unlink(missing_ok=True)
    return out


def compare_cli(a: dict, b: dict) -> int:
    differ = [key for key in a if a[key] != b[key]]
    print(f"cli outputs: {len(a)}")
    print(f"byte-identical: {len(a) - len(differ)}")
    for run, threads, name in differ:
        print(f"differs: {run} --threads {threads} {name}")
        sys.stdout.writelines(difflib.unified_diff(
            a[run, threads, name].decode(errors="replace").splitlines(keepends=True),
            b[run, threads, name].decode(errors="replace").splitlines(keepends=True),
            "ROOT_A", "ROOT_B",
        ))
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--dump":  # child: ROOT SEEDS BATCH OUT
        root, seeds, batch, out = argv[1:]
        Path(out).write_bytes(pickle.dumps(run_grid(root, int(seeds), batch == "1")))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--batch", action="store_true", help="run ROOT_B's cells through run_trials")
    parser.add_argument("--cli", action="store_true", help="compare CLI outputs instead of run_trial results")
    args = parser.parse_args(argv)
    if args.cli:
        with tempfile.TemporaryDirectory() as tmp:
            return compare_cli(*(run_cli(root, Path(tmp)) for root in (args.root_a, args.root_b)))
    grids = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, (root, batch) in enumerate(((args.root_a, False), (args.root_b, args.batch))):
            out = Path(tmp, f"grid{n}.pkl")
            subprocess.run([sys.executable, __file__, "--dump", root, str(args.seeds), "1" if batch else "0",
                            str(out)], check=True)
            grids.append(pickle.loads(out.read_bytes()))
    return compare(*grids)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
