"""Workload definitions, output parsing and the reference check.

Every workload is one purlink CLI command on a fixed config with a fixed
trial count per cell (trials_min = max_trials), so every commit does the
same simulated work for a given seed. Shared link settings follow the
paper's ground link: f0 = 0.9, p_g = p_m = 0.99, t1 = 360 s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

TRIALS_PER_CELL = 100  # the smallest trials_min the CLI accepts

# A cell passes when each quantity lies within TOL_MULTIPLE combined 95%
# halfwidths of the reference (about 8 standard deviations), or within the
# absolute floor. The floor matters for cells whose estimate has zero
# variance: NOP fidelity and blind OPT fidelity are deterministic.
TOL_MULTIPLE = 4.0
FLOOR = {"fidelity": 1e-6, "rate": 1e-6, "skr": 1e-6}  # rate and skr: relative

_COMMON = """kind = ground
f0 = 0.9
p_g = 0.99
p_m = 0.99
t1_s = 360
trials_min = {trials}
max_trials = {trials}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # sweep | simulate
    config: str  # extra config lines; {circuit} expands to a path

    def config_text(self, root: Path) -> str:
        circuit = root / "src" / "purlink" / "circuits" / "optimized5.circuit"
        return _COMMON.format(trials=TRIALS_PER_CELL) + self.config.format(circuit=circuit)

    def argv(self, cfg: Path, out: Path, cli_seed: int, threads: int = 1) -> list[str]:
        args = [self.command, str(cfg)]
        if self.command != "simulate":
            args.append(str(out))
        return args + ["--seed", str(cli_seed), "--threads", str(threads)]


# Why each workload exists (see README.md for the profiles behind them):
#   pump_ghz       warm pumping kernel; _Kernel.step and decohere_pair dominate
#   circuit_dense  dense 2^n register channels of the circuit interpreter
# Each command takes 3-5 s on a 2-core machine, so a run can repeat it
# several times and report a median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pump_ghz", "sweep", """d_km = 20
mu_hz = 1e9
t2_s = 1e-3
measure_before_confirm = false
sweep_param = n_steps
sweep_values = 1, 3, 5
"""),
        Workload("circuit_dense", "simulate", """d_km = 20
mu_hz = 1e9
t2_s = 0.01
circuit = {circuit}
protocols = BASE,HOPT
"""),
    )
}

# Small sweep run at --threads 1 and --threads 2 to check the determinism
# contract: CSV output is byte-identical for any thread count.
DETERMINISM_CONFIG = """kind = ground
d_km = 20
mu_hz = 1e6
f0 = 0.9
t2_s = 0.01
n_steps = 1
protocols = HOPT,OPT
trials_min = 100
max_trials = 100
sweep_param = f0
sweep_values = 0.85, 0.9
"""
DETERMINISM_CELLS = 4


def cli_seed(bench_seed: int) -> int:
    """CLI seed for a benchmark seed, offset away from the seeds tests pin."""
    return 1000 + bench_seed


# ---------------------------------------------------------------------------
# Parsing. Each parser returns {cell_key: {quantity: value}}.

def parse_sweep(text: str) -> dict[str, dict[str, float]]:
    lines = text.splitlines()
    cols = lines[0].split(",")
    cells = {}
    for line in lines[1:]:
        row = dict(zip(cols, line.split(",")))
        key = "|".join(row[c] for c in ("protocol", "f0", "t2_s", "mu_hz", "d_km", "n_steps"))
        cells[key] = {c: float(row[c]) for c in (
            "fidelity", "fidelity_ci", "rate", "rate_ci", "skr", "n_trials")}
    return cells


def parse_simulate(text: str) -> dict[str, dict[str, float]]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("protocol "))
    cols = lines[start].split()
    names = {"rate_per_s": "rate", "skr_bits_per_s": "skr"}
    cells = {}
    for line in lines[start + 1:]:
        row = dict(zip(cols, line.split()))
        cells[row["protocol"]] = {
            names.get(c, c): float(row[c])
            for c in ("fidelity", "fidelity_ci", "rate_per_s", "rate_ci", "skr_bits_per_s", "n_trials")
        }
    return cells


def parse_output(workload: Workload, text: str) -> dict[str, dict[str, float]]:
    return parse_sweep(text) if workload.command == "sweep" else parse_simulate(text)


def output_text(workload: Workload, out_csv: Path, stdout: Path) -> str:
    return (stdout if workload.command == "simulate" else out_csv).read_text()


def trials_in(cells: dict[str, dict[str, float]]) -> int:
    return int(sum(c["n_trials"] for c in cells.values()))


# ---------------------------------------------------------------------------
# Reference check.

def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def tolerance(q: str, ref: dict, run: dict) -> float:
    """TOL_MULTIPLE combined 95% halfwidths, never below the floor.

    Fidelity and rate use the run's own reported CI with the reference's;
    the key rate has no reported CI, so its run halfwidth is the spread of
    the reference seeds (1.96 standard deviations at the same trial count).
    """
    ref_hw = ref[q + "_hw_mean"]
    run_hw = run.get(q + "_ci", ref[q + "_hw_run"])
    combined = math.hypot(ref_hw, run_hw)
    floor = FLOOR[q] * (1.0 if q == "fidelity" else max(abs(ref[q]), 1.0))
    return max(TOL_MULTIPLE * combined, floor)


def check_cells(reference: dict, cells: dict) -> dict[str, str]:
    """Failed cells of one output, as {cell_key: reason}."""
    failed = {}
    for key, ref in reference["cells"].items():
        run = cells.get(key)
        if run is None:
            failed[key] = "row missing"
            continue
        bad = [
            f"{q}={run[q]!r} ref={ref[q]!r} tol={tolerance(q, ref, run):.3g}"
            for q in ("fidelity", "rate", "skr")
            if q in run and abs(run[q] - ref[q]) > tolerance(q, ref, run)
        ]
        if bad:
            failed[key] = ", ".join(bad)
    return failed
