#!/usr/bin/env python3
"""Record the per-cell reference that run.py checks outputs against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's command on the CLI seeds in SEEDS, well away from the
1000 + --seed that run.py uses, and stores, per cell and quantity, the mean
over seeds, the 95% halfwidth of that mean, and the 95% halfwidth of one
run (1.96 standard deviations over seeds).
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import HERE, ROOT, WORK, git_sha

SEEDS = range(900_001, 900_017)


def run_one(workload: wl.Workload, work: Path, seed: int) -> dict:
    cfg = work / f"{workload.name}.cfg"
    out = work / f"{workload.name}-{seed}.csv"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cli", str(ROOT), *workload.argv(cfg, out, seed)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    text = proc.stdout if workload.command == "simulate" else out.read_text()
    return wl.parse_output(workload, text)


def reference_for(workload: wl.Workload) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        (work / f"{workload.name}.cfg").write_text(workload.config_text(ROOT))
        runs = [run_one(workload, work, seed) for seed in SEEDS]
    cells = {}
    for key in runs[0]:
        entry = {}
        for q in ("fidelity", "rate", "skr"):
            if q not in runs[0][key]:
                continue
            values = [r[key][q] for r in runs]
            sd = statistics.stdev(values)
            entry[q] = statistics.fmean(values)
            entry[q + "_hw_mean"] = 1.96 * sd / math.sqrt(len(values))
            entry[q + "_hw_run"] = 1.96 * sd
        cells[key] = entry
    return {
        "workload": workload.name,
        "git_sha": git_sha(),
        "cli_seeds": [SEEDS.start, SEEDS.stop - 1],
        "trials_per_cell": wl.TRIALS_PER_CELL,
        "tol_multiple": wl.TOL_MULTIPLE,
        "cells": cells,
    }


def main(names: list[str]) -> int:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(wl.WORKLOADS):
        ref = reference_for(wl.WORKLOADS[name])
        path = wl.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(ref['cells'])} cells -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
