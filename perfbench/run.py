#!/usr/bin/env python3
"""purlink benchmark: end-to-end CLI metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; purlink is imported from its src/. Every
command runs in a fresh interpreter with the caller's environment
unchanged, and its output is checked against perfbench/reference/.

--trace 0 first runs a small sweep at --threads 1 and --threads 2, which
must give byte-identical CSV, then repeats (set-up probe, CLI command)
until the next repeat would end more than S seconds after the start, at
least three times, and reports medians: setup_s, wall_s, trials_per_s and
peak_rss_mb.

--trace 1 runs the command once traced, once untraced and once at
--threads 2, times the untimed interpreters in purify, and reports the
per-layer metrics. The traced and --threads 2 outputs must be
byte-identical to the untraced one.

The last line of stdout is one JSON object: correct, attempted, failed
(cells of output checked and failed) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RUN_LIMIT_S = 170.0  # the whole run, set-up probes and checks included
MIN_REPS = 3
THREAD_ENV = ("OPENBLAS_", "OMP_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO_")

# ROADMAP item 1 baseline: run_trial trials/s for 5-step pumping on the
# pump_ghz link, measured untraced.
ROADMAP_TRIALS_PER_S = {"NOP": 36000.0, "BASE": 383.0, "HOPT": 953.0, "OPT": 222.0}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class Output:
    text: str
    cells: dict  # cell key -> {quantity: value}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    started: float  # CLOCK_MONOTONIC just before the spawn
    stdout: Path
    stderr: Path


class Spawner:
    """Runs child.py modes one at a time, each killed at the run deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def __call__(self, *args: str) -> Child:
        self.count += 1
        out = self.work / f"child{self.count}.out"
        err = self.work / f"child{self.count}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            started = time.clock_gettime(time.CLOCK_MONOTONIC)
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), *args], stdout=fo, stderr=fe, cwd=ROOT
            )
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:  # interrupted: stop and reap the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, started, out, err)


def metadata() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # noqa: BLE001 - metadata is best effort
        blas = f"unknown ({exc})"
    src = ROOT / "src" / "purlink"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.startswith(THREAD_ENV) or "THREAD" in k},
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Checker:
    """Counts output cells attempted and failed across every check of a run."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.reference = wl.load_reference(workload.name)
        self.attempted = 0
        self.failed: list[str] = []  # one line per failed cell or probe

    def fail(self, label: str, reasons: dict[str, str]) -> None:
        self.failed.extend(f"{label}: {key}: {why}" for key, why in sorted(reasons.items()))

    def output(self, child: Child, out_csv: Path, label: str) -> Output | None:
        """The parsed output of a finished command, or None if it failed."""
        keys = self.reference["cells"]
        if child.code != 0:
            self.fail(label, {k: f"exit code {child.code}" for k in keys})
            return None
        try:
            text = wl.output_text(self.workload, out_csv, child.stdout)
            return Output(text, wl.parse_output(self.workload, text))
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            self.fail(label, {k: f"unparsable output: {exc!r}" for k in keys})
            return None

    def against_reference(self, result: Output | None, label: str) -> None:
        self.attempted += len(self.reference["cells"])
        if result is not None:
            self.fail(label, wl.check_cells(self.reference, result.cells))

    def identical(self, base: Output | None, other: Output | None, label: str) -> None:
        """Cells of `other` must be byte-identical to those of `base`."""
        self.attempted += len(self.reference["cells"])
        if base is None or other is None or base.text == other.text:
            return
        self.fail(label, {k: "differs" for k in self.reference["cells"]
                          if base.cells.get(k) != other.cells.get(k)} or {"output": "bytes differ"})


def run_untraced(args, spawn: Spawner, checker: Checker, cfg: Path, seed: int) -> dict:
    """Repeat (set-up probe, command) to fill --seconds, after an untimed check."""
    w = checker.workload
    start = time.monotonic()
    determinism_check(spawn, checker, seed)  # untimed; also warms the page cache
    loop_start = time.monotonic()
    setups, walls, rss, results = [], [], [], []
    while True:
        probe = spawn("setup", str(ROOT), str(cfg), str(seed))
        checker.attempted += 1
        try:
            setups.append(float(probe.stdout.read_text().split()[-1]) - probe.started)
        except (ValueError, IndexError):
            checker.fail("setup probe", {str(len(setups) + 1): f"exit code {probe.code}: "
                                         + probe.stderr.read_text()[-300:]})
            setups.append(probe.wall_s)
        out = spawn.work / f"rep{len(walls)}.csv"
        rep = spawn("cli", str(ROOT), *w.argv(cfg, out, seed))
        walls.append(rep.wall_s)
        rss.append(rep.rss_mb)
        results.append(checker.output(rep, out, f"repeat {len(walls)}"))
        now = time.monotonic()
        per_repeat = (now - loop_start) / len(walls)
        if results[-1] is None or spawn.remaining() < 2 * per_repeat:
            break
        # Stop before a repeat would end past --seconds from the start.
        if len(walls) >= MIN_REPS and now + per_repeat - start > args.seconds:
            break
    checker.against_reference(results[0], "reference")
    for i, res in enumerate(results[1:], start=2):
        checker.identical(results[0], res, f"repeat {i} vs repeat 1")

    wall_s, setup_s = statistics.median(walls), statistics.median(setups)
    trials = wl.trials_in(results[0].cells) if results[0] else 0
    print(f"# repeats {len(walls)}: wall_s {[round(x, 3) for x in walls]} "
          f"setup_s {[round(x, 3) for x in setups]}")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "trials_per_s": trials / (wall_s - setup_s),
        "peak_rss_mb": statistics.median(rss),
    }


def determinism_check(spawn: Spawner, checker: Checker, seed: int) -> None:
    """A small sweep at --threads 1 and 2 must write byte-identical CSV."""
    cfg = spawn.work / "determinism.cfg"
    cfg.write_text(wl.DETERMINISM_CONFIG)
    texts = []
    for threads in (1, 2):
        out = spawn.work / f"determinism{threads}.csv"
        child = spawn("cli", str(ROOT), "sweep", str(cfg), str(out),
                      "--seed", str(seed), "--threads", str(threads))
        texts.append(out.read_text() if child.code == 0 and out.exists() else None)
    checker.attempted += wl.DETERMINISM_CELLS
    if texts[0] is None or texts[0] != texts[1]:
        checker.fail("determinism sweep", {
            f"cell {i}": "--threads 1 and 2 differ or failed" for i in range(wl.DETERMINISM_CELLS)})


def run_traced(spawn: Spawner, checker: Checker, cfg: Path, seed: int) -> dict:
    w = checker.workload
    summary_path = spawn.work / "trace.json"
    wall, outputs = {}, {}
    for label, mode, threads in (("traced", "traced", 1), ("untraced", "cli", 1),
                                 ("threads2", "cli", 2)):
        out = spawn.work / f"{label}.csv"
        extra = (str(summary_path),) if mode == "traced" else ()
        child = spawn(mode, str(ROOT), *extra, *w.argv(cfg, out, seed, threads))
        wall[label] = child.wall_s
        outputs[label] = checker.output(child, out, label)
    checker.against_reference(outputs["untraced"], "reference")
    checker.identical(outputs["untraced"], outputs["traced"], "traced vs untraced")
    checker.identical(outputs["untraced"], outputs["threads2"], "--threads 2 vs 1")

    micro_path = spawn.work / "micro.json"
    spawn("micro", str(ROOT), str(micro_path))
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {
        "metrics": {}, "cell_trials_per_s": [], "spans": 0}
    spans = summary_path.with_suffix(".npz")
    if spans.exists():  # kept after the run, for inspection
        spans.replace(WORK / f"spans-{w.name}.npz")
    metrics = dict(summary["metrics"])
    metrics.update(json.loads(micro_path.read_text()) if micro_path.exists() else {})
    metrics["cli.pool_speedup"] = wall["untraced"] / wall["threads2"]
    metrics["trace.overhead_ratio"] = wall["traced"] / wall["untraced"]
    # Share of the traced command's wall, interpreter start included, that
    # is not spent in estimate.
    estimate_s = summary.get("estimate_s", 0.0)
    metrics["cli.outside_estimate_frac"] = 1.0 - estimate_s / wall["traced"]
    print(f"# spans {summary['spans']}; wall_s traced {wall['traced']:.3f} untraced "
          f"{wall['untraced']:.3f} threads2 {wall['threads2']:.3f}")
    if w.name == "pump_ghz":
        roadmap_cross_check(summary["cell_trials_per_s"])
    return metrics


def roadmap_cross_check(cells) -> None:
    print("# traced run_trial trials/s at n_steps = 5 beside ROADMAP item 1 (untraced):")
    for proto, n_steps, rate in cells:
        if n_steps != 5 or proto not in ROADMAP_TRIALS_PER_S:
            continue
        ref = ROADMAP_TRIALS_PER_S[proto]
        flag = "  DIFFERS BY MORE THAN 2x" if not 0.5 <= rate / ref <= 2.0 else ""
        print(f"#   {proto:5s} {rate:10.1f}  roadmap {ref:8.0f}  ratio {rate / ref:5.2f}{flag}")


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    # Turn SIGTERM into SystemExit so the running child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "purlink" / "cli.py").is_file():
        print(f"error: no purlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workload = wl.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        cfg = work / f"{workload.name}.cfg"
        cfg.write_text(workload.config_text(ROOT))
        seed = wl.cli_seed(args.seed)
        spawn = Spawner(work, deadline)
        checker = Checker(workload)
        if args.trace:
            units = per_layer_units()
            values = run_traced(spawn, checker, cfg, seed)
        else:
            units = END_TO_END_UNITS
            values = run_untraced(args, spawn, checker, cfg, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # numpy is imported only now, so its thread pool cannot compete with the
    # children being timed.
    print("# meta " + json.dumps(metadata(), sort_keys=True))
    for line in checker.failed[:20]:
        print(f"# FAILED {line}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"# {name:44s} {m['value']:>16.6g} {m['unit']}")
    failed = len(checker.failed)
    print(f"# cells attempted {checker.attempted}, failed {failed}, "
          f"fail_frac {failed / max(checker.attempted, 1):.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
