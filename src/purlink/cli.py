"""Command-line front end: single runs, parameter sweeps, heatmap generation.

Exit codes: 0 success, 1 usage, 2 config/validation error, 3 runtime error.
All numeric CSV cells are written with repr(float(x)), so output is
byte-stable across runs and thread counts for a fixed seed.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

from .analysis import Estimates, estimate
from .config import Config, ConfigError, grid_points, load_config
from .protocols import PROTOCOL_NAMES, ProtocolKind, Pumping, run_trial
from .purify import CircuitError
from .streams import Streams

SWEEP_HEADER = "protocol,f0,t2_s,mu_hz,d_km,n_steps,fidelity,fidelity_ci,rate,rate_ci,skr,n_trials"
HEATMAP_HEADER = "f0,t2_s,best_protocol,best_skr,skr_nop,skr_base,skr_hopt,skr_opt"

_EVENT_TRIAL_INDEX = 2**62  # far outside any reachable trial index

# The heatmap scores QKD operation: every protocol measures before the final
# confirmation, so delivery is filtered, never awaited. These replace the file's keys.
_HEATMAP_KEYS = {"protocols": ",".join(PROTOCOL_NAMES), "measure_before_confirm": "true"}

# Interpreter shutdown runs full collections over every object numpy and
# purlink left alive, which costs a short command more than its cells do.
# Freezing them at exit lets those collections skip them; the process ends
# right after, which returns their memory. Spawned pool workers import this
# module to unpickle _run_task, so they register it too; importing purlink
# alone does not.
atexit.register(gc.freeze)


def _threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


def _steps_of(cfg: Config) -> int:
    if isinstance(cfg.scheme, Pumping):
        return cfg.scheme.n_steps
    return cfg.scheme.circuit.num_pairs - 1


def _cell_seed(cfg: Config, name: str, cell_idx: int) -> tuple[int, int, int]:
    # Canonical protocol index, not the position in the requested subset:
    # this keeps per-protocol streams identical across subsets and layouts.
    return (cfg.seed, PROTOCOL_NAMES.index(name), cell_idx)


def _run_task(task: tuple[Config, str, int]) -> Estimates:
    point, name, cell_idx = task
    return estimate(
        ProtocolKind(name, point.measure_before_confirm), point.scheme, point.link, point.noise,
        point.trials_min, _cell_seed(point, name, cell_idx),
        ci_target=point.ci_target, max_trials=point.max_trials, skf_mode=point.skf_mode,
    )


def _estimate_grid(points: list[Config], names, threads: int) -> list[list[Estimates]]:
    """One row per grid point, holding the estimate of each named protocol."""
    tasks = [(point, name, idx) for idx, point in enumerate(points) for name in names]
    # no more workers than tasks or cores: each one is a fresh interpreter
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        flat = [_run_task(t) for t in tasks]
    else:
        # Imported here so that a serial run never loads the pool machinery.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: fork would copy a process already running numpy's BLAS threads
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            flat = list(pool.map(_run_task, tasks))
    n = len(names)
    return [flat[i : i + n] for i in range(0, len(flat), n)]


def _write_events_log(path: str, cfg: Config) -> None:
    """One fully traced extra trial per protocol, appended per section."""
    lines: list[str] = []
    for name in cfg.protocols:
        kind = ProtocolKind(name, measure_before_confirm=cfg.measure_before_confirm)
        events: list[str] = []
        streams = Streams(_cell_seed(cfg, name, 0), _EVENT_TRIAL_INDEX, _EVENT_TRIAL_INDEX + 1)
        run_trial(kind, cfg.scheme, cfg.link, cfg.noise, streams, events=events)
        lines.append(f"# protocol {name}")
        lines.extend(events)
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_simulate(cfg: Config, args) -> None:
    if cfg.axes:
        raise ConfigError("simulate takes no sweep axes; use the sweep command")
    (results,) = _estimate_grid([cfg], cfg.protocols, args.threads)
    print("protocol fidelity fidelity_ci rate_per_s rate_ci skr_bits_per_s n_trials converged")
    for name, est in zip(cfg.protocols, results):
        print(
            f"{name} {_fmt(est.mean_fidelity)} {_fmt(est.ci_halfwidth_fidelity)} "
            f"{_fmt(est.rate)} {_fmt(est.ci_halfwidth_rate)} {_fmt(est.skr)} "
            f"{est.n_trials} {'yes' if est.converged else 'no'}"
        )


def cmd_sweep(cfg: Config, args) -> None:
    if not cfg.axes:
        raise ConfigError("sweep requires at least 'sweep_param' and 'sweep_values'")
    points = grid_points(cfg)
    names = [n for n in PROTOCOL_NAMES if n in cfg.protocols]
    rows = _estimate_grid(points, names, args.threads)
    lines = [SWEEP_HEADER]
    for point, row in zip(points, rows):
        for name, est in zip(names, row):
            lines.append(",".join((
                name,
                _fmt(point.link.f0),
                _fmt(point.noise.t2),
                _fmt(point.link.mu),
                _fmt(point.link.d),
                str(_steps_of(point)),
                _fmt(est.mean_fidelity),
                _fmt(est.ci_halfwidth_fidelity),
                _fmt(est.rate),
                _fmt(est.ci_halfwidth_rate),
                _fmt(est.skr),
                str(est.n_trials),
            )))
    Path(args.out_csv).write_text("\n".join(lines) + "\n")


def cmd_heatmap(cfg: Config, args) -> None:
    if tuple(name for name, _ in cfg.axes) != ("f0", "t2_s"):
        raise ConfigError("heatmap requires exactly sweep_param = f0 and sweep_param2 = t2_s")
    points = grid_points(cfg)
    rows = _estimate_grid(points, PROTOCOL_NAMES, args.threads)
    lines = [HEATMAP_HEADER]
    for point, row in zip(points, rows):
        skrs = [est.skr for est in row]
        best_skr = max(skrs)
        if best_skr <= 0.0:
            best = "N/A"
        else:
            best = PROTOCOL_NAMES[skrs.index(best_skr)]  # ties: canonical order
        lines.append(",".join((
            _fmt(point.link.f0),
            _fmt(point.noise.t2),
            best,
            _fmt(best_skr),
            *(_fmt(s) for s in skrs),
        )))
    Path(args.out_csv).write_text("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="purlink",
        description="Monte Carlo purified-link simulator: estimate fidelity, rate, and secret-key rate per protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, needs_out, blurb in (
        ("simulate", cmd_simulate, False, "estimate one configuration and print a table"),
        ("sweep", cmd_sweep, True, "sweep one or two parameters to CSV"),
        ("heatmap", cmd_heatmap, True, "best-protocol map over (f0, t2_s) to CSV"),
    ):
        p = sub.add_parser(name, help=blurb, description=blurb)
        p.add_argument("config", help="experiment config file")
        if needs_out:
            p.add_argument("out_csv", help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials-min", type=int, default=None, help="override minimum trials per estimate")
        p.add_argument("--ci-target", type=float, default=None, help="override relative CI target")
        p.add_argument("--max-trials", type=int, default=None, help="override the trial cap")
        p.add_argument("--threads", type=_threads, default=1,
                       help="worker processes for grid cells, at most one per core")
        p.add_argument("--events-log", default=None, metavar="PATH",
                       help="write one traced trial per protocol to PATH")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # flags are raw config values: str() of an int or float parses back exactly
    flags = {k: getattr(args, k) for k in ("seed", "trials_min", "ci_target", "max_trials")}
    overrides = {k: str(v) for k, v in flags.items() if v is not None}
    if args.command == "heatmap":
        overrides.update(_HEATMAP_KEYS)
    try:
        cfg = load_config(args.config, overrides)
        args.func(cfg, args)
        if args.events_log:
            _write_events_log(args.events_log, grid_points(cfg)[0])
        return 0
    except (ConfigError, CircuitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
