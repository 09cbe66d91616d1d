"""Key-value experiment configuration: parsing, validation, sweep axes.

One config file fully determines an experiment, including the seed. The
grammar is line-oriented `key = value` with `#` comments; unknown keys,
missing required keys, and out-of-domain values all fail with the offending
key named in the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from .analysis import SKF_MODES
from .channels import NoiseParams, OpticalHardware
from .linkmodel import GROUND, LinkConfig, link_delays, per_photon_survival
from .protocols import PROTOCOL_NAMES, CircuitScheme, ProtocolKind, Pumping, Scheme, plan
from .purify import load_circuit

SWEEPABLE = ("f0", "t2_s", "mu_hz", "d_km", "n_steps")

# Largest accepted lower bound on the mean source ticks per delivery; at 1 GHz
# it is a second per trial. For scale, 5-step OPT needs about 1e2 over 20 km
# of fiber and 5.8e3 over an 800 km satellite link.
MAX_DELIVERY_TICKS = 1e9


class ConfigError(ValueError):
    """Raised for unparseable, unknown, missing, or out-of-domain keys."""


@dataclass(frozen=True)
class Config:
    link: LinkConfig
    noise: NoiseParams
    scheme: Scheme
    protocols: tuple[str, ...]
    measure_before_confirm: bool
    skf_mode: str
    seed: int
    trials_min: int
    ci_target: float
    max_trials: Optional[int]
    axes: tuple[tuple[str, tuple[float, ...]], ...]


def _parse_float(key: str, raw: str, inf_ok: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"invalid value for '{key}': {raw!r} is not a number") from None
    if math.isnan(value) or (math.isinf(value) and not inf_ok):
        raise ConfigError(f"invalid value for '{key}': {raw!r} is not a finite number")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"invalid value for '{key}': {raw!r} is not an integer") from None


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"invalid value for '{key}': expected true or false, got {raw!r}")


def _parse_values(key: str, raw: str, param: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if not parts or any(not p for p in parts):
        raise ConfigError(f"invalid value for '{key}': expected a comma-separated list")
    vals = tuple(
        _parse_int(key, p) if param == "n_steps" else _parse_float(key, p, param in _INF_OK)
        for p in parts
    )
    if len(vals) > 1:
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ConfigError(f"'{key}' values must be strictly monotone")
    return vals


# config key -> dataclass field; a key left out keeps the field's default
_LINK_FIELDS = {
    "d_km": "d", "mu_hz": "mu", "f0": "f0", "h_km": "h",
    "alpha_db_per_km": "alpha_f", "alpha_atm_per_km": "alpha_a",
    "atmosphere_ceiling_km": "atmosphere_ceiling",
    "c_fiber_km_s": "c_fiber", "c_vacuum_km_s": "c_vacuum",
    "gate_time_s": "gate_time", "measure_time_s": "measure_time",
}
_HW_FIELDS = {"d_s_m": "d_s", "d_g_m": "d_g", "wavelength_m": "wavelength"}
_NOISE_FIELDS = {"p_g": "p_g", "p_m": "p_m", "t1_s": "t1", "t2_s": "t2"}
# the only float keys where inf means something: it disables that damping
_INF_OK = {"t1_s", "t2_s"}
_FLOAT_KEYS = {*_LINK_FIELDS, *_HW_FIELDS, *_NOISE_FIELDS, "ci_target"}
_INT_KEYS = {"n_steps", "seed", "trials_min", "max_trials"}
_BOOL_KEYS = {"measure_before_confirm"}
_STR_KEYS = {
    "kind", "protocols", "skf_mode", "circuit",
    "sweep_param", "sweep_values", "sweep_param2", "sweep_values2",
}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS
_REQUIRED = ("kind", "d_km", "mu_hz", "f0")


def parse_config(
    text: str, base_dir: Union[str, Path, None] = None, overrides: Optional[dict[str, str]] = None
) -> Config:
    """Parse and validate config text into a Config.

    Relative circuit paths resolve against base_dir (the config file's
    directory when loaded via load_config). overrides maps config keys to
    raw values that replace the file's before anything is checked; the CLI
    passes its flags and the heatmap's forced settings this way.
    """
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"line {line_no}: empty value for '{key}'")
        raw[key] = value
    raw.update(overrides or {})

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")

    def take_int(key: str, default: int) -> int:
        return _parse_int(key, raw[key]) if key in raw else default

    kind = raw["kind"]
    if kind not in ("ground", "satellite"):
        raise ConfigError(f"invalid value for 'kind': expected ground or satellite, got {kind!r}")

    def fields(table: dict[str, str]) -> dict[str, float]:
        return {
            name: _parse_float(key, raw[key], key in _INF_OK)
            for key, name in table.items()
            if key in raw
        }

    try:
        hw = OpticalHardware(**fields(_HW_FIELDS))
        link = LinkConfig(kind, hw=hw, **fields(_LINK_FIELDS))
        noise = NoiseParams(**fields(_NOISE_FIELDS))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None

    if "circuit" in raw and "n_steps" in raw:
        raise ConfigError("keys 'circuit' and 'n_steps' are mutually exclusive")
    scheme: Scheme
    if "circuit" in raw:
        path = Path(raw["circuit"])
        if not path.is_absolute() and base_dir is not None:
            path = Path(base_dir) / path
        try:
            scheme = CircuitScheme(load_circuit(path))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid value for 'circuit': {exc}") from None
    else:
        try:
            scheme = Pumping(take_int("n_steps", 1))
        except ValueError as exc:
            raise ConfigError(f"invalid value for 'n_steps': {exc}") from None

    protocols_raw = raw.get("protocols", ",".join(PROTOCOL_NAMES))
    protocols = tuple(p.strip() for p in protocols_raw.split(","))
    if not protocols or any(not p for p in protocols):
        raise ConfigError("invalid value for 'protocols': expected a comma-separated list")
    for p in protocols:
        if p not in PROTOCOL_NAMES:
            raise ConfigError(f"invalid value for 'protocols': unknown protocol {p!r}")
    if len(set(protocols)) != len(protocols):
        raise ConfigError("invalid value for 'protocols': duplicate protocol")

    skf_mode = raw.get("skf_mode", SKF_MODES[0])
    if skf_mode not in SKF_MODES:
        raise ConfigError(
            f"invalid value for 'skf_mode': expected {' or '.join(SKF_MODES)}, got {skf_mode!r}"
        )

    trials_min = take_int("trials_min", 10_000)
    if trials_min < 100:
        raise ConfigError("invalid value for 'trials_min': must be at least 100")
    ci_target = _parse_float("ci_target", raw["ci_target"]) if "ci_target" in raw else 0.03
    if ci_target <= 0:
        raise ConfigError("invalid value for 'ci_target': must be positive and finite")
    max_trials = take_int("max_trials", 0) if "max_trials" in raw else None
    if max_trials is not None and max_trials < trials_min:
        raise ConfigError("invalid value for 'max_trials': must be at least trials_min")
    seed = take_int("seed", 0)
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError("invalid value for 'seed': must be non-negative")

    cfg = Config(
        link=link,
        noise=noise,
        scheme=scheme,
        protocols=protocols,
        measure_before_confirm=_parse_bool(
            "measure_before_confirm", raw.get("measure_before_confirm", "false")
        ),
        skf_mode=skf_mode,
        seed=seed,
        trials_min=trials_min,
        ci_target=ci_target,
        max_trials=max_trials,
        axes=(),
    )

    axes: list[tuple[str, tuple[float, ...]]] = []
    for suffix in ("", "2"):
        pkey, vkey = f"sweep_param{suffix}", f"sweep_values{suffix}"
        if pkey in raw or vkey in raw:
            if pkey not in raw or vkey not in raw:
                raise ConfigError(f"'{pkey}' and '{vkey}' must be given together")
            param = raw[pkey]
            if param not in SWEEPABLE:
                raise ConfigError(
                    f"invalid value for '{pkey}': {param!r} is not sweepable "
                    f"(choose from {', '.join(SWEEPABLE)})"
                )
            if param == "n_steps" and isinstance(scheme, CircuitScheme):
                raise ConfigError("cannot sweep 'n_steps' with a circuit scheme")
            values = _parse_values(vkey, raw[vkey], param)
            # no axis constrains another, so each value is checked on its own
            for v in values:
                try:
                    apply_axis(cfg, param, v)
                except ValueError as exc:
                    raise ConfigError(f"invalid value for '{vkey}': {exc}") from None
            axes.append((param, values))
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ConfigError("sweep_param and sweep_param2 must differ")
    cfg = replace(cfg, axes=tuple(axes))
    for point in grid_points(cfg):
        check_delivery_bound(point)
    return cfg


def grid_points(cfg: Config) -> list[Config]:
    """Effective configs in lexicographic grid order (first axis slowest)."""
    points = [cfg]
    for param, values in cfg.axes:
        points = [apply_axis(p, param, v) for p in points for v in values]
    return points


def check_delivery_bound(cfg: Config) -> None:
    """Reject a grid point whose deliveries need more than MAX_DELIVERY_TICKS ticks.

    With per-photon survival p, storing one pair takes 1/p^2 source ticks on
    average, so a delivery from N pairs takes at least N/p^2 (raw delivery
    takes one pair). OPT restarts its episode on every one-sided loss; a
    tick on which any photon arrives brings both with probability p/(2-p),
    so it also needs at least ((2-p)/p)^N ticks, unless it acquires blind
    and skips lost rounds in one draw. N and blindness are what
    protocols.plan runs for cfg's protocols and measure_before_confirm.

    The engine counts time in integer ticks; this clock-fit check keeps its
    fixed jumps and blind OPT's stride finite integers. MAX_DELIVERY_TICKS
    periods must be finite and span the photon delay, the herald delay and
    a gate plus a measurement; a 20 km herald at 1 GHz spans 1e5.
    """
    period, photon_delay, herald = link_delays(cfg.link)
    clock = MAX_DELIVERY_TICKS * period
    if not (math.isfinite(clock + photon_delay + herald) and max(photon_delay, herald) <= clock):
        speeds = f"c_fiber_km_s = {cfg.link.c_fiber!r}"
        if cfg.link.kind != GROUND:
            speeds += f" and c_vacuum_km_s = {cfg.link.c_vacuum!r}"
        raise ConfigError(
            f"link delays do not fit the source clock: mu_hz = {cfg.link.mu!r} with {speeds} gives a period "
            f"of {period:.3g} s and delays of {photon_delay:.3g} and {herald:.3g} s, but "
            f"{MAX_DELIVERY_TICKS:.0e} periods must be finite and span both delays"
        )
    ops = cfg.link.gate_time + cfg.link.measure_time
    if not (math.isfinite(ops) and ops <= clock):
        raise ConfigError(
            f"local operations do not fit the source clock: gate_time_s = {cfg.link.gate_time!r} and "
            f"measure_time_s = {cfg.link.measure_time!r} take {ops:.3g} s, but {MAX_DELIVERY_TICKS:.0e} "
            f"periods of {period:.3g} s must span them"
        )
    p = per_photon_survival(cfg.link)
    log_p = math.log10(p) if p > 0.0 else -math.inf
    log_ticks = -math.inf
    for name in cfg.protocols:
        kind, circ, blind = plan(ProtocolKind(name, cfg.measure_before_confirm), cfg.scheme)
        n = circ.num_pairs
        log_ticks = max(log_ticks, math.log10(n) - 2.0 * log_p)
        if kind.name == "OPT" and not blind:
            log_ticks = max(log_ticks, n * (math.log10(2.0 - p) - log_p))
    if log_ticks > math.log10(MAX_DELIVERY_TICKS):
        if cfg.link.kind == GROUND:
            loss = f"alpha_db_per_km = {cfg.link.alpha_f!r}"
        else:
            loss = f"alpha_atm_per_km = {cfg.link.alpha_a!r}"
        raise ConfigError(
            f"link cannot deliver in bounded time: d_km = {cfg.link.d!r} with {loss} "
            f"gives per-photon survival {p:.3g}, so a delivery needs at least "
            f"10^{log_ticks:.1f} source ticks on average (limit {MAX_DELIVERY_TICKS:.0e})"
        )


def load_config(path: Union[str, Path], overrides: Optional[dict[str, str]] = None) -> Config:
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, base_dir=p.parent, overrides=overrides)


def apply_axis(cfg: Config, param: str, value: float) -> Config:
    """A copy of cfg with one sweep parameter replaced by a grid value."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    if param == "n_steps":
        return replace(cfg, scheme=Pumping(int(value)))
    if param in _NOISE_FIELDS:
        return replace(cfg, noise=replace(cfg.noise, **{_NOISE_FIELDS[param]: value}))
    return replace(cfg, link=replace(cfg.link, **{_LINK_FIELDS[param]: value}))
