"""Key-value experiment configuration: parsing, validation, sweep axes.

One config file fully determines an experiment, including the seed. The
grammar is line-oriented `key = value` with `#` comments; unknown keys,
missing required keys, and out-of-domain values all fail with the offending
key named in the message.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from .channels import NoiseParams, OpticalHardware
from .linkmodel import LinkConfig
from .protocols import PROTOCOL_NAMES, CircuitScheme, Pumping, Scheme
from .purify import load_circuit

SWEEPABLE = ("f0", "t2_s", "mu_hz", "d_km", "n_steps")


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


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"invalid value for '{key}': {raw!r} is not a number") from None


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


def _parse_values(key: str, raw: str, as_int: bool) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if not parts or any(not p for p in parts):
        raise ConfigError(f"invalid value for '{key}': expected a comma-separated list")
    vals = tuple(
        _parse_int(key, p) if as_int else _parse_float(key, p) for p in parts
    )
    if len(vals) > 1:
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ConfigError(f"'{key}' values must be strictly monotone")
    return vals


_FLOAT_KEYS = {
    "d_km", "mu_hz", "f0", "t1_s", "t2_s", "p_g", "p_m",
    "alpha_db_per_km", "alpha_atm_per_km", "atmosphere_ceiling_km", "h_km",
    "c_fiber_km_s", "c_vacuum_km_s", "d_s_m", "d_g_m", "wavelength_m",
    "gate_time_s", "measure_time_s", "ci_target",
}
_INT_KEYS = {"n_steps", "seed", "trials_min", "max_trials"}
_BOOL_KEYS = {"measure_before_confirm"}
_STR_KEYS = {
    "kind", "protocols", "skf_mode", "circuit",
    "sweep_param", "sweep_values", "sweep_param2", "sweep_values2",
}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS
_REQUIRED = ("kind", "d_km", "mu_hz", "f0")


def parse_config(text: str, base_dir: Union[str, Path, None] = None) -> Config:
    """Parse and validate config text into a Config.

    Relative circuit paths resolve against base_dir (the config file's
    directory when loaded via load_config).
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

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")

    def take_float(key: str, default: float) -> float:
        return _parse_float(key, raw[key]) if key in raw else default

    def take_int(key: str, default: int) -> int:
        return _parse_int(key, raw[key]) if key in raw else default

    kind = raw["kind"]
    if kind not in ("ground", "satellite"):
        raise ConfigError(f"invalid value for 'kind': expected ground or satellite, got {kind!r}")

    hw = OpticalHardware(
        d_s=take_float("d_s_m", 0.2),
        d_g=take_float("d_g_m", 2.0),
        wavelength=take_float("wavelength_m", 737e-9),
    )
    try:
        link = LinkConfig(
            kind,
            d=_parse_float("d_km", raw["d_km"]),
            mu=_parse_float("mu_hz", raw["mu_hz"]),
            f0=_parse_float("f0", raw["f0"]),
            h=take_float("h_km", 400.0),
            alpha_f=take_float("alpha_db_per_km", 0.2),
            alpha_a=take_float("alpha_atm_per_km", 0.028125),
            atmosphere_ceiling=take_float("atmosphere_ceiling_km", 10.0),
            c_fiber=take_float("c_fiber_km_s", 200000.0),
            c_vacuum=take_float("c_vacuum_km_s", 299792.458),
            hw=hw,
            gate_time=take_float("gate_time_s", 0.0),
            measure_time=take_float("measure_time_s", 0.0),
        )
        noise = NoiseParams(
            p_g=take_float("p_g", 0.99),
            p_m=take_float("p_m", 0.99),
            t1=take_float("t1_s", 360.0),
            t2=take_float("t2_s", 1.0),
        )
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
        except OSError as exc:
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

    skf_mode = raw.get("skf_mode", "qber")
    if skf_mode not in ("qber", "raw"):
        raise ConfigError(f"invalid value for 'skf_mode': expected qber or raw, got {skf_mode!r}")

    trials_min = take_int("trials_min", 10_000)
    if trials_min < 100:
        raise ConfigError("invalid value for 'trials_min': must be at least 100")
    ci_target = take_float("ci_target", 0.03)
    if ci_target <= 0:
        raise ConfigError("invalid value for 'ci_target': must be positive")
    max_trials = take_int("max_trials", 0) if "max_trials" in raw else None
    if max_trials is not None and max_trials < trials_min:
        raise ConfigError("invalid value for 'max_trials': must be at least trials_min")

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
            values = _parse_values(vkey, raw[vkey], as_int=param == "n_steps")
            if param == "n_steps":
                for v in values:
                    if not 0 <= v <= 5:
                        raise ConfigError(f"invalid value for '{vkey}': steps must be in [0, 5]")
            axes.append((param, values))
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ConfigError("sweep_param and sweep_param2 must differ")

    return Config(
        link=link,
        noise=noise,
        scheme=scheme,
        protocols=protocols,
        measure_before_confirm=_parse_bool(
            "measure_before_confirm", raw.get("measure_before_confirm", "false")
        ),
        skf_mode=skf_mode,
        seed=take_int("seed", 0),
        trials_min=trials_min,
        ci_target=ci_target,
        max_trials=max_trials,
        axes=tuple(axes),
    )


def load_config(path: Union[str, Path]) -> Config:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, base_dir=p.parent)


def apply_axis(cfg: Config, param: str, value: float) -> Config:
    """A copy of cfg with one sweep parameter replaced by a grid value."""
    if param == "f0":
        return replace(cfg, link=replace(cfg.link, f0=value))
    if param == "d_km":
        return replace(cfg, link=replace(cfg.link, d=value))
    if param == "mu_hz":
        return replace(cfg, link=replace(cfg.link, mu=value))
    if param == "t2_s":
        return replace(cfg, noise=replace(cfg.noise, t2=value))
    if param == "n_steps":
        return replace(cfg, scheme=Pumping(int(value)))
    raise ConfigError(f"unknown sweep parameter {param!r}")
