"""Timed Monte Carlo simulator of entanglement purification over one link.

Werner pairs stream from a midpoint source over a fiber or satellite
channel; four delivery protocols (NOP, BASE, HOPT, OPT) trade classical
waiting against storage decoherence; estimates report fidelity, delivery
rate, and BB84 secret-key rate.
"""

from .analysis import Estimates, binary_entropy, ci_halfwidth, estimate, skf_bb84
from .channels import NoiseParams, OpticalHardware
from .config import Config, ConfigError, load_config, parse_config
from .linkmodel import LinkConfig, attempt_success_prob, link_delays
from .protocols import (
    PROTOCOL_NAMES,
    CircuitScheme,
    ProtocolKind,
    Pumping,
    TrialResult,
    expected_nop_time,
    run_trial,
    run_trials,
)
from .purify import (
    PurificationCircuit,
    dejmps_step,
    load_circuit,
    parse_circuit,
)
from .states import bell_diagonal_state, fidelity, make_werner

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "CircuitScheme",
    "Estimates",
    "LinkConfig",
    "NoiseParams",
    "OpticalHardware",
    "PROTOCOL_NAMES",
    "ProtocolKind",
    "Pumping",
    "PurificationCircuit",
    "TrialResult",
    "attempt_success_prob",
    "bell_diagonal_state",
    "binary_entropy",
    "ci_halfwidth",
    "dejmps_step",
    "estimate",
    "expected_nop_time",
    "fidelity",
    "link_delays",
    "load_circuit",
    "load_config",
    "make_werner",
    "parse_circuit",
    "parse_config",
    "run_trial",
    "run_trials",
    "skf_bb84",
    "__version__",
]
