"""Monte Carlo estimation with confidence-interval control, and BB84 key metrics.

estimate() runs trials in lockstep batches (protocols._lockstep) until the
95% CI halfwidths of both the mean fidelity and the delivery rate fall below
a relative target, then scores the trial-averaged state with the BB84
secret-key fraction. It reads the engine's delivered flat Pauli rows and
counts, with no TrialResult: the mean row becomes a density matrix once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import NoiseParams
from .linkmodel import LinkConfig
from .protocols import ProtocolKind, Scheme, _lockstep, batch_lanes
from .states import TwoQubitState, from_pauli, pauli_fidelity, to_pauli
from .streams import Streams

SKF_MODES = ("qber", "raw")


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit, with h(0) = h(1) = 0 by continuity."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def skf_bb84(rho: TwoQubitState, mode: str = "qber") -> float:
    """BB84 secret-key fraction of a delivered two-qubit state.

    The X and Z correlators theta_b = Tr(rho P(x)P), R_bb of to_pauli(rho),
    set the sifted-basis error rates. In "qber" mode (default) they enter
    as e_b = (1-theta_b)/2; in "raw" mode they feed the entropy directly,
    which zeroes the fraction below theta ~ 0.89. Both are clamped at 0.
    """
    r = to_pauli(rho)
    theta_x, theta_z = float(r[1, 1]), float(r[3, 3])
    if mode == "qber":
        h_x = binary_entropy((1.0 - theta_x) / 2.0)
        h_z = binary_entropy((1.0 - theta_z) / 2.0)
    elif mode == "raw":
        h_x = binary_entropy(min(max(theta_x, 0.0), 1.0))
        h_z = binary_entropy(min(max(theta_z, 0.0), 1.0))
    else:
        raise ValueError(f"unknown secret-key mode {mode!r}, expected one of {SKF_MODES}")
    return max(1.0 - h_x - h_z, 0.0)


def ci_halfwidth(samples) -> float:
    """Halfwidth of the normal-approximation 95% CI of the sample mean; 0.0 if all samples are equal."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    low, high = float(arr.min()), float(arr.max())
    if low == high:  # np.std of equal samples can come out a few ulps above 0
        return 0.0
    scale = max(high, -low)  # the largest magnitude
    if scale > 1e150:  # squared deviations would overflow: rescale to at most 1
        return scale * ci_halfwidth(arr / scale)
    return 1.96 * float(np.std(arr, ddof=1)) / math.sqrt(arr.size)


@dataclass(frozen=True, eq=False)  # arrays have no truth value: compare by identity
class Estimates:
    mean_fidelity: float
    rate: float  # deliveries per second
    skr: float  # secret bits per second
    ci_halfwidth_fidelity: float
    ci_halfwidth_rate: float
    n_trials: int
    mean_state: TwoQubitState
    converged: bool
    mean_pairs: float  # pairs consumed per delivery
    mean_restarts: float  # episode restarts per delivery


def _mean(samples: list) -> float:
    """The sample mean, exactly the common value when all samples are equal (np.mean may miss it by an ulp)."""
    return float(samples[0]) if min(samples) == max(samples) else float(np.mean(samples))


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def estimate(
    kind: ProtocolKind,
    scheme: Scheme,
    link: LinkConfig,
    noise: NoiseParams,
    n_min: int = 10_000,
    seed=0,
    *,
    ci_target: float = 0.03,
    max_trials: int | None = None,
    skf_mode: str = "qber",
) -> Estimates:
    """Estimate fidelity, rate, and SKR for one protocol configuration.

    Runs n_min trials, then keeps adding batches (half the current count,
    capped at max_trials, default 20x n_min) until the 95% CI halfwidth of
    both the fidelity and the rate is below ci_target of the respective
    mean. Trial i draws from a generator seeded with (*seed, i), so results
    are reproducible and independent of batching. Each batch runs through
    the lockstep engine in chunks of protocols.batch_lanes trials, so memory
    does not grow with n_min. If the cap is reached first the result is
    flagged converged=False but still reported.

    The SKR applies skf_bb84 to the trial-averaged density matrix, not to
    per-trial states, and multiplies by the delivery rate.
    """
    if n_min < 100:
        raise ValueError("n_min must be at least 100")
    if not 0.0 < ci_target:
        raise ValueError("ci_target must be positive")
    if skf_mode not in SKF_MODES:
        raise ValueError(f"unknown secret-key mode {skf_mode!r}, expected one of {SKF_MODES}")
    cap = 20 * n_min if max_trials is None else max_trials
    if cap < n_min:
        raise ValueError("max_trials must be at least n_min")

    base = _seed_tuple(seed)
    chunk = batch_lanes(kind, scheme)
    times: list[float] = []
    fids: list[float] = []
    pairs: list[int] = []
    restarts: list[int] = []
    row_sum = np.zeros(16)

    def run_batch(count: int) -> None:
        nonlocal row_sum
        start = len(times)
        for lo in range(start, start + count, chunk):
            streams = Streams(base, lo, min(lo + chunk, start + count))
            done, rows = _lockstep(kind, scheme, link, noise, streams, [None] * len(streams))
            fids.extend(pauli_fidelity(rows).tolist())
            row_sum = np.add.reduce(np.vstack((row_sum, rows)), axis=0)  # in trial order, whatever the chunk
            for t, n_pairs, _, n_restarts in done:
                times.append(t)
                pairs.append(n_pairs)
                restarts.append(n_restarts)

    def within_target() -> bool:
        mean_f = _mean(fids)
        mean_t = _mean(times)
        return (
            ci_halfwidth(fids) < ci_target * mean_f
            and ci_halfwidth(times) < ci_target * mean_t
        )

    run_batch(n_min)
    converged = within_target()
    while not converged and len(times) < cap:
        run_batch(min(math.ceil(len(times) / 2), cap - len(times)))
        converged = within_target()

    n = len(times)
    mean_t = _mean(times)
    ci_t = ci_halfwidth(times)
    rate = 1.0 / mean_t
    mean_state = from_pauli(row_sum / n)
    return Estimates(
        mean_fidelity=_mean(fids),
        rate=rate,
        skr=skf_bb84(mean_state, skf_mode) * rate,
        ci_halfwidth_fidelity=ci_halfwidth(fids),
        ci_halfwidth_rate=rate * (ci_t / mean_t),
        n_trials=n,
        mean_state=mean_state,
        converged=converged,
        mean_pairs=float(np.mean(pairs)),
        mean_restarts=float(np.mean(restarts)),
    )
