"""End-to-end acceptance gates for the purified-link simulator.

Each test covers one numbered criterion and prints a single pass/fail line
with the measured quantities; tolerances are pinned in the assertions.
These are integration-level checks, so they run Monte Carlo batches and
take a couple of minutes together.
"""

import math
import time

import numpy as np

from purlink.analysis import estimate
from purlink.channels import (
    CNOT,
    NoiseParams,
    OpticalHardware,
    diffraction_efficiency,
    fiber_transmissivity,
)
from purlink.cli import HEATMAP_HEADER, main
from purlink.linkmodel import LinkConfig, slant_geometry
from purlink.protocols import (
    BASE,
    HOPT,
    NOP,
    OPT,
    Pumping,
    ProtocolKind,
    expected_nop_time,
    run_trial,
)
from purlink.purify import dejmps_step
from purlink.states import BellCoeffs, bell_diagonal_state, make_werner

from dense_oracle import PairRegister, amplitude_damp, bell_recurrence_oracle, decohere, dephase, depolarize_gate

NOISELESS = NoiseParams(p_g=1.0, p_m=1.0, t1=math.inf, t2=math.inf)
PAIR0 = ((0, "A"), (0, "B"))


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


class QueuedU:
    def __init__(self, *vals):
        self._vals = list(vals)

    def random(self):
        return self._vals.pop(0)


def success_conditioned(main_state, sac_state):
    """Noiseless step's success branch, reconstructed from forced outcomes."""
    pp = dejmps_step(main_state, sac_state, NOISELESS, QueuedU(0.0, 0.0))
    mm = dejmps_step(main_state, sac_state, NOISELESS, QueuedU(1 - 1e-12, 1 - 1e-12))
    p_succ = pp.branch_prob + mm.branch_prob
    state = (pp.branch_prob * pp.post_state + mm.branch_prob * mm.post_state) / p_succ
    return state, p_succ


def test_criterion_01_step_matches_recurrence_oracle():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        main = BellCoeffs(*rng.dirichlet(np.ones(4)))
        sac = BellCoeffs(*rng.dirichlet(np.ones(4)))
        state, p = success_conditioned(bell_diagonal_state(main), bell_diagonal_state(sac))
        want, p_want = bell_recurrence_oracle(main, sac)
        worst = max(
            worst,
            float(np.abs(state - bell_diagonal_state(want)).max()),
            abs(p - p_want),
        )
    w = BellCoeffs(0.9, 1 / 30, 1 / 30, 1 / 30)  # Werner 0.9
    post, p = bell_recurrence_oracle(w, w)
    elapsed = time.time() - t0
    ok = worst < 1e-10 and abs(post.a - 0.926396) < 5e-7 and abs(p - 0.875556) < 5e-7 and elapsed < 1.0
    report(1, ok, f"max dev {worst:.2e}, F'={post.a:.6f}, p={p:.6f}, {elapsed:.2f}s")


def choi_is_cptp(channel, dim: int, tol: float = 1e-10) -> bool:
    j = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for k in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, k] = 1.0
            proj = np.zeros((dim, dim), dtype=complex)
            proj[i, k] = 1.0
            j += np.kron(channel(unit), proj)
    eigs = np.linalg.eigvalsh((j + j.conj().T) / 2.0)
    traced = np.einsum("aiak->ik", j.reshape(dim, dim, dim, dim))
    return eigs.min() > -tol and np.abs(traced - np.eye(dim)).max() < tol


def test_criterion_02_channels_and_link_budget():
    reg2 = lambda rho: PairRegister(rho, PAIR0)
    channels = [
        (lambda m: depolarize_gate(reg2(m), CNOT, (0, 1), 0.99).rho, 4),
        (lambda m: amplitude_damp(reg2(m), 0, 0.3, 1.0).rho, 4),
        (lambda m: dephase(reg2(m), 1, 0.2, 2.0, 1.0).rho, 4),
        (lambda m: decohere(reg2(m), (0, 1), 0.5, NoiseParams(0.99, 0.99, 3.0, 1.5)).rho, 4),
    ]
    all_cptp = all(choi_is_cptp(ch, dim, tol=1e-10) for ch, dim in channels)

    eta_f = fiber_transmissivity(20.0, 0.2)
    fiber_ok = abs(eta_f - 10 ** (-0.4)) < 1e-9 and round(eta_f, 6) == 0.398107

    sat = LinkConfig("satellite", d=500.0, mu=1e9, f0=0.9)
    eta_o = diffraction_efficiency(slant_geometry(sat).slant_range, OpticalHardware())
    optics_ok = abs(eta_o - 0.81665) < 1e-4

    ok = all_cptp and fiber_ok and optics_ok
    report(2, ok, f"CPTP={all_cptp}, fiber={eta_f:.9f}, eta_o={eta_o:.6f}")


def test_criterion_03_delivery_time_closed_form():
    # attenuation chosen so the per-attempt success lands on each target p
    alphas = {0.1: 0.5, 0.5: 10 * math.log10(2) / 20, 1.0: 0.0}
    noise = NOISELESS
    fails = []
    for p, alpha in alphas.items():
        link = LinkConfig("ground", d=20.0, mu=1e6, f0=0.9, alpha_f=alpha)
        n = 10_000
        times = np.empty(n)
        for i in range(n):
            rng = np.random.default_rng((103, i))
            times[i] = run_trial(NOP, Pumping(0), link, noise, rng).completion_time
        want = expected_nop_time(link)
        period = 1.0 / link.mu
        sigma_mean = period * math.sqrt(1.0 - p) / p / math.sqrt(n)
        dev = abs(float(times.mean()) - want)
        if p == 1.0:
            if dev != 0.0:
                fails.append(f"p=1 dev={dev}")
        elif dev > 3.0 * sigma_mean:
            fails.append(f"p={p} dev={dev:.3e} > 3sigma={3 * sigma_mean:.3e}")
    report(3, not fails, "; ".join(fails) or "all three p within 3 sigma")


def test_criterion_04_ground_gigahertz_ordering():
    link = LinkConfig("ground", d=20.0, mu=1e9, f0=0.9)
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=360.0, t2=1e-3)
    est = {}
    for kind, n in ((NOP, 0), (BASE, 5), (HOPT, 5), (OPT, 5)):
        est[kind.name] = estimate(
            kind, Pumping(n), link, noise, n_min=10_000, seed=(41, 0), max_trials=10_000
        )
    f = {k: e.mean_fidelity for k, e in est.items()}
    r = {k: e.rate for k, e in est.items()}
    ci_ok = all(
        e.ci_halfwidth_fidelity < 0.03 * e.mean_fidelity
        and e.ci_halfwidth_rate < 0.03 * e.rate
        for e in est.values()
    )
    clauses = {
        "CI<3%": ci_ok,
        "F(OPT)>F(NOP)": f["OPT"] > f["NOP"],
        "F(OPT)>F(BASE)": f["OPT"] > f["BASE"],
        "F(HOPT)<F(NOP)": f["HOPT"] < f["NOP"],
        "rate(OPT)<rate(HOPT)": r["OPT"] < r["HOPT"],
        "rate(HOPT)<=rate(BASE)": r["HOPT"] <= r["BASE"],
        "rate(BASE)<rate(NOP)": r["BASE"] < r["NOP"],
    }
    bad = [name for name, ok in clauses.items() if not ok]
    detail = (
        f"F={{ {', '.join(f'{k}:{v:.4f}' for k, v in f.items())} }}, "
        f"rate={{ {', '.join(f'{k}:{v:.1f}' for k, v in r.items())} }}"
        + (f"; violated: {', '.join(bad)}" if bad else "")
    )
    report(4, not bad, detail)


def test_criterion_05_best_fidelity_convergence():
    link = LinkConfig("ground", d=20.0, mu=1e9, f0=0.9)
    spreads = {}
    for t2 in (0.1, 1.0):
        noise = NoiseParams(p_g=0.99, p_m=0.99, t1=360.0, t2=t2)
        bests = []
        for kind in (BASE, HOPT, OPT):
            fs = [
                estimate(
                    kind, Pumping(n), link, noise, n_min=2000, seed=(51, n), max_trials=2000
                ).mean_fidelity
                for n in range(6)
            ]
            bests.append(max(fs))
        spreads[t2] = max(bests) - min(bests)
    ok = all(s < 0.01 for s in spreads.values())
    report(5, ok, ", ".join(f"T2={t2}s spread={s:.5f}" for t2, s in spreads.items()))


def test_criterion_06_emission_rate_saturation():
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=360.0, t2=1e-3)
    gains = {}
    for kind in (NOP, BASE, HOPT, OPT):
        n = 0 if kind.name == "NOP" else 2
        f_at = {}
        for mu in (1e6, 1e9):
            link = LinkConfig("ground", d=20.0, mu=mu, f0=0.9)
            f_at[mu] = estimate(
                kind, Pumping(n), link, noise, n_min=4000, seed=(61,), max_trials=4000
            ).mean_fidelity
        gains[kind.name] = abs(f_at[1e9] - f_at[1e6])
    ok = all(g < 0.01 for g in gains.values())
    report(6, ok, ", ".join(f"{k}:{g:.5f}" for k, g in gains.items()))


def test_criterion_07_satellite_ordering():
    link = LinkConfig("satellite", d=500.0, mu=1e9, f0=0.9)
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=360.0, t2=1e-2)
    fid, rate = {}, {}
    for mbc in (False, True):
        for name in ("NOP", "BASE", "HOPT", "OPT"):
            kind = ProtocolKind(name, measure_before_confirm=mbc)
            n = 0 if name == "NOP" else 2
            e = estimate(kind, Pumping(n), link, noise, n_min=2500, seed=(71,), max_trials=2500)
            fid[(name, mbc)], rate[(name, mbc)] = e.mean_fidelity, e.rate
    f = {n: fid[(n, False)] for n in ("NOP", "BASE", "HOPT", "OPT")}
    clauses = {
        "F(OPT) highest": all(f["OPT"] > f[o] for o in ("NOP", "BASE", "HOPT")),
        "F(BASE)<F(NOP)": f["BASE"] < f["NOP"],
        "F(HOPT)<F(NOP)": f["HOPT"] < f["NOP"],
        "filtering raises every rate": all(
            rate[(n, True)] > rate[(n, False)] for n in ("NOP", "BASE", "HOPT", "OPT")
        ),
        "filtered OPT outpaces BASE": rate[("OPT", True)] > rate[("BASE", True)],
        "filtered OPT outpaces HOPT": rate[("OPT", True)] > rate[("HOPT", True)],
    }
    bad = [name for name, ok in clauses.items() if not ok]
    detail = (
        f"F={{ {', '.join(f'{k}:{v:.4f}' for k, v in f.items())} }}, "
        f"filtered rates OPT={rate[('OPT', True)]:.1f} BASE={rate[('BASE', True)]:.1f} "
        f"HOPT={rate[('HOPT', True)]:.1f}"
        + (f"; violated: {', '.join(bad)}" if bad else "")
    )
    report(7, not bad, detail)


HEATMAP_CFG = """kind = ground
d_km = 20
mu_hz = {mu}
f0 = 0.9
n_steps = 2
skf_mode = raw
seed = 81
trials_min = 1500
max_trials = 3000
sweep_param = f0
sweep_values = 0.75, 0.80, 0.85, 0.90
sweep_param2 = t2_s
sweep_values2 = 0.001, 0.01, 0.1
"""


def run_heatmap(tmp_path, mu: str):
    cfg = tmp_path / f"hm_{mu}.cfg"
    cfg.write_text(HEATMAP_CFG.format(mu=mu))
    out = tmp_path / f"hm_{mu}.csv"
    assert main(["heatmap", str(cfg), str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == HEATMAP_HEADER
    return [row.split(",") for row in lines[1:]]


def test_criterion_08_best_protocol_heatmap(tmp_path):
    rows_mhz = run_heatmap(tmp_path, "1e6")
    positive = [r for r in rows_mhz if float(r[3]) > 0.0]
    opt_everywhere = bool(positive) and all(r[2] == "OPT" for r in positive)

    rows_khz = run_heatmap(tmp_path, "1e3")
    na_cells = [(float(r[0]), float(r[1])) for r in rows_khz if r[2] == "N/A"]
    corner_na = (0.75, 0.001) in na_cells

    ok = opt_everywhere and corner_na
    report(
        8,
        ok,
        f"1 MHz: {len(positive)} positive cells, all OPT={opt_everywhere}; "
        f"1 kHz: {len(na_cells)} N/A cells incl. lowest corner={corner_na}",
    )


def test_criterion_09_coupled_dominance():
    link = LinkConfig("ground", d=20.0, mu=1e6, f0=0.9, alpha_f=0.0)
    noise = NoiseParams(p_g=0.99, p_m=0.99, t1=math.inf, t2=math.inf)
    violations = 0
    for i in range(1000):
        t = {}
        for kind in (BASE, HOPT, OPT):
            rng = np.random.default_rng((1234, i))
            t[kind.name] = run_trial(kind, Pumping(3), link, noise, rng).completion_time
        if not t["OPT"] <= t["HOPT"] <= t["BASE"]:
            violations += 1
    report(9, violations == 0, f"{violations} violations in 1000 paired trials")


def test_criterion_10_deterministic_csv(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "kind = ground\nd_km = 20\nmu_hz = 1e6\nf0 = 0.9\n"
        "seed = 5\ntrials_min = 120\nmax_trials = 120\n"
        "sweep_param = n_steps\nsweep_values = 0, 2\n"
    )
    outputs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
        out = tmp_path / name
        assert main(["sweep", str(cfg), str(out), "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, ok, f"{len(outputs[0])} bytes, rerun identical={outputs[0] == outputs[1]}, "
                   f"threaded identical={outputs[0] == outputs[2]}")
