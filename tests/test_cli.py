"""Config grammar, CSV output, exit codes, and reproducibility of the CLI."""

import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from purlink.cli import HEATMAP_HEADER, SWEEP_HEADER, main
from purlink.config import (
    SWEEPABLE,
    ConfigError,
    apply_axis,
    load_config,
    parse_config,
)
from purlink.protocols import PROTOCOL_NAMES, CircuitScheme, Pumping

MINIMAL = "kind = ground\nd_km = 20\nmu_hz = 1e6\nf0 = 0.9\n"

# lossless, tiny trial budget: keeps every CLI invocation fast
FAST = (
    MINIMAL
    + "alpha_db_per_km = 0.0\n"
    + "trials_min = 100\nmax_trials = 100\nseed = 7\n"
)

DEJMPS_TEXT = """PAIRS 2
ROT 0
ROT 1
GATE CNOT 0 1
MEASURE 1 BASIS Z KEEP equal
"""


def cfg_file(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config grammar ---


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.link.kind == "ground"
    assert cfg.link.d == 20.0
    assert cfg.link.mu == 1e6
    assert cfg.link.f0 == 0.9
    assert cfg.protocols == PROTOCOL_NAMES
    assert cfg.scheme == Pumping(1)
    assert cfg.skf_mode == "qber"
    assert cfg.seed == 0
    assert cfg.trials_min == 10_000
    assert cfg.ci_target == 0.03
    assert cfg.max_trials is None
    assert cfg.measure_before_confirm is False
    assert cfg.axes == ()
    assert cfg.noise.p_g == 0.99 and cfg.noise.t2 == 1.0


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\nkind = ground  # trailing\nd_km = 20\nmu_hz = 1e6\nf0 = 0.9\n"
    assert parse_config(text).link.d == 20.0


@pytest.mark.parametrize(
    "text,needle",
    [
        (MINIMAL + "bogus_key = 3\n", "unknown key 'bogus_key'"),
        (MINIMAL + "f0 = 0.8\n", "duplicate key 'f0'"),
        ("kind = ground\nmu_hz = 1e6\nf0 = 0.9\n", "missing required key 'd_km'"),
        (MINIMAL + "just a line\n", "expected key = value"),
        (MINIMAL + "p_g =\n", "empty value for 'p_g'"),
        (MINIMAL.replace("ground", "aerial"), "expected ground or satellite"),
        (MINIMAL.replace("f0 = 0.9", "f0 = 1.5"), "f0"),
        (MINIMAL.replace("mu_hz = 1e6", "mu_hz = fast"), "invalid value for 'mu_hz'"),
        (MINIMAL + "n_steps = 6\n", "n_steps"),
        (MINIMAL + "t1_s = 1.0\nt2_s = 3.0\n", "t2"),
        (MINIMAL + "protocols = OPT, OPT\n", "duplicate protocol"),
        (MINIMAL + "protocols = OPT, TURBO\n", "unknown protocol 'TURBO'"),
        (MINIMAL + "skf_mode = fancy\n", "skf_mode"),
        (MINIMAL + "trials_min = 99\n", "trials_min"),
        (MINIMAL + "ci_target = 0\n", "ci_target"),
        (MINIMAL + "trials_min = 200\nmax_trials = 150\n", "max_trials"),
        (MINIMAL + "sweep_param = f0\n", "must be given together"),
        (MINIMAL + "sweep_param = p_g\nsweep_values = 0.9, 0.95\n", "not sweepable"),
        (MINIMAL + "sweep_param = f0\nsweep_values = 0.8, 0.9, 0.85\n", "strictly monotone"),
        (
            MINIMAL
            + "sweep_param = f0\nsweep_values = 0.8, 0.9\n"
            + "sweep_param2 = f0\nsweep_values2 = 0.7, 0.75\n",
            "must differ",
        ),
        (MINIMAL + "sweep_param = n_steps\nsweep_values = 0, 6\n", "steps must be in [0, 5]"),
        (MINIMAL + "measure_before_confirm = yep\n", "expected true or false"),
    ],
)
def test_config_errors_name_the_key(text, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert needle in str(err.value)


def test_circuit_and_n_steps_exclusive(tmp_path):
    circ = tmp_path / "d.circuit"
    circ.write_text(DEJMPS_TEXT)
    text = MINIMAL + f"circuit = {circ}\nn_steps = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "mutually exclusive" in str(err.value)


def test_circuit_relative_path_resolves_against_config_dir(tmp_path):
    (tmp_path / "d.circuit").write_text(DEJMPS_TEXT)
    path = cfg_file(tmp_path, MINIMAL + "circuit = d.circuit\n")
    cfg = load_config(path)
    assert isinstance(cfg.scheme, CircuitScheme)
    assert cfg.scheme.circuit.num_pairs == 2


def test_missing_circuit_file(tmp_path):
    path = cfg_file(tmp_path, MINIMAL + "circuit = nowhere.circuit\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "circuit" in str(err.value)
    # a circuit file that is not UTF-8 is unreadable too
    (tmp_path / "binary.circuit").write_bytes(b"PAIRS 2\n\xff\n")
    path = cfg_file(tmp_path, MINIMAL + "circuit = binary.circuit\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "circuit" in str(err.value)


@pytest.mark.parametrize(
    "line", ["PAIRS \u00b2", "ROT \u00b2", "GATE CNOT 0 \u00b2", "MEASURE \u00b2 BASIS Z KEEP equal"]
)
def test_non_decimal_circuit_digits_are_config_errors(tmp_path, capsys, line):
    text = line + "\n" if line.startswith("PAIRS") else "PAIRS 2\n" + line + "\n"
    (tmp_path / "bad.circuit").write_text(text, encoding="utf-8")
    assert main(["simulate", cfg_file(tmp_path, FAST + "circuit = bad.circuit\n")]) == 2
    assert f"line {text.count(chr(10))}:" in capsys.readouterr().err


def test_n_steps_sweep_rejected_for_circuit_scheme(tmp_path):
    (tmp_path / "d.circuit").write_text(DEJMPS_TEXT)
    text = MINIMAL + "circuit = d.circuit\nsweep_param = n_steps\nsweep_values = 0, 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    assert "cannot sweep 'n_steps'" in str(err.value)


def test_sweep_axes_parse_in_order():
    text = (
        MINIMAL
        + "sweep_param = f0\nsweep_values = 0.8, 0.85, 0.9\n"
        + "sweep_param2 = t2_s\nsweep_values2 = 1.0, 0.1\n"
    )
    cfg = parse_config(text)
    assert cfg.axes == (("f0", (0.8, 0.85, 0.9)), ("t2_s", (1.0, 0.1)))


def test_apply_axis_covers_every_sweepable():
    cfg = parse_config(MINIMAL)
    assert apply_axis(cfg, "f0", 0.8).link.f0 == 0.8
    assert apply_axis(cfg, "d_km", 50.0).link.d == 50.0
    assert apply_axis(cfg, "mu_hz", 1e3).link.mu == 1e3
    assert apply_axis(cfg, "t2_s", 0.5).noise.t2 == 0.5
    assert apply_axis(cfg, "n_steps", 3).scheme == Pumping(3)
    with pytest.raises(ConfigError):
        apply_axis(cfg, "p_g", 0.9)
    assert set(SWEEPABLE) == {"f0", "t2_s", "mu_hz", "d_km", "n_steps"}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


# --- exit codes ---


def test_exit_codes(tmp_path, capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["--help"]) == 0  # argparse exits 0; main maps it through
    assert main(["simulate", str(tmp_path / "absent.cfg")]) == 2
    (tmp_path / "binary.cfg").write_bytes(b"kind = ground\n\xff\n")
    assert main(["simulate", str(tmp_path / "binary.cfg")]) == 2
    capsys.readouterr()


def fresh_python(*args):
    """Run a fresh interpreter that imports purlink from this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    path = cfg_file(tmp_path, FAST + "protocols = NOP,BASE\n")
    done = fresh_python("-m", "purlink", "simulate", path)
    assert main(["simulate", path]) == 0
    assert done.stdout == capsys.readouterr().out


def test_serial_run_never_imports_the_pool(tmp_path):
    # a fresh interpreter, since the test session may have loaded the pool
    path = cfg_file(tmp_path, FAST + "protocols = NOP,BASE\n")
    script = (
        "import sys\n"
        "from purlink.cli import main\n"
        f"assert main(['simulate', {path!r}, '--threads', '1']) == 0\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    assert fresh_python("-c", script).stdout.splitlines()[-1] == "[]"


def test_cli_never_imports_numpy_random(tmp_path):
    # trials draw from purlink.streams: simulate, sweep and heatmap, each
    # with its traced trial, leave numpy.random unloaded
    sim = cfg_file(tmp_path, FAST + "protocols = NOP,BASE\n", "sim.cfg")
    sweep = cfg_file(tmp_path, FAST + "sweep_param = n_steps\nsweep_values = 1, 2\n", "sweep.cfg")
    heat = cfg_file(tmp_path, FAST + "sweep_param = f0\nsweep_values = 0.85, 0.9\n"
                    "sweep_param2 = t2_s\nsweep_values2 = 0.01, 1\n", "heat.cfg")
    log, csv = str(tmp_path / "events.log"), str(tmp_path / "out.csv")
    script = (
        "import sys\n"
        "from purlink.cli import main\n"
        f"assert main(['simulate', {sim!r}, '--threads', '1', '--events-log', {log!r}]) == 0\n"
        f"assert main(['sweep', {sweep!r}, {csv!r}, '--threads', '1', '--events-log', {log!r}]) == 0\n"
        f"assert main(['heatmap', {heat!r}, {csv!r}, '--threads', '1', '--events-log', {log!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert fresh_python("-c", script).stdout.splitlines()[-1] == "False"


def test_cli_freezes_the_collector_at_exit(tmp_path):
    # atexit runs last in, first out: the observer, registered before the
    # CLI is imported, sees the interpreter after purlink's exit hook ran
    path = cfg_file(tmp_path, FAST + "protocols = NOP,BASE\n")
    script = (
        "import atexit, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "from purlink.cli import main\n"
        f"assert main(['simulate', {path!r}, '--threads', '1']) == 0\n"
    )
    assert fresh_python("-c", script).stdout.splitlines()[-1] == "True"


def with_key(text, key, value):
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() != key]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize(
    "key,value",
    [
        ("mu_hz", "nan"),
        ("gate_time_s", "nan"),
        ("c_fiber_km_s", "nan"),
        ("d_km", "nan"),
        ("ci_target", "nan"),
        ("t2_s", "nan"),
        ("mu_hz", "inf"),
        ("gate_time_s", "inf"),
        ("measure_time_s", "inf"),
        ("seed", "-3"),
    ],
)
def test_non_finite_numbers_and_negative_seed_are_config_errors(tmp_path, capsys, key, value):
    path = cfg_file(tmp_path, with_key(FAST + "protocols = BASE\n", key, value))
    assert main(["simulate", path]) == 2
    assert f"invalid value for '{key}'" in capsys.readouterr().err


def test_slow_source_reports_a_finite_rate_ci(tmp_path):
    # completion times near 1e300 s, whose squared deviations overflow a float
    text = "kind = ground\nd_km = 20\nmu_hz = 1e-299\nf0 = 0.9\nprotocols = BASE,OPT\ntrials_min = 100\nmax_trials = 200\n"
    done = fresh_python("-m", "purlink", "simulate", cfg_file(tmp_path, text))
    assert done.stderr == ""
    for row in done.stdout.splitlines()[1:]:
        rate, rate_ci = (float(x) for x in row.split()[3:5])
        assert 0.0 < rate_ci < rate


def test_infinite_memory_times_still_parse():
    cfg = parse_config(MINIMAL + "t1_s = inf\nt2_s = inf\n")
    assert cfg.noise.t1 == cfg.noise.t2 == math.inf
    swept = parse_config(MINIMAL + "t1_s = inf\nsweep_param = t2_s\nsweep_values = 1.0, inf\n")
    assert swept.axes == (("t2_s", (1.0, math.inf)),)


@pytest.mark.parametrize(
    "axes,key",
    [
        ("sweep_param = f0\nsweep_values = 0.2, 0.9\n", "sweep_values"),
        ("sweep_param = d_km\nsweep_values = 10, -5\n", "sweep_values"),
        ("t1_s = 1.0\nsweep_param = t2_s\nsweep_values = 1.0, 3.0\n", "sweep_values"),
        (
            "sweep_param = f0\nsweep_values = 0.8, 0.9\n"
            "sweep_param2 = mu_hz\nsweep_values2 = 1e6, 0\n",
            "sweep_values2",
        ),
        ("sweep_param = mu_hz\nsweep_values = nan\n", "sweep_values"),
        ("sweep_param = mu_hz\nsweep_values = inf\n", "sweep_values"),
    ],
    ids=["f0", "d_km", "t2_above_2t1", "mu_hz_second_axis", "mu_hz_nan", "mu_hz_inf"],
)
def test_out_of_domain_sweep_values_are_config_errors(tmp_path, capsys, axes, key):
    path = cfg_file(tmp_path, FAST + "protocols = NOP\nn_steps = 0\n" + axes)
    assert main(["sweep", path, str(tmp_path / "out.csv")]) == 2
    assert f"invalid value for '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "link,keys",
    [
        # p = 0.056 per photon: OPT's episode of six pairs needs ~1.7e9 restarts
        (
            "kind = ground\nd_km = 50\nmu_hz = 1e9\nf0 = 0.9\nalpha_db_per_km = 0.5\nn_steps = 5\n",
            ("d_km", "alpha_db_per_km"),
        ),
        # p = 1e-100: not one pair in any feasible number of ticks
        ("kind = ground\nd_km = 1e4\nmu_hz = 1e9\nf0 = 0.9\n", ("d_km", "alpha_db_per_km")),
        # the source period 1/mu is inf
        ("kind = ground\nd_km = 20\nmu_hz = 1e-320\nf0 = 0.9\n", ("mu_hz", "c_fiber_km_s")),
        # the period is finite, but a second tick is not
        ("kind = ground\nd_km = 20\nmu_hz = 1e-308\nf0 = 0.9\n", ("mu_hz", "c_fiber_km_s")),
        # the herald d / c is inf
        ("kind = ground\nd_km = 20\nmu_hz = 1e6\nf0 = 0.9\nc_fiber_km_s = 1e-310\n", ("mu_hz", "c_fiber_km_s")),
        # the herald is a finite 2e301 s, but restarts overflow it
        ("kind = ground\nd_km = 20\nmu_hz = 1e6\nf0 = 0.9\nc_fiber_km_s = 1e-300\n", ("mu_hz", "c_fiber_km_s")),
        # a gate of 1e317 source periods
        (
            "kind = ground\nd_km = 20\nmu_hz = 1e9\nf0 = 0.9\ngate_time_s = 1e308\nprotocols = BASE\nn_steps = 2\n",
            ("gate_time_s", "measure_time_s"),
        ),
        # blind OPT's round stride, measurement time / period, is inf
        (
            "kind = ground\nd_km = 20\nmu_hz = 1e9\nf0 = 0.9\nmeasure_time_s = 1e300\nprotocols = OPT\n"
            "measure_before_confirm = true\nn_steps = 1\n",
            ("gate_time_s", "measure_time_s"),
        ),
    ],
    ids=[
        "opt_restarts", "no_photon", "infinite_period", "period_overflows", "infinite_herald", "herald_overflows",
        "gate_overflows", "blind_stride_overflows",
    ],
)
def test_links_that_cannot_deliver_are_config_errors(tmp_path, capsys, link, keys):
    assert main(["simulate", cfg_file(tmp_path, link)]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys)


def test_delivery_bound_follows_protocol_and_grid(tmp_path, capsys):
    lossy = "kind = ground\nd_km = 50\nmu_hz = 1e9\nf0 = 0.9\nalpha_db_per_km = 0.5\nn_steps = 5\n"
    # only OPT on the timed engine pays for restarts; blind OPT skips lost rounds
    parse_config(lossy + "protocols = NOP,BASE,HOPT\n")
    parse_config(lossy + "measure_before_confirm = true\n")
    # so a heatmap, which runs every protocol blind, runs where simulate cannot
    assert main(["simulate", cfg_file(tmp_path, lossy, "lossy.cfg")]) == 2
    heat = lossy + (
        "trials_min = 100\nmax_trials = 100\n"
        "sweep_param = f0\nsweep_values = 0.85, 0.9\nsweep_param2 = t2_s\nsweep_values2 = 0.1\n"
    )
    assert main(["heatmap", cfg_file(tmp_path, heat, "heat.cfg"), str(tmp_path / "heat.csv")]) == 0
    assert len((tmp_path / "heat.csv").read_text().splitlines()) == 3
    capsys.readouterr()
    # where only OPT's restart bound binds, mbc spares pumping (blind) but
    # not a circuit, and bare-pair OPT under mbc is raw delivery
    steep = (
        "kind = ground\nd_km = 50\nmu_hz = 1e9\nf0 = 0.9\nalpha_db_per_km = 0.62\n"
        "protocols = OPT\nmeasure_before_confirm = true\n"
    )
    optimized5 = resources.files("purlink") / "circuits" / "optimized5.circuit"
    with pytest.raises(ConfigError, match="bounded time"):
        parse_config(steep + f"circuit = {optimized5}\n")
    parse_config(steep + "n_steps = 4\n")
    parse_config(steep + "n_steps = 0\n")
    # one unbounded grid point rejects the whole sweep
    text = MINIMAL + (
        "trials_min = 100\nmax_trials = 100\nprotocols = NOP\nn_steps = 0\n"
        "sweep_param = d_km\nsweep_values = 20, 1e4\n"
    )
    assert main(["sweep", cfg_file(tmp_path, text), str(tmp_path / "out.csv")]) == 2
    assert "d_km = 10000.0" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_simulate_rejects_sweep_axes(tmp_path, capsys):
    path = cfg_file(tmp_path, FAST + "sweep_param = f0\nsweep_values = 0.8, 0.9\n")
    assert main(["simulate", path]) == 2
    assert "sweep" in capsys.readouterr().err


def test_sweep_requires_axes(tmp_path, capsys):
    path = cfg_file(tmp_path, FAST)
    assert main(["sweep", path, str(tmp_path / "out.csv")]) == 2
    assert "sweep_param" in capsys.readouterr().err


def test_heatmap_requires_f0_t2_axes(tmp_path, capsys):
    text = FAST + "sweep_param = f0\nsweep_values = 0.8, 0.9\n"
    path = cfg_file(tmp_path, text)
    assert main(["heatmap", path, str(tmp_path / "out.csv")]) == 2
    assert "t2_s" in capsys.readouterr().err


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    text = FAST + "protocols = NOP\nn_steps = 0\nsweep_param = f0\nsweep_values = 0.8, 0.9\n"
    path = cfg_file(tmp_path, text)
    assert main(["sweep", path, str(tmp_path / "no" / "dir" / "out.csv")]) == 3
    assert "runtime error" in capsys.readouterr().err


def test_flag_overrides_validate(tmp_path, capsys):
    path = cfg_file(tmp_path, FAST + "protocols = NOP\nn_steps = 0\n")
    assert main(["simulate", path, "--trials-min", "50"]) == 2
    assert main(["simulate", path, "--ci-target", "-1"]) == 2
    assert main(["simulate", path, "--ci-target", "nan"]) == 2
    assert main(["simulate", path, "--max-trials", "50"]) == 2
    # the config's max_trials = 100 no longer covers the raised minimum
    assert main(["simulate", path, "--trials-min", "200"]) == 2
    capsys.readouterr()
    for extra in ((), ("--threads", "2")):
        assert main(["simulate", path, "--seed", "-2", *extra]) == 2
        assert "invalid value for 'seed'" in capsys.readouterr().err
    # flags replace the file's values before they are checked
    low = cfg_file(tmp_path, with_key(FAST + "protocols = NOP\nn_steps = 0\n", "trials_min", "50"), "low.cfg")
    assert main(["simulate", low, "--trials-min", "200", "--max-trials", "200"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[6] == "200"


# --- simulate ---


def test_simulate_prints_one_row_per_protocol(tmp_path, capsys):
    path = cfg_file(tmp_path, FAST + "protocols = NOP, OPT\nn_steps = 1\n")
    assert main(["simulate", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("protocol fidelity")
    assert len(out) == 3
    assert out[1].split()[0] == "NOP"
    assert out[2].split()[0] == "OPT"
    fields = out[2].split()
    assert float(fields[1]) > 0.25  # fidelity
    assert float(fields[3]) > 0.0  # rate
    assert int(fields[7 - 1]) >= 100  # n_trials


def test_simulate_stdout_deterministic(tmp_path, capsys):
    path = cfg_file(tmp_path, FAST + "protocols = BASE\nn_steps = 2\n")
    assert main(["simulate", path]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", path]) == 0
    assert capsys.readouterr().out == first


def test_simulate_seed_flag_changes_the_stream(tmp_path, capsys):
    path = cfg_file(tmp_path, MINIMAL + "protocols = BASE\ntrials_min = 100\nmax_trials = 100\n")
    assert main(["simulate", path, "--seed", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["simulate", path, "--seed", "2"]) == 0
    assert capsys.readouterr().out != one


# --- sweep CSV ---


def sweep_csv(tmp_path, text, name="out.csv", extra=()):
    path = cfg_file(tmp_path, text)
    out = tmp_path / name
    rc = main(["sweep", path, str(out), *extra])
    assert rc == 0
    return out.read_text()


def test_sweep_csv_shape_and_header(tmp_path):
    text = FAST + "sweep_param = n_steps\nsweep_values = 0, 1, 2\n"
    body = sweep_csv(tmp_path, text)
    lines = body.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 3 * 4  # 3 grid points x 4 protocols
    row = lines[1].split(",")
    assert row[0] == "NOP"
    assert row[1] == repr(0.9)
    assert row[5] == "0"
    assert int(row[11]) >= 100
    # grid order: first axis slowest, protocols innermost in canonical order
    assert [r.split(",")[0] for r in lines[1:6]] == ["NOP", "BASE", "HOPT", "OPT", "NOP"]
    assert [r.split(",")[5] for r in lines[1::4]] == ["0", "1", "2"]


def test_sweep_two_axes_cross_product(tmp_path):
    text = (
        FAST + "protocols = OPT\n"
        + "sweep_param = f0\nsweep_values = 0.8, 0.9\n"
        + "sweep_param2 = t2_s\nsweep_values2 = 1.0, 0.01\n"
    )
    lines = sweep_csv(tmp_path, text).splitlines()
    assert len(lines) == 1 + 4
    cells = [(r.split(",")[1], r.split(",")[2]) for r in lines[1:]]
    assert cells == [
        (repr(0.8), repr(1.0)),
        (repr(0.8), repr(0.01)),
        (repr(0.9), repr(1.0)),
        (repr(0.9), repr(0.01)),
    ]


def test_sweep_csv_byte_identical_across_runs_and_threads(tmp_path, capsys):
    text = MINIMAL + (
        "trials_min = 120\nmax_trials = 120\nseed = 5\n"
        "sweep_param = n_steps\nsweep_values = 0, 2\n"
    )
    first = sweep_csv(tmp_path, text, "a.csv")
    again = sweep_csv(tmp_path, text, "b.csv")
    threaded = sweep_csv(tmp_path, text, "c.csv", extra=("--threads", "3"))
    assert first == again
    assert first == threaded
    # heatmap and simulate run their cells through the same grid runner
    heat = cfg_file(tmp_path, FAST + (
        "sweep_param = f0\nsweep_values = 0.85, 0.9\nsweep_param2 = t2_s\nsweep_values2 = 0.1\n"
    ), "heat.cfg")
    maps = []
    for threads in ("1", "2"):
        out = tmp_path / f"heat{threads}.csv"
        assert main(["heatmap", heat, str(out), "--threads", threads]) == 0
        maps.append(out.read_bytes())
    assert maps[0] == maps[1]
    single = cfg_file(tmp_path, FAST, "single.cfg")
    tables = []
    for threads in ("1", "2"):
        assert main(["simulate", single, "--threads", threads]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_pool_leaves_blas_thread_variables_as_found(tmp_path, monkeypatch):
    # the pool sets no BLAS thread variable: the environment is left as found,
    # whichever of them the caller set
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    before = dict(os.environ)
    text = FAST + "protocols = NOP\nn_steps = 0\nsweep_param = f0\nsweep_values = 0.8, 0.9\n"
    pooled = sweep_csv(tmp_path, text, "a.csv", extra=("--threads", "2"))
    assert dict(os.environ) == before
    assert pooled == sweep_csv(tmp_path, text, "b.csv")


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps inline."""

    sizes: list = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("cores, threads, want", [
    (4, "400", [3]),  # three cells: never more workers than tasks
    (2, "400", [2]),  # nor more than cores
    (4, "2", [2]),
    (None, "400", []),  # unknown core count: one core, run serially
    (4, "1", []),
])
def test_pool_size_is_bounded_by_tasks_and_cores(tmp_path, monkeypatch, cores, threads, want):
    import purlink.cli as cli
    # the pool branch imports the executor by name when it runs
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    text = FAST + "protocols = NOP\nn_steps = 0\nsweep_param = f0\nsweep_values = 0.8, 0.85, 0.9\n"
    pooled = sweep_csv(tmp_path, text, "a.csv", extra=("--threads", threads))
    assert RecordingPool.sizes == want
    assert pooled == sweep_csv(tmp_path, text, "b.csv")


@pytest.mark.parametrize("threads", ["0", "-5", "two"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    path = cfg_file(tmp_path, FAST + "protocols = NOP\nn_steps = 0\n")
    assert main(["simulate", path, "--threads", threads]) == 1
    assert "--threads" in capsys.readouterr().err


def test_sweep_protocol_subset_rows_match_full_run(tmp_path):
    shared = MINIMAL + (
        "trials_min = 100\nmax_trials = 100\nseed = 9\n"
        "sweep_param = f0\nsweep_values = 0.85, 0.9\n"
    )
    full = sweep_csv(tmp_path, shared, "full.csv")
    only = sweep_csv(tmp_path, shared + "protocols = OPT\n", "opt.csv")
    full_opt = [r for r in full.splitlines()[1:] if r.startswith("OPT,")]
    assert only.splitlines()[1:] == full_opt


# --- heatmap CSV ---


def test_heatmap_csv_best_column(tmp_path):
    text = MINIMAL + (
        "trials_min = 100\nmax_trials = 100\nseed = 3\nn_steps = 2\n"
        "sweep_param = f0\nsweep_values = 0.75, 0.95\n"
        "sweep_param2 = t2_s\nsweep_values2 = 1e-05, 1.0\n"
    )
    path = cfg_file(tmp_path, text)
    out = tmp_path / "hm.csv"
    assert main(["heatmap", path, str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == HEATMAP_HEADER
    assert len(lines) == 1 + 4
    saw_na = saw_best = False
    for row in lines[1:]:
        cells = row.split(",")
        skrs = [float(c) for c in cells[4:8]]
        best_skr = float(cells[3])
        assert best_skr == max(skrs)
        if cells[2] == "N/A":
            assert best_skr <= 0.0
            saw_na = True
        else:
            assert best_skr > 0.0
            assert cells[2] == PROTOCOL_NAMES[skrs.index(best_skr)]
            saw_best = True
    assert saw_na and saw_best


def test_heatmap_runs_all_protocols_regardless_of_subset(tmp_path):
    text = MINIMAL + (
        "protocols = OPT\n"
        "trials_min = 100\nmax_trials = 100\nn_steps = 1\n"
        "sweep_param = f0\nsweep_values = 0.85, 0.9\n"
        "sweep_param2 = t2_s\nsweep_values2 = 0.1, 1.0\n"
    )
    path = cfg_file(tmp_path, text)
    out = tmp_path / "hm.csv"
    assert main(["heatmap", path, str(out)]) == 0
    for row in out.read_text().splitlines()[1:]:
        assert len(row.split(",")) == 8


# --- event logs ---


def test_events_log_sections_and_shape(tmp_path):
    path = cfg_file(tmp_path, FAST + "protocols = NOP, BASE\nn_steps = 1\n")
    log = tmp_path / "events.log"
    assert main(["simulate", path, "--events-log", str(log)]) == 0
    lines = log.read_text().splitlines()
    headers = [i for i, l in enumerate(lines) if l.startswith("# protocol ")]
    assert [lines[i] for i in headers] == ["# protocol NOP", "# protocol BASE"]
    body = [l for l in lines if l and not l.startswith("#")]
    assert body
    for entry in body:
        fields = entry.split()
        t = float(fields[0])
        assert t >= 0.0 and math.isfinite(t)
        assert fields[1] in ("A", "B", "AB")
    # the event trial replays deterministically
    assert main(["simulate", path, "--events-log", str(log)]) == 0
    assert log.read_text().splitlines() == lines
    # a heatmap traces every protocol it runs, not the file's subset
    heat = cfg_file(tmp_path, FAST + (
        "protocols = OPT\nsweep_param = f0\nsweep_values = 0.85, 0.9\nsweep_param2 = t2_s\nsweep_values2 = 0.1\n"
    ), "heat.cfg")
    assert main(["heatmap", heat, str(tmp_path / "hm.csv"), "--events-log", str(log)]) == 0
    headers = [l for l in log.read_text().splitlines() if l.startswith("# protocol ")]
    assert headers == [f"# protocol {name}" for name in PROTOCOL_NAMES]
