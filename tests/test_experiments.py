import builtins
import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erspin_sim import experiments, pumping, spectra
from erspin_sim.config import ConfigError
from trace_csv import read_trace_csv


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """All seven experiments with stock defaults, timed once."""
    out = tmp_path_factory.mktemp("defaults")
    summaries = {}
    t0 = time.perf_counter()
    for name in experiments.EXPERIMENT_NAMES:
        cfg = experiments.build_config(name, output_dir=out / name)
        summaries[name] = experiments.run(cfg)
    summaries["_elapsed"] = time.perf_counter() - t0
    return summaries


def test_all_defaults_complete_within_a_minute(default_runs):
    assert default_runs["_elapsed"] < 60.0


def test_rabi_fit_recovers_drive_within_one_percent(default_runs):
    s = default_runs["rabi"]
    assert s["rabi_frequency_hz"] == pytest.approx(14.9e6, rel=0.01)
    assert s["rabi_frequency_set_hz"] == 14.9e6


def test_holeburn_recovers_lifetimes(default_runs):
    s = default_runs["holeburn"]
    assert s["decay_time_s"] == pytest.approx(53e-3, rel=0.10)
    assert s["rise_time_s"] == pytest.approx(11e-3, rel=0.20)
    assert s["peak_signal"] >= s["signal_at_zero_wait"]


def test_holeburn_recovers_lifetimes_when_antihole_peaks_at_zero_wait(tmp_path):
    # The antihole peaks within the first 0.2 ms, so the fast component's
    # amplitude cannot be seeded from the peak height.
    sets = {"t1_spin_s": "0.029907", "branch_same": "0.6", "pump_rate_flip": "141.421"}
    s = experiments.run(experiments.build_config("holeburn", set_overrides=sets, output_dir=tmp_path))
    assert s["peak_wait_s"] < 2e-4
    assert s["decay_time_s"] == pytest.approx(0.029907, rel=0.10)
    assert s["rise_time_s"] == pytest.approx(11e-3, rel=0.10)


def test_echo_amplitude_at_zero_extrapolates_to_zero_delay(tmp_path):
    # Ideal pulses refocus every member, so the echo is exp(-2 tau / t2): 1 at zero delay.
    sets = {"ideal_pulses": "true", "tau_min_s": "1e-7", "tau_points": "32", "n_samples": "301"}
    s = experiments.run(experiments.build_config("echo", set_overrides=sets, output_dir=tmp_path))
    assert s["echo_amplitude_at_zero"] == pytest.approx(1.0, abs=1e-9)


pump_rate = st.one_of(st.just(0.0), st.floats(1.0, 1000.0))


@settings(max_examples=100)
@given(
    branch_same=st.floats(0.0, 1.0),
    flip=pump_rate,
    preserve=pump_rate,
    t1_spin=st.floats(0.03, 0.2),
    t1_opt=st.floats(5e-3, 15e-3),
)
def test_holeburn_decay_time_is_t1_spin(branch_same, flip, preserve, t1_spin, t1_opt):
    """The fit succeeds; its decay time is t1_spin_s and its rise time t1_opt_s within 1% where the trace shows them.

    The trace is exactly offset + slow exp(-t/t1_spin) + fast exp(-t/t1_opt).
    Its amplitudes, solved for at those rates, are measured against the
    largest |signal|: a slow amplitude below 1% of it hides the decay time,
    and a fast one below 1% the rise time, which is then not checked.
    """
    assume(flip > 0 or preserve > 0)
    sets = {"branch_same": branch_same, "pump_rate_flip": flip, "pump_rate_preserve": preserve,
            "t1_spin_s": t1_spin, "t1_opt_s": t1_opt}
    params = experiments.build_config("holeburn", set_overrides={k: repr(v) for k, v in sets.items()}).params
    waits = np.concatenate([[0.0], np.geomspace(params["wait_min_s"], params["wait_max_s"], params["wait_points"] - 1)])
    x, sig = pumping.antihole_trace(experiments._rate_params_from(params), params["burn_duration_s"], waits)
    basis = np.stack([np.ones_like(x), np.exp(-x / t1_spin), np.exp(-x / t1_opt)], axis=1)
    _, slow, fast = np.abs(np.linalg.lstsq(basis, sig, rcond=None)[0]) / np.max(np.abs(sig))
    assume(slow >= 0.01)
    measure = experiments.EXPERIMENTS["holeburn"][0](params)
    summary = measure()[0]
    assert summary["decay_time_s"] == pytest.approx(t1_spin, rel=0.01)
    if fast >= 0.01:
        assert summary["rise_time_s"] == pytest.approx(t1_opt, rel=0.01)


def test_resonator_reports_exact_linewidth(default_runs):
    s = default_runs["resonator"]
    assert abs(s["fwhm_hz"] - 60e6) <= 1.0
    assert abs(s["f0_hz"] - 3.12e9) <= 1.0
    assert s["insertion_loss_db"] == pytest.approx(5.0, abs=1e-6)
    assert s["q_factor"] == pytest.approx(52.0)


def test_pumping_efficiency_reports_both_baselines(default_runs):
    s = default_runs["pumping-efficiency"]
    assert 0.0 < s["efficiency_thermal_baseline"] < 1.0
    assert 0.0 < s["efficiency_unpolarized_baseline"] < 1.0
    assert s["area_ratio_vs_unit_hole"] == pytest.approx(
        s["efficiency_thermal_baseline"], rel=0.02
    )
    assert s["antihole_fwhm_hz"] == pytest.approx(9e6, rel=0.05)


def test_ramsey_default_tracks_line_limit(default_runs):
    s = default_runs["ramsey"]
    assert s["ideal_lorentzian_limit_s"] == pytest.approx(1.0 / (math.pi * 9e6), rel=1e-12)
    # finite pulses at tau = 0 transfer with the averaged pi-pulse fidelity
    assert 0.0 < s["initial_transfer"] < 1.0
    assert s["t2_star_s"] == pytest.approx(1.0 / (math.pi * 9e6), rel=0.25)


def test_echo_recovers_configured_t2(default_runs):
    s = default_runs["echo"]
    assert s["t2_fit_s"] == pytest.approx(s["t2_set_s"], rel=0.05)


def test_heating_budget_defaults_fit_budget(default_runs):
    s = default_runs["heating-budget"]
    assert s["ok"] is True
    assert s["max_rep_rate_hz"] == pytest.approx(606.06, abs=0.01)
    assert s["cw_delta_t_per_mw_k"] == pytest.approx(0.05, rel=1e-12)


def test_excited_preset_rabi_roundtrip(tmp_path):
    cfg = experiments.build_config(
        "rabi", set_overrides={"preset": "excited-config"}, output_dir=tmp_path
    )
    s = experiments.run(cfg)
    assert s["rabi_frequency_set_hz"] == 6.2e6
    assert s["rabi_frequency_hz"] == pytest.approx(6.2e6, rel=0.01)
    assert s["pi_fidelity_line_avg"] < 0.6  # slower drive over the same line


def test_run_checks_a_config_changed_after_build_config(tmp_path):
    cfg = experiments.build_config("echo", output_dir=tmp_path)
    cfg.params["tau_min_s"] = 2e-6  # past tau_max_s
    with pytest.raises(ConfigError, match="tau_min_s"):
        experiments.run(cfg)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("experiment", ["ramsey", "echo"])
def test_grid_period_check_names_the_n_samples_that_resolve_the_window(experiment):
    sets = {"tau_max_s": "6e-6"}
    with pytest.raises(ConfigError, match="tau_max_s") as exc:
        experiments.build_config(experiment, set_overrides=sets)
    need = int(re.search(r"n_samples >= (\d+)", str(exc.value)).group(1))
    experiments.build_config(experiment, set_overrides={**sets, "n_samples": str(need)})
    with pytest.raises(ConfigError, match="tau_max_s"):
        experiments.build_config(experiment, set_overrides={**sets, "n_samples": str(need - 1)})


def test_zero_weight_grid_names_the_n_samples_that_centers_a_node():
    sets = {"line_kind": "gaussian", "n_samples": "2"}  # both nodes 20 widths out, where the density underflows
    with pytest.raises(ConfigError, match="span_fwhm") as exc:
        experiments.build_config("rabi", set_overrides=sets)
    need = re.search(r"n_samples, such as (\d+),", str(exc.value)).group(1)
    experiments.build_config("rabi", set_overrides={**sets, "n_samples": need, "trace_points": "64"})


# Grids small enough that all seven experiments run in about a second.
SMALL_GRIDS = {
    "rabi": {"trace_points": "128", "n_samples": "301"},
    "ramsey": {"tau_points": "32", "n_samples": "301"},
    "echo": {"tau_points": "32", "n_samples": "1501"},
    "holeburn": {"wait_points": "24"},
}
SUFFIXES = ("_trace.csv", "_summary.txt")


def artifacts(experiment, out, **sets):
    """The bytes of the trace and the summary that ``run`` writes into ``out``."""
    sets = {**SMALL_GRIDS.get(experiment, {}), **sets}
    experiments.run(experiments.build_config(experiment, set_overrides=sets, output_dir=out))
    return [(out / f"{experiment}{suffix}").read_bytes() for suffix in SUFFIXES]


@pytest.mark.parametrize("experiment", experiments.EXPERIMENT_NAMES)
def test_rewrite_gives_the_bytes_of_a_fresh_write(tmp_path, experiment):
    fresh = artifacts(experiment, tmp_path / "fresh")
    for name, old in (("junk", b"\xff" * 2**20), ("empty", b"")):
        out = tmp_path / name
        out.mkdir()
        for suffix in SUFFIXES:
            (out / f"{experiment}{suffix}").write_bytes(old)
        assert artifacts(experiment, out) == fresh, name


def test_shorter_rewrite_is_cut_to_length(tmp_path):
    artifacts("heating-budget", tmp_path / "rerun", points="201")
    shorter = artifacts("heating-budget", tmp_path / "rerun", points="51")
    assert shorter == artifacts("heating-budget", tmp_path / "fresh", points="51")


def test_artifacts_are_rewritten_in_place_not_truncated(tmp_path, monkeypatch):
    opened = []
    os_open, open_ = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags & os.O_TRUNC == 0))
        return os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        opened.append((os.fspath(file) if isinstance(file, (str, os.PathLike)) else file, "w" not in mode))
        return open_(file, mode, *args, **kwargs)

    for _ in range(2):  # into a fresh directory, then over the first run's files
        with monkeypatch.context() as m:
            m.setattr(os, "open", spy_os_open)
            m.setattr(builtins, "open", spy_open)
            experiments.run(experiments.build_config("heating-budget", output_dir=tmp_path))
    targets = {str(tmp_path / f"heating-budget{suffix}") for suffix in SUFFIXES}
    assert {path for path, _ in opened} >= targets  # both were opened through a spied call
    assert all(in_place for path, in_place in opened if path in targets)


def test_repr_runs_once_per_distinct_magnitude(tmp_path, monkeypatch):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(spectra, "repr", counting_repr, raising=False)
    experiments.run(experiments.build_config("pumping-efficiency", output_dir=tmp_path))
    x, y = read_trace_csv(tmp_path / "pumping-efficiency_trace.csv")
    distinct = [np.unique(np.abs(v)).size for v in (x, y)]
    assert distinct == [2001, 2008]  # a mirror-symmetric profile of 4001 points
    assert len(calls) == sum(distinct)
