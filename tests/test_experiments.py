import math
import time

import pytest

from erspin_sim import experiments
from erspin_sim.config import ConfigError


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
