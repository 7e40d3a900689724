import builtins
import dataclasses
import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from erspin_sim import bloch, cli, experiments, pumping, spectra
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


@pytest.mark.parametrize("space", [np.linspace, np.geomspace])
def test_peak_refinement_finds_the_vertex_of_a_parabola(space):
    # holeburn's waits are geometric; a vertex formula for equal spacing read 0.0069262 on this grid
    x = space(1e-4, 0.4, 60)
    assert experiments._interp_max(x, -((x - 0.007) ** 2)) == pytest.approx(0.007, rel=1e-12)


def test_echo_amplitude_at_zero_extrapolates_to_zero_delay(tmp_path):
    # Ideal pulses refocus every member, so the echo is exp(-2 tau / t2): 1 at zero delay.
    sets = {"ideal_pulses": "true", "tau_min_s": "1e-7", "tau_points": "32", "n_samples": "641"}
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


def test_config_cannot_change_after_build_config():
    """What ``run`` measures and writes is what ``build_config`` checked: neither the config nor its params change."""
    cfg = experiments.build_config("echo")
    with pytest.raises(TypeError):
        cfg.params["tau_min_s"] = 2e-6  # past tau_max_s
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.params = {**cfg.params, "tau_min_s": 2e-6}
    assert cfg.params["tau_min_s"] == 1e-8


def test_each_run_builds_once(tmp_path, monkeypatch):
    builds = []
    build, schema = experiments.EXPERIMENTS["heating-budget"]

    def counted(params):
        builds.append(params)
        return build(params)

    monkeypatch.setitem(experiments.EXPERIMENTS, "heating-budget", (counted, schema))
    for n in (1, 2):
        assert cli.main(["heating-budget", "--out", str(tmp_path)]) == 0
        assert len(builds) == n


def least_n_samples(experiment, sets, key="n_samples"):
    """The ``n_samples`` that the build's detuning-grid message names for ``sets``, which must name ``key`` too."""
    with pytest.raises(ConfigError, match=key) as exc:
        experiments.build_config(experiment, set_overrides=sets)
    return int(re.search(r"n_samples >= (\d+)", str(exc.value)).group(1))


@pytest.mark.parametrize(
    "experiment, sets, key",
    [
        # windows past 0.8 of the period at which the grid's trace revives
        ("ramsey", {"tau_max_s": "6e-6"}, "tau_max_s"),
        ("echo", {"tau_max_s": "6e-6"}, "tau_max_s"),
        ("rabi", {"trace_periods": "100"}, "trace_periods"),
        ("rabi", {"rabi_frequency_hz": "1e5"}, "trace_periods"),
        # detuning steps wider than 1/16 of the line, or of the Rabi frequency
        ("rabi", {"n_samples": "301"}, "line_fwhm_hz"),
        ("ramsey", {"line_fwhm_hz": "6e7"}, "line_fwhm_hz"),
        ("echo", {"rabi_frequency_hz": "2e6"}, "rabi_frequency_hz"),
    ],
    ids=["ramsey-window", "echo-window", "rabi-window", "rabi-low-drive", "rabi-line", "ramsey-line", "echo-drive"],
)
def test_grid_period_check_names_the_n_samples_that_resolve_the_window(experiment, sets, key):
    need = least_n_samples(experiment, sets, key)
    experiments.build_config(experiment, set_overrides={**sets, "n_samples": str(need)})
    assert least_n_samples(experiment, {**sets, "n_samples": str(need - 1)}, key) == need


def test_ideal_pulse_echo_has_no_window_limit():
    # ideal pulses refocus every detuning, so no revival limits the window, which finite pulses' does
    experiments.build_config("echo", set_overrides={"ideal_pulses": "true", "tau_max_s": "1e-3"})
    least_n_samples("echo", {"tau_max_s": "2.5e-6"}, "tau_max_s")


# The largest distance, absolute in the trace and relative in the pi fidelity, between a rabi run on a grid the
# build admits and the same run on a four-times finer one: three times the 4.2e-7 and 3.6e-8 measured over 600
# draws of the test below (CHANGES.md).  Spans go from the schema's least to the default.
TRACE_TOLERANCE, PI_FIDELITY_TOLERANCE = 1.3e-6, 1.1e-7


@settings(max_examples=100)
@given(
    kind=st.sampled_from(spectra.LINE_KINDS),
    line_fwhm=st.floats(2e6, 2e7),
    drive=st.floats(5e6, 3e7),
    span=st.floats(experiments.EXPERIMENTS["rabi"][1]["span_fwhm"].minimum, 20.0),
    periods=st.floats(1.0, 20.0),
    spread=st.floats(0.0, 0.05),
    extra=st.integers(0, 100),
)
def test_admitted_rabi_grids_agree_with_a_finer_one(kind, line_fwhm, drive, span, periods, spread, extra):
    """At any ``n_samples`` the build admits, the trace and the pi fidelity stay put on 4 n - 3 nodes."""
    sets = {"line_kind": kind, "line_fwhm_hz": repr(line_fwhm), "rabi_frequency_hz": repr(drive),
            "span_fwhm": repr(span), "trace_periods": repr(periods), "amplitude_spread": repr(spread),
            "trace_points": "64"}
    n = least_n_samples("rabi", {**sets, "n_samples": "2"}) + extra
    t = np.linspace(0.0, periods / drive, 64)
    pi_fidelity, trace = [], []
    for m in (n, 4 * n - 3):  # the coarse nodes are every fourth fine one
        params = experiments.build_config("rabi", set_overrides={**sets, "n_samples": str(m)}).params
        spec, omega = experiments._ensemble(params, 1, "trace_periods", periods / drive)
        pi_fidelity.append(bloch.pi_fidelity_avg(omega, spec))
        trace.append(bloch.rabi_trace(spec, omega, t)[1])
    assert np.abs(trace[0] - trace[1]).max() <= TRACE_TOLERANCE
    assert pi_fidelity[0] == pytest.approx(pi_fidelity[1], rel=PI_FIDELITY_TOLERANCE)


def test_zero_weight_grid_names_the_n_samples_that_centers_a_node():
    # both nodes 20 widths out, where the density underflows; the build rejects such a grid before it forms one
    line = spectra.LineShape("gaussian", 9e6)
    with pytest.raises(ValueError, match="span_fwhm") as exc:
        bloch.EnsembleSpec(line, n_samples=2)
    need = re.search(r"n_samples, such as (\d+),", str(exc.value)).group(1)
    bloch.EnsembleSpec(line, n_samples=int(need))


# Grids small enough that all seven experiments run in about a second.
SMALL_GRIDS = {
    "rabi": {"trace_points": "128", "n_samples": "641"},
    "ramsey": {"tau_points": "32", "n_samples": "641"},
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
    columns, calls = [], []  # each column run passes to _reprs, and the repr calls made inside it
    inside = False
    reprs = experiments._reprs

    def spy_reprs(v):
        nonlocal inside
        columns.append(v.copy())
        calls.append(0)
        inside = True
        try:
            return reprs(v)
        finally:
            inside = False

    def counting_repr(value):  # _format_value calls repr too: count only the calls inside _reprs
        if inside:
            calls[-1] += 1
        return builtins.repr(value)

    monkeypatch.setattr(experiments, "_reprs", spy_reprs)
    monkeypatch.setattr(experiments, "repr", counting_repr, raising=False)
    experiments.run(experiments.build_config("pumping-efficiency", output_dir=tmp_path))
    x, y = read_trace_csv(tmp_path / "pumping-efficiency_trace.csv")
    assert len(columns) == 2 and all(np.array_equal(c, v) for c, v in zip(columns, (x, y)))
    distinct = [np.unique(np.abs(v)).size for v in (x, y)]
    assert distinct == [2001, 2008]  # a mirror-symmetric profile of 4001 points
    assert calls == distinct


# zeros, infinities, nan, the smallest subnormal and a larger one, a normal float
SPECIAL_FLOATS = (0.0, math.inf, math.nan, 5e-324, 1.5e-310, 0.1)


@st.composite
def float_columns(draw):
    """Two equal-length columns of floats drawn, each with either sign, from a small pool.

    The pool makes magnitudes repeat and ``+-`` pairs mirror; ``-v`` sets the
    sign bit of zeros and nan too.
    """
    pool = draw(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)), min_size=1, max_size=12))
    n = draw(st.integers(0, 50))
    signed = st.tuples(st.sampled_from(pool), st.booleans()).map(lambda vs: -vs[0] if vs[1] else vs[0])
    return tuple(np.array(draw(st.lists(signed, min_size=n, max_size=n)), dtype=float) for _ in range(2))


class TestCsvRows:
    @given(float_columns())
    @example((np.array([0.0, -0.0, math.inf, -math.inf]), np.array([math.nan, -math.nan, 5e-324, -5e-324])))
    def test_same_bytes_as_one_repr_per_value(self, columns):
        x, y = columns
        expected = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
        assert experiments._csv_rows(x, y) == expected

    def test_integer_input_is_written_as_floats(self):
        assert experiments._csv_rows(np.arange(2), [3, 4]) == "0.0,3.0\n1.0,4.0\n"
