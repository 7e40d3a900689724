"""Named experiment protocols wired end-to-end from configuration.

Each experiment resolves defaults (preset-dependent where sensible) and
overrides.  Its ``build(params)`` makes every domain object and grid,
so their invariants and the cross-key checks run, and returns ``measure()``
for the kernels and the fit.  ``build_config`` builds once and returns a
frozen config that holds that ``measure()``; ``run`` calls it and writes
two artifacts into the output directory:

* ``<experiment>_trace.csv``   the primary trace: ``#``-prefixed metadata
  lines, then the column header and one ``x,y`` row per point, each value
  the bytes ``repr`` writes for it (:func:`_csv_rows`),
* ``<experiment>_summary.txt`` flat key = value results with units
  suffixed in the key names.

Both go through :func:`_write`, which rewrites a file in place and cuts it
to length, so identical configuration gives byte-identical outputs whether
the directory is fresh or holds an earlier run's files.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import bloch, fitting, geometry, pumping, resonator, spectra
from .config import ConfigError, parse_config_text

PRESETS = (geometry.GROUND_CONFIG, geometry.EXCITED_CONFIG)


@dataclass(frozen=True)
class Param:
    """One configurable value: default (may depend on preset) and type."""

    default: object
    kind: str = "float"  # float | int | bool | str
    choices: tuple | None = None
    minimum: float | None = None

    def resolve_default(self, preset: str):
        return self.default(preset) if callable(self.default) else self.default

    def parse(self, key: str, raw: str):
        try:
            if self.kind == "float":
                val = float(raw)
            elif self.kind == "int":
                val = int(raw)
            elif self.kind == "bool":
                if raw not in ("true", "false"):
                    raise ValueError("expected true or false")
                val = raw == "true"
            else:
                val = raw
        except ValueError as exc:
            raise ConfigError(key, f"cannot parse {raw!r} as {self.kind}: {exc}") from None
        if self.choices is not None and val not in self.choices:
            raise ConfigError(key, f"must be one of {self.choices}")
        if self.minimum is not None and val < self.minimum:
            raise ConfigError(key, f"must be >= {self.minimum}")
        # nan, and an infinity where the default is finite
        if self.kind == "float" and not (math.isfinite(val) or val == self.default):
            raise ConfigError(key, f"must be a finite number, not {val}")
        return val


def _rate_params(default_pump_flip):
    return {
        "t1_opt_s": Param(11e-3, minimum=1e-12),
        "t1_spin_s": Param(53e-3, minimum=1e-12),
        "branch_same": Param(0.5),
        "pump_rate_flip": Param(default_pump_flip, minimum=0.0),
        "pump_rate_preserve": Param(0.0, minimum=0.0),
        "temperature_k": Param(0.8, minimum=1e-12),
        "splitting_hz": Param(geometry.PRESET_SPLITTING_HZ, minimum=0.0),
        "burn_duration_s": Param(0.1, minimum=1e-12),
    }


def _ensemble_params():
    return {
        "rabi_frequency_hz": Param(lambda p: geometry.PRESET_RABI_HZ[p], minimum=1.0),
        "line_fwhm_hz": Param(9e6, minimum=1e-3),
        "line_kind": Param("lorentzian", kind="str", choices=spectra.LINE_KINDS),
        "amplitude_spread": Param(0.01, minimum=0.0),
        "n_samples": Param(2001, kind="int", minimum=1),
        "span_fwhm": Param(20.0, minimum=0.1),
    }


def _ensemble_from(params):
    return bloch.EnsembleSpec(
        detuning_line=spectra.LineShape(params["line_kind"], params["line_fwhm_hz"]),
        rabi_spread=bloch.AmplitudeSpread(params["amplitude_spread"]),
        n_samples=params["n_samples"],
        span_fwhm=params["span_fwhm"],
    )


def _rate_params_from(params):
    return pumping.RateParams(
        t1_opt=params["t1_opt_s"],
        t1_spin=params["t1_spin_s"],
        branch_same=params["branch_same"],
        pump_rate_flip=params["pump_rate_flip"],
        pump_rate_preserve=params["pump_rate_preserve"],
        temperature=params["temperature_k"],
        splitting=params["splitting_hz"],
    )


def _interp_max(x, y):
    """Location of the first local maximum, refined parabolically.

    The parabola through the maximum and its two neighbours has a linear
    slope, which each secant gives at its midpoint; the vertex is where
    that slope crosses 0, on any spacing of the three points.
    """
    i = int(np.argmax(y))
    for j in range(1, len(y) - 1):  # first local max beats the global argmax
        if y[j] >= y[j - 1] and y[j] > y[j + 1]:
            i = j
            break
    if 0 < i < len(y) - 1:
        left, right = (y[i] - y[i - 1]) / (x[i] - x[i - 1]), (y[i + 1] - y[i]) / (x[i + 1] - x[i])
        if left != right:
            return float(0.5 * (x[i - 1] + x[i]) + 0.5 * (x[i + 1] - x[i - 1]) * left / (left - right))
    return float(x[i])


def _grid(space, start, stop, num, size_key: str, ends_key: str | None = None) -> np.ndarray:
    """``space(start, stop, num)``.

    A non-finite end is an error of ``ends_key``, a size numpy cannot
    allocate one of ``size_key``.
    """
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{ends_key} must be finite: a grid needs finite ends")
    try:
        with np.errstate(over="ignore"):  # the builds reject a grid that is not finite
            return space(start, stop, num)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{size_key}: {exc}") from None


def _check_rate_time(rp, t, time_key: str):
    """Reject a propagation over ``t`` seconds that :func:`pumping.expm` does not resolve."""
    qt = pumping.max_exit_rate(rp) * float(t)  # a numpy scalar t would warn where the product overflows
    if not qt <= pumping.MAX_RATE_TIME:
        raise ValueError(
            f"{time_key} times the fastest exit rate of the rate keys (pump_rate_flip, pump_rate_preserve, "
            f"1/t1_opt_s, 1/t1_spin_s) is {qt:.3g}, past the {pumping.MAX_RATE_TIME:.0e} the propagator resolves"
        )


# The share of the grid period up to which a trace on the detuning grid
# follows a 64,001-node reference at the defaults: within 1.4e-5 for
# ideal-pulse Ramsey and 3.1e-7 for a finite-pulse echo at t2 = inf, against
# 1 and 0.19 over the full period, where the trace revives.  The default
# rabi trace stays within 7.0e-8 of a 32,001-node one at 0.72 of its period
# and drifts 8.2e-4 off at 1.21.
GRID_PERIOD_SHARE = 0.8

# Detuning steps per line width, or per Rabi frequency where that is the
# narrower, that a grid must take.  With it, and windows up to
# GRID_PERIOD_SHARE of the revival period, the pi fidelity and the rabi,
# ramsey and echo traces of both presets and line kinds stay within 1e-4 of
# an eight-times finer grid; a Lorentzian ramsey trace needs it, at 8.0e-5
# (CHANGES.md).
GRID_STEPS_PER_WIDTH = 16


def _check_detuning_grid(params, harmonic: int, window_key: str, window_s: float):
    """Reject an ``n_samples`` whose detuning grid does not resolve the line or the trace window.

    The detunings sit on a uniform step delta = 2 span_fwhm line_fwhm_hz /
    (n_samples - 1).  It must be at most the narrower of ``line_fwhm_hz``
    and ``rabi_frequency_hz`` over ``GRID_STEPS_PER_WIDTH``, and a term in
    ``harmonic`` times the detuning repeats every 1/(harmonic delta), of
    which the trace window, ``window_s`` long, may span
    ``GRID_PERIOD_SHARE``.  The message names the least ``n_samples`` that
    meets both, and ``window_key`` where the window sets it.
    """
    width = 2.0 * params["span_fwhm"] * params["line_fwhm_hz"]  # the grid spans +-span_fwhm line widths
    if not math.isfinite(width):
        return  # the detuning grid names span_fwhm
    resolve = GRID_STEPS_PER_WIDTH * width / min(params["line_fwhm_hz"], params["rabi_frequency_hz"])
    window = harmonic * width * window_s / GRID_PERIOD_SHARE  # the grid steps each limit needs
    if max(resolve, window) <= params["n_samples"] - 1:
        return
    need = f"n_samples >= {np.ceil(max(resolve, window)) + 1:.0f}"
    if window > resolve:
        raise ValueError(
            f"{need} resolves this window, or {window_key} must be <= {GRID_PERIOD_SHARE} of the "
            f"{(params['n_samples'] - 1) / (harmonic * width):.3g} s period at which the detuning grid's trace revives"
        )
    raise ValueError(
        f"{need} resolves the line: the detuning step 2 span_fwhm line_fwhm_hz / (n_samples - 1) must be <= "
        f"1/{GRID_STEPS_PER_WIDTH} of the narrower of line_fwhm_hz and rabi_frequency_hz"
    )


# ---------------------------------------------------------------------------
# Builders.  Each returns measure() -> (summary dict, (x name, y name, x, y)).


def _build_rabi(params):
    f_set = params["rabi_frequency_hz"]
    omega = 2.0 * math.pi * f_set
    window = params["trace_periods"] / f_set
    t = _grid(np.linspace, 0.0, window, params["trace_points"], "trace_points", "trace_periods")
    if not params["trace_points"] - 1 > 2.0 * params["trace_periods"]:  # Nyquist
        raise ValueError("trace_points must exceed 2 trace_periods + 1, or the trace aliases the drive")
    _check_detuning_grid(params, 1, "trace_periods", window)
    spec = _ensemble_from(params)

    def measure():
        times, inversion = bloch.rabi_trace(spec, omega, t)
        res = fitting.fit((times, inversion), "sinusoid-decay")
        f_fit = res.parameters["frequency"]
        summary = {
            "rabi_frequency_set_hz": f_set,
            "rabi_frequency_hz": f_fit,
            "rabi_frequency_sigma_hz": res.uncertainties["frequency"],
            "pi_time_s": 1.0 / (2.0 * f_fit),
            "first_maximum_s": _interp_max(times, inversion),
            "contrast_decay_rate_hz": res.parameters["decay_rate"],
            "fit_residual_norm": res.residual_norm,
            "pi_fidelity_line_avg": bloch.pi_fidelity_avg(omega, spec),
            "pi_fidelity_center": bloch.pi_fidelity_center(omega, spec.rabi_spread),
        }
        return summary, ("time_s", "inversion", times, inversion)

    return measure


def _build_ramsey(params):
    taus = _grid(np.linspace, 0.0, params["tau_max_s"], params["tau_points"], "tau_points", "tau_max_s")
    _check_detuning_grid(params, 1, "tau_max_s", params["tau_max_s"])
    spec = _ensemble_from(params)
    omega = 2.0 * math.pi * params["rabi_frequency_hz"]

    def measure():
        x, sig = bloch.ramsey_trace(spec, omega, taus, t2=params["t2_s"], ideal_pulses=params["ideal_pulses"])
        res = fitting.fit((x, sig), "single-exponential")
        summary = {
            "t2_star_s": res.parameters["tau"],
            "t2_star_sigma_s": res.uncertainties["tau"],
            "initial_transfer": float(sig[0]),
            "ideal_lorentzian_limit_s": 1.0 / (math.pi * params["line_fwhm_hz"]),
            "fit_residual_norm": res.residual_norm,
        }
        return summary, ("tau_s", "inversion", x, sig)

    return measure


# The least echo envelope exp(-2 tau_min_s / t2_s) a window may start at: some
# 3,000 times the rounding of the kernel's unit-magnitude ensemble sums, which
# differ by at most 3.3e-16 between member orders (CHANGES.md).
ECHO_FLOOR = 1e-12


def _build_echo(params):
    omega = 2.0 * math.pi * params["rabi_frequency_hz"]
    if not params["tau_min_s"] < params["tau_max_s"]:  # a zero span holds no time constant
        raise ValueError("tau_min_s must be < tau_max_s")
    if not math.exp(-2.0 * params["tau_min_s"] / params["t2_s"]) >= ECHO_FLOOR:
        raise ValueError(
            f"tau_min_s must be <= {-0.5 * math.log(ECHO_FLOOR):.3g} t2_s, or the echo starts below "
            f"{ECHO_FLOOR:.0e}, where the ensemble sums round"
        )
    taus = _grid(np.linspace, params["tau_min_s"], params["tau_max_s"], params["tau_points"], "tau_points", "tau_max_s")
    # ideal pulses refocus every detuning, so nothing revives
    _check_detuning_grid(params, 2, "tau_max_s", 0.0 if params["ideal_pulses"] else params["tau_max_s"])
    spec = _ensemble_from(params)

    def measure():
        x2, amp = bloch.echo_trace(spec, omega, taus, params["t2_s"], ideal_pulses=params["ideal_pulses"])
        res = fitting.fit((x2, amp), "single-exponential")
        p = res.parameters
        # the fitted amplitude refers to x2[0] = 2 tau_min_s; an extrapolation that overflows is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            at_zero = float(p["amplitude"] * np.exp(p["rate"] * x2[0]) + p["offset"])
        summary = {
            "t2_set_s": params["t2_s"],
            "t2_fit_s": res.parameters["tau"],
            "t2_fit_sigma_s": res.uncertainties["tau"],
            "echo_amplitude_at_zero": at_zero,
            "fit_residual_norm": res.residual_norm,
        }
        return summary, ("two_tau_s", "echo_amplitude", x2, amp)

    return measure


def _build_holeburn(params):
    rp = _rate_params_from(params)
    if rp.pump_rate_flip == 0.0 and rp.pump_rate_preserve == 0.0:
        raise ValueError("pump_rate_flip or pump_rate_preserve must be > 0, or the burn leaves no antihole to fit")
    if not params["wait_min_s"] < params["wait_max_s"]:  # a zero span holds no time constant
        raise ValueError("wait_min_s must be < wait_max_s")
    waits = _grid(
        np.geomspace, params["wait_min_s"], params["wait_max_s"], params["wait_points"] - 1, "wait_points", "wait_max_s"
    )
    if not (np.all(np.isfinite(waits)) and np.all(np.diff(waits) >= 0)):  # geomspace overflow or rounding
        raise ValueError("wait_min_s and wait_max_s give no finite ascending wait grid")
    waits = np.concatenate([[0.0], waits])
    _check_rate_time(rp, params["burn_duration_s"], "burn_duration_s")
    _check_rate_time(rp.pumps_off(), waits[-1], "wait_max_s")

    def measure():
        x, sig = pumping.antihole_trace(rp, params["burn_duration_s"], waits)
        res = fitting.fit((x, sig), "biexponential")
        summary = {
            "decay_time_s": res.parameters["tau_slow"],
            "decay_time_sigma_s": res.uncertainties["tau_slow"],
            "rise_time_s": res.parameters["tau_fast"],
            "rise_time_sigma_s": res.uncertainties["tau_fast"],
            "signal_at_zero_wait": float(sig[0]),
            "peak_wait_s": _interp_max(x, sig),
            "peak_signal": float(np.max(sig)),
            "fit_residual_norm": res.residual_norm,
        }
        return summary, ("wait_s", "antihole_excess", x, sig)

    return measure


def _build_pumping_efficiency(params):
    rp = _rate_params_from(params)
    # same-burn comparison: deplete the probed state through the
    # spin-preserving line at the same stimulated rate and compare the
    # population moved in by the flip burn with the one moved out.
    preserve = rp.pump_rate_flip if rp.pump_rate_flip > 0 else rp.pump_rate_preserve
    rp_hole = replace(rp, pump_rate_flip=0.0, pump_rate_preserve=preserve)
    burn = params["burn_duration_s"]
    line = spectra.LineShape(params["line_kind"], params["line_fwhm_hz"])
    rm = spectra.ReadoutModel(baseline_absorption=params["baseline_absorption"], probe_width=params["probe_width_hz"])
    # antihole_spectra convolves a kernel of +-widths probe widths over its profile grid of +-span line widths
    widths, span = spectra.PROBE_KERNEL_WIDTHS, spectra.PROFILE_SPAN_FWHM
    if not widths * rm.probe_width <= span * line.fwhm:
        raise ValueError(f"probe_width_hz must be <= {span:g}/{widths:g} line_fwhm_hz")
    _check_rate_time(rp, burn, "burn_duration_s")  # rp_hole empties no state faster

    def measure():
        # one flip burn gives both efficiencies and the target population; no pump rate enters the thermal
        # state, so the hole burn starts from it too
        thermal = pumping.thermal_state(rp)
        p_th = thermal.populations[0]
        p_anti = pumping.evolve(thermal, rp, burn).populations[0]
        depletion = p_th - pumping.evolve(thermal, rp_hole, burn).populations[0]
        # the normalized excess over the thermal population: nothing to gain when that is all of g_low
        eff_th = (p_anti - p_th) / (1.0 - p_th) if p_th < 1.0 else math.nan
        antihole, unit_hole = spectra.antihole_spectra(line, (max(min(eff_th, 1.0), -1.0), -1.0), rm)

        summary = {
            "efficiency_thermal_baseline": eff_th,
            "efficiency_unpolarized_baseline": (p_anti - 0.5) / 0.5,
            "area_ratio_vs_unit_hole": spectra.hole_area_ratio(unit_hole, antihole),
            "area_ratio_same_burn_populations": (p_anti - p_th) / depletion if depletion > 0 else math.nan,
            # a burn that moves nothing, or a baseline so small that the
            # excess underflows, leaves a flat profile, which has no width
            "antihole_fwhm_hz": spectra.profile_fwhm(antihole) if np.ptp(antihole.alpha) > 0 else math.nan,
            "target_population_after_burn": p_anti,
            "thermal_target_population": p_th,
        }
        return summary, ("frequency_hz", "value", antihole.freq_hz, antihole.alpha)

    return measure


# The largest residual norm, as a share of the norm of the centered data, that
# a resonator fit may leave.  The model is exact: on 550 random sweeps the fits
# left at most 3.6e-14, and on 300 sweeps of 0.02-2 line widths at most 8.7e-13
# (CHANGES.md).  A sweep so narrow that its response is flat to about 1e-9
# (span_hz = 1e3 at the default width) leaves rounding noise of 2.7e-5 of it.
RESONATOR_RESIDUAL_GATE = 1e-6


def _build_resonator(params):
    rp = resonator.ResonatorParams(
        conversion=params["conversion_t_per_sqrt_w"],
        f0=params["f0_hz"],
        fwhm=params["fwhm_hz"],
        insertion_loss_db=params["insertion_loss_db"],
    )
    if not params["span_hz"] < 2.0 * rp.f0:
        raise ValueError("span_hz must be < 2 f0_hz, so the sweep stays at positive frequencies")
    half = params["span_hz"] / 2
    f = _grid(np.linspace, rp.f0 - half, rp.f0 + half, params["points"], "points", "f0_hz")

    def measure():
        db = np.asarray(resonator.s21(rp, f))
        # fit in linear power units where the response is a true Lorentzian
        power = 10.0 ** (db / 10.0)
        res = fitting.fit((f, power), "lorentzian")
        spread = np.linalg.norm(power - power.mean())
        if not res.residual_norm <= RESONATOR_RESIDUAL_GATE * spread:
            raise fitting.FitError(
                f"lorentzian fit leaves a residual norm of {res.residual_norm:.3g} on data of spread {spread:.3g}, "
                f"above the {RESONATOR_RESIDUAL_GATE:.0e} of it that an exact fit stays within"
            )
        peak_power = res.parameters["amplitude"] + res.parameters["offset"]
        summary = {
            "f0_set_hz": rp.f0,
            "fwhm_set_hz": rp.fwhm,
            "f0_hz": res.parameters["center"],
            "fwhm_hz": res.parameters["fwhm"],
            # a response that underflows to zero fits no positive peak
            "insertion_loss_db": -10.0 * math.log10(peak_power) if peak_power > 0 else math.nan,
            "q_factor": rp.quality_factor,
            "s21_peak_db": float(resonator.s21(rp, rp.f0)),
            "b1_at_100w_resonant_t": resonator.field_from_power(rp, 100.0),
            "fit_residual_norm": res.residual_norm,
        }
        return summary, ("frequency_hz", "s21_db", f, db)

    return measure


def _build_heating_budget(params):
    hm = resonator.HeatingModel(slope=params["slope_k_per_w"], max_delta_t=params["max_delta_t_k"])
    p_peak, pulse_len, rep_period = params["p_peak_w"], params["pulse_len_s"], params["rep_period_s"]
    if not rep_period >= pulse_len:
        raise ValueError("rep_period_s must be >= pulse_len_s")
    rates = _grid(np.geomspace, 1.0, 1e5, params["points"], "points")
    rates = rates[1.0 / rates >= pulse_len]  # a period shorter than the pulse is no pulse train
    if not rates.size:
        raise ValueError(f"pulse_len_s must be at most 1 s, the period of the sweep's lowest rate; got {pulse_len}")

    def measure():
        report = resonator.heating_budget(hm, p_peak, pulse_len, rep_period)
        dts = resonator.heating_budget(hm, p_peak, pulse_len, 1.0 / rates).delta_t
        summary = {
            "delta_t_k": report.delta_t,
            "ok": report.ok,
            "max_rep_rate_hz": report.max_rep_rate,
            "average_power_w": report.average_power,
            "cw_delta_t_per_mw_k": hm.slope * 1e-3,
        }
        return summary, ("rep_rate_hz", "delta_t_k", rates, dts)

    return measure


_PRESET = Param(geometry.GROUND_CONFIG, kind="str", choices=PRESETS)

EXPERIMENTS = {
    "rabi": (
        _build_rabi,
        {
            **_ensemble_params(),
            "trace_periods": Param(15.0, minimum=1.0),
            "trace_points": Param(2001, kind="int", minimum=16),
        },
    ),
    "ramsey": (
        _build_ramsey,
        {
            **_ensemble_params(),
            "tau_max_s": Param(2e-7, minimum=1e-12),
            "tau_points": Param(401, kind="int", minimum=16),
            "ideal_pulses": Param(False, kind="bool"),
            "t2_s": Param(math.inf, minimum=1e-12),
        },
    ),
    "echo": (
        _build_echo,
        {
            **_ensemble_params(),
            "tau_min_s": Param(1e-8, minimum=0.0),
            "tau_max_s": Param(1.5e-6, minimum=1e-12),
            "tau_points": Param(201, kind="int", minimum=16),
            "ideal_pulses": Param(False, kind="bool"),
            "t2_s": Param(1e-6, minimum=1e-12),
        },
    ),
    "holeburn": (
        _build_holeburn,
        {
            **_rate_params(200.0),
            "wait_min_s": Param(1e-4, minimum=1e-9),
            "wait_max_s": Param(0.4, minimum=1e-6),
            "wait_points": Param(61, kind="int", minimum=21),
        },
    ),
    "pumping-efficiency": (
        _build_pumping_efficiency,
        {
            **_rate_params(2000.0),
            "line_fwhm_hz": Param(9e6, minimum=1e-3),
            "line_kind": Param("lorentzian", kind="str", choices=spectra.LINE_KINDS),
            "baseline_absorption": Param(0.04),
            "probe_width_hz": Param(0.5e6, minimum=1.0),
        },
    ),
    "resonator": (
        _build_resonator,
        {
            "f0_hz": Param(geometry.PRESET_SPLITTING_HZ, minimum=1.0),
            "fwhm_hz": Param(60e6, minimum=1.0),
            "insertion_loss_db": Param(5.0, minimum=0.0),
            "conversion_t_per_sqrt_w": Param(resonator.calibrate_conversion(), minimum=1e-12),
            "span_hz": Param(600e6, minimum=1.0),
            "points": Param(1201, kind="int", minimum=32),
        },
    ),
    "heating-budget": (
        _build_heating_budget,
        {
            "slope_k_per_w": Param(50.0, minimum=1e-9),
            "max_delta_t_k": Param(0.1, minimum=1e-9),
            "p_peak_w": Param(100.0, minimum=1e-12),  # no drive leaves the rate unbounded
            "pulse_len_s": Param(33e-9, minimum=1e-12),
            "rep_period_s": Param(2e-3, minimum=1e-12),
            "points": Param(101, kind="int", minimum=8),
        },
    ),
}

EXPERIMENT_NAMES = tuple(EXPERIMENTS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration for one experiment run, and the ``measure()`` its build returned.

    Frozen, with read-only ``params``, so that what ``run`` measures and
    writes into the trace header is what ``build_config`` checked.
    """

    experiment: str
    preset: str
    params: MappingProxyType
    output_dir: Path
    measure: Callable = field(repr=False, compare=False)


def build_config(
    experiment: str,
    config_text: str | None = None,
    set_overrides: dict[str, str] | None = None,
    output_dir="out",
) -> ExperimentConfig:
    """Resolve defaults, file values and overrides into a validated config.

    The experiment is built once, here; the config holds its ``measure()``.
    Raises :class:`ConfigError` naming the offending key for unknown keys,
    unparsable values, range violations, a mismatched ``experiment`` line
    or an input the build rejects.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}; expected one of {EXPERIMENT_NAMES}")
    build, schema = EXPERIMENTS[experiment]

    raw: dict[str, str] = {}
    if config_text is not None:
        raw.update(parse_config_text(config_text))
    raw.update(set_overrides or {})

    file_experiment = raw.pop("experiment", experiment)
    if file_experiment != experiment:
        raise ConfigError("experiment", f"config is for {file_experiment!r}, not {experiment!r}")

    preset = _PRESET.parse("preset", raw.pop("preset")) if "preset" in raw else _PRESET.default
    params = {name: spec.resolve_default(preset) for name, spec in schema.items()}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(key, f"unknown key for experiment {experiment!r}")
        params[key] = schema[key].parse(key, value)

    try:
        measure = build(params)
    except ValueError as exc:
        raise ConfigError(experiment, str(exc)) from exc
    return ExperimentConfig(experiment, preset, MappingProxyType(params), Path(output_dir), measure)


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _reprs(v: np.ndarray) -> list[str]:
    """``repr`` of each float in ``v``, called once per distinct magnitude.

    A magnitude's text gets a ``-`` wherever the sign bit is set, which is
    what ``repr`` writes for every float: -0.0 and -inf included.  A nan
    prints as ``nan`` whatever its sign bit, so it never gets one.
    """
    mags, index = np.unique(np.abs(v), return_inverse=True)
    text = np.array(list(map(repr, mags.tolist())), dtype=object)[index]
    neg = np.flatnonzero(np.signbit(v) & ~np.isnan(v))
    text[neg] = "-" + text[neg]
    return text.tolist()


def _csv_rows(x, y) -> str:
    """``x,y`` lines of shortest round-trip floats, one per point, each ending in ``\\n``.

    Every value is written as ``repr`` writes it, but ``repr`` runs once
    per distinct magnitude in a column: a mirror-symmetric profile repeats
    each magnitude, and ``repr`` is most of the cost of writing one.  The
    text is joined once from a list of four parts per row (``x``, ``,``,
    ``y``, ``\\n``), filled a column at a time by slice assignment.
    """
    xs, ys = (_reprs(np.asarray(v, dtype=float)) for v in (x, y))
    parts = [","] * (4 * len(xs))
    parts[0::4] = xs
    parts[2::4] = ys
    parts[3::4] = ["\n"] * len(xs)
    return "".join(parts)


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as its UTF-8 bytes, with ``\\n`` line ends on every platform.

    The file is opened without ``O_TRUNC``, written over from its start and
    then cut to the length written, so it holds exactly ``text`` whatever it
    held before: cutting an existing file to zero length before the write
    cost 6 to 15 times the write itself on ext4.  Like a truncating rewrite
    it is not atomic: an interrupted one can leave the new bytes followed by
    old ones.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        rest = data
        while rest:  # os.write may write less than it is given
            rest = rest[os.write(fd, rest) :]
        os.ftruncate(fd, data.nbytes)
    finally:
        os.close(fd)


def run(cfg: ExperimentConfig) -> dict:
    """Measure the experiment ``cfg`` was built for and write trace + summary files.

    Returns the summary mapping.  Output files are
    ``<experiment>_trace.csv`` and ``<experiment>_summary.txt`` inside
    ``cfg.output_dir`` (created if needed), each built as one string and
    written by :func:`_write`, so a rerun over earlier files gives the
    bytes of a fresh run.  Raises :class:`FloatingPointError`, before
    anything is written, when a float summary value or a trace value is
    not finite.
    """
    with np.errstate(all="ignore"):  # the fit and the checks below refuse every inf or nan it yields
        summary, (xname, yname, x, y) = cfg.measure()
    bad = [key for key, value in summary.items() if isinstance(value, float) and not math.isfinite(value)]
    if bad:
        raise FloatingPointError(f"non-finite summary values: {', '.join(bad)}")
    bad = [name for name, column in ((xname, x), (yname, y)) if not np.all(np.isfinite(column))]
    if bad:
        raise FloatingPointError(f"non-finite trace values: {', '.join(bad)}")

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    head = [f"experiment = {cfg.experiment}\n", f"preset = {cfg.preset}\n"]
    keys = [f"{key} = {_format_value(cfg.params[key])}\n" for key in sorted(cfg.params)]
    trace_text = "# " + "# ".join(head + keys) + f"{xname},{yname}\n" + _csv_rows(x, y)
    _write(cfg.output_dir / f"{cfg.experiment}_trace.csv", trace_text)
    values = [f"{key} = {_format_value(value)}\n" for key, value in summary.items()]
    _write(cfg.output_dir / f"{cfg.experiment}_summary.txt", "".join(head + values))
    return summary
