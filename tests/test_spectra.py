import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from erspin_sim import experiments, pumping, spectra
from trace_csv import read_trace_csv


class TestLineValue:
    def test_lorentzian_peak(self):
        ls = spectra.LineShape("lorentzian", fwhm=9e6)
        assert spectra.line_value(ls, 0.0) == pytest.approx(2.0 / (math.pi * 9e6), rel=1e-12)

    def test_gaussian_half_width(self):
        ls = spectra.LineShape("gaussian", fwhm=9e6, center=2e6)
        peak = spectra.line_value(ls, 2e6)
        assert spectra.line_value(ls, 2e6 + 4.5e6) == pytest.approx(peak / 2.0, rel=1e-12)
        assert spectra.line_value(ls, 2e6 - 4.5e6) == pytest.approx(peak / 2.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_unit_area_over_full_axis(self, kind):
        ls = spectra.LineShape(kind, fwhm=9e6, center=1e6)
        # substitute f = center + fwhm * x so the feature has unit width,
        # then adaptive quadrature over the full axis resolves it
        def scaled(x):
            return spectra.line_value(ls, ls.center + ls.fwhm * x) * ls.fwhm

        area, err = quad(scaled, -np.inf, np.inf, limit=200)
        assert area == pytest.approx(1.0, abs=1e-6)

    def test_truncated_integral_over_fifty_widths(self):
        # the Gaussian is fully contained; the Lorentzian tail beyond
        # +-50 widths still holds 2/pi * arctan(1/100) of the weight
        f = np.linspace(-50 * 9e6, 50 * 9e6, 400001)
        gauss = spectra.LineShape("gaussian", fwhm=9e6)
        assert np.trapezoid(spectra.line_value(gauss, f), f) == pytest.approx(1.0, abs=1e-9)
        lor = spectra.LineShape("lorentzian", fwhm=9e6)
        expected = (2.0 / math.pi) * math.atan(100.0)
        got = np.trapezoid(spectra.line_value(lor, f), f)
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(0.99363, abs=1e-4)

    @pytest.mark.parametrize("kind", spectra.LINE_KINDS)
    def test_overflow_is_a_numerical_error(self, kind):
        with pytest.raises(FloatingPointError):
            spectra.line_value(spectra.LineShape(kind, 1e300), 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            spectra.LineShape("boxcar", 1e6)
        with pytest.raises(ValueError):
            spectra.LineShape("lorentzian", 0.0)


class TestAntiholeSpectrum:
    rm = spectra.ReadoutModel()

    def test_zero_polarization_is_flat_baseline(self):
        prof = spectra.antihole_spectrum(spectra.LineShape("lorentzian", 9e6), 0.0, self.rm)
        assert np.allclose(prof.alpha, self.rm.baseline_absorption, atol=1e-15)

    def test_sign_flip_mirrors_profile(self):
        line = spectra.LineShape("lorentzian", 9e6)
        anti = spectra.antihole_spectrum(line, 0.7, self.rm)
        hole = spectra.antihole_spectrum(line, -0.7, self.rm)
        base = self.rm.baseline_absorption
        assert np.allclose(anti.alpha - base, -(hole.alpha - base), atol=1e-15)

    def test_fwhm_follows_spin_line(self):
        line = spectra.LineShape("lorentzian", 9e6)
        prof = spectra.antihole_spectrum(line, 0.5, self.rm)
        assert spectra.profile_fwhm(prof) == pytest.approx(9e6, rel=0.05)

    def test_grid_spacing_fine_enough(self):
        prof = spectra.antihole_spectrum(spectra.LineShape("lorentzian", 9e6), 0.5, self.rm)
        assert np.max(np.diff(prof.freq_hz)) <= 9e6 / 50.0

    def test_polarization_range_enforced(self):
        with pytest.raises(ValueError):
            spectra.antihole_spectrum(spectra.LineShape("lorentzian", 9e6), 1.5, self.rm)

    @given(st.floats(1e-3, 1e12))
    @example(6.79618e6)  # linspace's grid at this width has 3184 distinct magnitudes, not 2001
    def test_grid_is_exactly_antisymmetric_about_a_zero_center(self, fwhm):
        rm = spectra.ReadoutModel(probe_width=0.1 * fwhm)
        prof = spectra.antihole_spectrum(spectra.LineShape("lorentzian", fwhm), 0.5, rm)
        assert prof.freq_hz.size == 4001
        assert np.array_equal(prof.freq_hz, -prof.freq_hz[::-1])

    def test_profiles_of_one_call_are_those_of_one_call_each(self):
        line = spectra.LineShape("gaussian", 7.3e6)
        profiles = spectra.antihole_spectra(line, (0.37, -1.0), self.rm)
        for pol, prof in zip((0.37, -1.0), profiles):
            alone = spectra.antihole_spectrum(line, pol, self.rm)
            assert np.array_equal(prof.freq_hz, alone.freq_hz) and np.array_equal(prof.alpha, alone.alpha)

    def test_symmetry_about_center(self):
        line = spectra.LineShape("lorentzian", 9e6, center=1e6)
        prof = spectra.antihole_spectrum(line, 0.4, self.rm)
        assert np.allclose(prof.alpha, prof.alpha[::-1], atol=1e-12)


class TestHoleAreaRatio:
    rm = spectra.ReadoutModel()
    line = spectra.LineShape("lorentzian", 9e6)

    def test_identical_profiles_give_one(self):
        p = spectra.antihole_spectrum(self.line, 0.6, self.rm)
        assert spectra.hole_area_ratio(p, p) == pytest.approx(1.0, rel=1e-12)

    def test_zero_antihole_gives_zero(self):
        hole = spectra.antihole_spectrum(self.line, -1.0, self.rm)
        flat = spectra.antihole_spectrum(self.line, 0.0, self.rm)
        assert spectra.hole_area_ratio(hole, flat) == pytest.approx(0.0, abs=1e-12)

    def test_ratio_recovers_polarization_against_unit_hole(self):
        unit_hole = spectra.antihole_spectrum(self.line, -1.0, self.rm)
        anti = spectra.antihole_spectrum(self.line, 0.9, self.rm)
        assert spectra.hole_area_ratio(unit_hole, anti) == pytest.approx(0.9, abs=0.02)

    def test_pipeline_matches_simulated_efficiency(self):
        rp = pumping.RateParams(pump_rate_flip=2000.0)
        thermal = pumping.thermal_state(rp).populations[0]
        burned = pumping.evolve(pumping.thermal_state(rp), rp, 0.1).populations[0]
        eff = (burned - thermal) / (1.0 - thermal)  # the normalized excess of g_low over its thermal population
        unit_hole = spectra.antihole_spectrum(self.line, -1.0, self.rm)
        anti = spectra.antihole_spectrum(self.line, eff, self.rm)
        assert spectra.hole_area_ratio(unit_hole, anti) == pytest.approx(eff, rel=0.02)

    def test_mismatched_grids_rejected(self):
        a = spectra.antihole_spectrum(self.line, 0.5, self.rm)
        b = spectra.antihole_spectrum(spectra.LineShape("lorentzian", 8e6), 0.5, self.rm)
        with pytest.raises(ValueError):
            spectra.hole_area_ratio(a, b)

    def test_area_bookkeeping_from_rate_dynamics(self):
        # with pumps off the excited states stay empty, so whatever leaves
        # the probed class appears in the partner class at all times
        rp = pumping.RateParams()
        state = pumping.FourLevelState((0.9, 0.1, 0.0, 0.0))
        p_th = pumping.thermal_state(rp).as_array()
        for t in (0.0, 5e-3, 20e-3, 80e-3):
            p = pumping.evolve(state, rp, t).as_array()
            excess_target = p[0] - p_th[0]
            excess_partner = p[1] - p_th[1]
            assert excess_target == pytest.approx(-excess_partner, abs=1e-12)
            anti = spectra.antihole_spectrum(self.line, excess_target, self.rm)
            hole = spectra.antihole_spectrum(self.line, excess_partner, self.rm)
            total = np.trapezoid(
                (anti.alpha - self.rm.baseline_absorption)
                + (hole.alpha - self.rm.baseline_absorption),
                anti.freq_hz,
            )
            assert abs(total) < 1e-6


class TestExcitedReadoutContrast:
    rm = spectra.ReadoutModel()

    def test_equal_contributions_give_half(self):
        assert spectra.excited_readout_contrast(0.3, 0.3, self.rm) == pytest.approx(0.5, abs=1e-15)

    def test_limits(self):
        assert spectra.excited_readout_contrast(0.0, 0.4, self.rm) == 0.0
        assert spectra.excited_readout_contrast(0.4, 0.0, self.rm) == 1.0
        assert spectra.excited_readout_contrast(0.0, 0.0, self.rm) == 0.0

    def test_scale_invariance(self):
        base = spectra.excited_readout_contrast(0.2, 0.5, self.rm)
        for c in (0.5, 1.6):
            assert spectra.excited_readout_contrast(0.2 * c, 0.5 * c, self.rm) == pytest.approx(
                base, rel=1e-12
            )

    def test_input_range(self):
        with pytest.raises(ValueError):
            spectra.excited_readout_contrast(1.2, 0.3, self.rm)
        with pytest.raises(ValueError):
            spectra.excited_readout_contrast(0.2, -0.1, self.rm)


class TestSpectrumProfile:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            spectra.SpectrumProfile(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_csv_roundtrip(self, tmp_path):
        """The pumping-efficiency trace: ``#`` lines, the column header, then the antihole profile's rows."""
        summary = experiments.run(experiments.build_config("pumping-efficiency", output_dir=tmp_path))
        path = tmp_path / "pumping-efficiency_trace.csv"
        lines = path.read_text().splitlines()
        head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert head > 0 and lines[head] == "frequency_hz,value"
        prof = spectra.antihole_spectrum(
            spectra.LineShape("lorentzian", 9e6), summary["efficiency_thermal_baseline"], spectra.ReadoutModel()
        )
        freq, alpha = read_trace_csv(path)
        assert len(lines) == head + 1 + len(freq)
        assert np.array_equal(freq, prof.freq_hz)
        assert np.array_equal(alpha, prof.alpha)



FLAT = spectra.SpectrumProfile(np.arange(5.0), np.full(5, 0.04))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: spectra.ReadoutModel(probe_width=0.0), "probe_width must be > 0"),
        (lambda: spectra.SpectrumProfile(np.arange(3.0), np.zeros(2)), "1-d arrays of equal length"),
        (lambda: spectra.SpectrumProfile(np.ones((2, 3)), np.ones((2, 3))), "1-d arrays of equal length"),
        (lambda: spectra.profile_fwhm(FLAT), "flat profile has no width"),
        (lambda: spectra.hole_area_ratio(FLAT, FLAT), "hole profile has zero area"),
    ],
    ids=["probe-width", "unequal-lengths", "2-d", "flat-width", "flat-hole"],
)
def test_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()
