import math

import numpy as np
import pytest

from erspin_sim import bloch, resonator
from erspin_sim.constants import BOHR_MAGNETON, HBAR


def default_resonator():
    return resonator.ResonatorParams(conversion=resonator.calibrate_conversion())


class TestS21:
    def test_peak_loss(self):
        rp = default_resonator()
        assert resonator.s21(rp, 3.12e9) == pytest.approx(-5.0, abs=1e-12)

    def test_half_width_points_are_3db_down(self):
        rp = default_resonator()
        peak = resonator.s21(rp, rp.f0)
        for sign in (-1.0, 1.0):
            val = resonator.s21(rp, rp.f0 + sign * 30e6)
            assert val == pytest.approx(peak - 10.0 * math.log10(2.0), abs=1e-12)

    def test_far_detuned_rolloff(self):
        rp = default_resonator()
        rel = resonator.s21(rp, rp.f0 + 300e6) - resonator.s21(rp, rp.f0)
        assert rel == pytest.approx(-10.0 * math.log10(101.0), abs=1e-12)
        assert rel == pytest.approx(-20.0, abs=0.1)

    def test_symmetric_and_monotone(self):
        rp = default_resonator()
        offsets = np.linspace(1e6, 500e6, 200)
        up = np.asarray(resonator.s21(rp, rp.f0 + offsets))
        down = np.asarray(resonator.s21(rp, rp.f0 - offsets))
        assert np.allclose(up, down, atol=1e-12)
        assert np.all(np.diff(up) < 0.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            resonator.s21(default_resonator(), 0.0)

    def test_quality_factor(self):
        assert default_resonator().quality_factor == pytest.approx(52.0)


class TestFieldFromPower:
    def test_zero_power(self):
        assert resonator.field_from_power(default_resonator(), 0.0) == 0.0

    def test_calibration_closes_the_chain(self):
        # 100 W on resonance must reproduce the ground-config Rabi frequency
        rp = default_resonator()
        b1 = resonator.field_from_power(rp, 100.0)
        assert b1 == pytest.approx(1.33e-3, abs=0.01e-3)
        omega = 1.6 * BOHR_MAGNETON * b1 / (2.0 * HBAR)  # Omega = g_mw mu_B B1 / (2 hbar)
        assert omega == pytest.approx(2.0 * math.pi * 14.9e6, rel=1e-12)

    def test_sqrt_power_scaling(self):
        rp = default_resonator()
        base = resonator.field_from_power(rp, 1.0)
        for p in (4.0, 25.0, 100.0):
            assert resonator.field_from_power(rp, p) == pytest.approx(
                math.sqrt(p) * base, rel=1e-12
            )

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            resonator.field_from_power(default_resonator(), -1.0)


class TestHeatingBudget:
    hm = resonator.HeatingModel()

    def test_cw_milliwatt_heats_50_millikelvin(self):
        report = resonator.heating_budget(self.hm, 1e-3, 1.0, 1.0)
        assert report.delta_t == pytest.approx(0.05, abs=1e-15)

    def test_pulsed_budget_numbers(self):
        report = resonator.heating_budget(self.hm, 100.0, 33e-9, 1.0 / 606.0)
        assert report.max_rep_rate == pytest.approx(0.1 / (50.0 * 100.0 * 33e-9), rel=1e-12)
        assert report.max_rep_rate == pytest.approx(606.06, abs=0.01)
        assert report.ok

    def test_budget_flag_flips_above_limit(self):
        report = resonator.heating_budget(self.hm, 100.0, 33e-9, 1.0 / 700.0)
        assert not report.ok

    def test_vanishing_duty_cycle(self):
        report = resonator.heating_budget(self.hm, 100.0, 33e-9, 1e6)
        assert report.delta_t == pytest.approx(50.0 * 100.0 * 33e-9 / 1e6, rel=1e-12)
        assert report.delta_t < 1e-9

    def test_linear_in_duty_cycle(self):
        base = resonator.heating_budget(self.hm, 100.0, 33e-9, 1e-3).delta_t
        for k in (2.0, 5.0, 10.0):
            scaled = resonator.heating_budget(self.hm, 100.0, 33e-9, 1e-3 / k).delta_t
            assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_drive_product_underflow_leaves_rate_unbounded(self):
        report = resonator.heating_budget(self.hm, 5e-324, 1e-12, 1.0)
        assert report.max_rep_rate == math.inf

    def test_period_shorter_than_pulse_rejected(self):
        with pytest.raises(ValueError):
            resonator.heating_budget(self.hm, 100.0, 1e-6, 1e-7)
        with pytest.raises(ValueError, match="rep_period must be >= pulse_len"):
            resonator.heating_budget(self.hm, 100.0, 1e-6, np.array([1e-5, 1e-7]))

    def test_array_of_periods_matches_one_call_per_period(self):
        periods = 1.0 / np.geomspace(1.0, 1e5, 101)
        report = resonator.heating_budget(self.hm, 37.0, 47e-9, periods)
        for field in ("delta_t", "ok", "average_power", "max_rep_rate"):
            alone = [getattr(resonator.heating_budget(self.hm, 37.0, 47e-9, p), field) for p in periods]
            assert np.array_equal(np.broadcast_to(getattr(report, field), periods.shape), alone), field


class TestFieldHomogeneity:
    def test_fidelity_penalty_below_1e3(self):
        # a 2% peak-to-peak field variation: Rabi amplitudes uniform within +-1%
        fid = bloch.pi_fidelity_center(2.0 * math.pi * 14.9e6, bloch.AmplitudeSpread(0.01))
        assert 1.0 - fid <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            resonator.ResonatorParams(conversion=0.0)
        with pytest.raises(ValueError):
            resonator.HeatingModel(slope=0.0)
