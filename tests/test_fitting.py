import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from erspin_sim import fitting


class TestSinusoidDecay:
    def test_exact_sinusoid_recovery(self):
        t = np.linspace(0.0, 150e-9, 301)
        y = 0.7 * np.cos(2.0 * math.pi * 14.9e6 * t + 0.4) - 0.1
        res = fitting.fit((t, y), "sinusoid-decay")
        p = res.parameters
        assert p["frequency"] == pytest.approx(14.9e6, rel=1e-9)
        assert p["amplitude"] == pytest.approx(0.7, rel=1e-9)
        assert p["offset"] == pytest.approx(-0.1, abs=1e-9)
        assert abs(p["decay_rate"]) * 150e-9 < 1e-6  # no decay present
        assert math.cos(p["phase"]) == pytest.approx(math.cos(0.4), abs=1e-9)
        assert res.residual_norm < 1e-9

    def test_damped_sinusoid_recovery(self):
        t = np.linspace(0.0, 4e-7, 401)
        y = 0.9 * np.cos(2.0 * math.pi * 8e6 * t - 1.1) * np.exp(-t / 2e-7) + 0.05
        res = fitting.fit((t, y), "sinusoid-decay")
        assert res.parameters["frequency"] == pytest.approx(8e6, rel=1e-8)
        assert res.parameters["decay_rate"] == pytest.approx(5e6, rel=1e-6)


class TestExponentials:
    def test_single_exponential_recovery(self):
        t = np.linspace(0.0, 0.3, 100)
        y = 0.4 * np.exp(-t / 53e-3) + 0.02
        res = fitting.fit((t, y), "single-exponential")
        assert res.parameters["tau"] == pytest.approx(53e-3, rel=1e-8)
        assert res.parameters["amplitude"] == pytest.approx(0.4, rel=1e-8)
        assert res.parameters["offset"] == pytest.approx(0.02, abs=1e-9)

    def test_biexponential_recovery(self):
        t = np.concatenate([[0.0], np.geomspace(1e-4, 0.4, 80)])
        y = 0.3 * np.exp(-t / 53e-3) - 0.12 * np.exp(-t / 11e-3)
        res = fitting.fit((t, y), "biexponential")
        assert res.parameters["tau_slow"] == pytest.approx(53e-3, rel=1e-6)
        assert res.parameters["tau_fast"] == pytest.approx(11e-3, rel=1e-6)
        assert res.parameters["tau_slow"] >= res.parameters["tau_fast"]

    def test_rate_too_small_to_square(self):
        t = np.linspace(0.0, 1e200, 50)
        res = fitting.fit((t, np.exp(-t / 1e199)), "single-exponential")
        assert res.parameters["tau"] == pytest.approx(1e199, rel=1e-6)
        assert res.uncertainties["tau"] == math.inf  # sigma_rate / rate**2 with rate**2 = 0

    def test_constant_trace_yields_zero_amplitude(self):
        t = np.linspace(0.0, 1.0, 50)
        res = fitting.fit((t, np.zeros(50)), "single-exponential")
        assert abs(res.parameters["amplitude"]) < 1e-12
        assert res.residual_norm < 1e-12


class TestLorentzian:
    def test_exact_recovery(self):
        f = np.linspace(2.8e9, 3.4e9, 601)
        y = 0.32 / (1.0 + (2.0 * (f - 3.12e9) / 60e6) ** 2) + 0.001
        res = fitting.fit((f, y), "lorentzian")
        assert res.parameters["center"] == pytest.approx(3.12e9, abs=1.0)
        assert res.parameters["fwhm"] == pytest.approx(60e6, rel=1e-9)
        assert res.parameters["amplitude"] == pytest.approx(0.32, rel=1e-9)

    def test_dip_is_fit_as_negative_amplitude(self):
        f = np.linspace(-5.0, 5.0, 201)
        y = 1.0 - 0.8 / (1.0 + (2.0 * f / 1.5) ** 2)
        res = fitting.fit((f, y), "lorentzian")
        assert res.parameters["amplitude"] == pytest.approx(-0.8, rel=1e-8)
        assert res.parameters["fwhm"] == pytest.approx(1.5, rel=1e-8)


class TestFitBehavior:
    def test_uncertainties_nonnegative_and_small_for_exact_fit(self):
        t = np.linspace(0.0, 0.3, 100)
        y = 0.4 * np.exp(-t / 53e-3)
        res = fitting.fit((t, y), "single-exponential")
        assert all(v >= 0.0 for v in res.uncertainties.values())
        assert res.uncertainties["tau"] < 1e-6

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(9)
        t = np.linspace(0.0, 1e-6, 200)
        y = np.cos(2.0 * math.pi * 5e6 * t) + 0.01 * rng.standard_normal(200)
        a = fitting.fit((t, y), "sinusoid-decay")
        b = fitting.fit((t, y), "sinusoid-decay")
        assert a.parameters == b.parameters
        assert a.residual_norm == b.residual_norm

    def test_initial_guess_is_not_worsened(self):
        t = np.linspace(0.0, 0.3, 100)
        y = 0.4 * np.exp(-t / 53e-3) + 0.02
        guess = {"amplitude": 0.5, "tau": 0.04, "offset": 0.0}
        res = fitting.fit((t, y), "single-exponential", initial_guess=guess)

        def model(a, tau, c):
            return a * np.exp(-t / tau) + c

        start_resid = float(np.linalg.norm(model(0.5, 0.04, 0.0) - y))
        assert res.residual_norm <= start_resid
        assert res.parameters["tau"] == pytest.approx(53e-3, rel=1e-6)

    def test_accepts_row_pairs(self):
        t = np.linspace(0.0, 0.3, 60)
        y = np.exp(-t / 0.1)
        rows = np.stack([t, y], axis=1)
        res = fitting.fit(rows, "single-exponential")
        assert res.parameters["tau"] == pytest.approx(0.1, rel=1e-7)

    def test_errors(self, monkeypatch):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(fitting.FitError):
            fitting.fit((t, np.zeros(5)), "sinusoid-decay")  # too few points
        with pytest.raises(fitting.FitError):
            fitting.fit((t, np.array([1.0, np.nan, 0.0, 0.0, 0.0])), "single-exponential")
        with pytest.raises(fitting.FitError):
            fitting.fit((t, np.zeros(5)), "gaussian-mixture")
        with pytest.raises(fitting.FitError):
            fitting.fit(
                (np.linspace(0, 1, 50), np.zeros(50)),
                "single-exponential",
                initial_guess={"lifetime": 1.0},
            )
        with pytest.raises(fitting.FitError, match="all equal"):
            fitting.fit((np.full(50, 3.0), np.linspace(0, 1, 50)), "lorentzian")  # nothing to place a peak on
        f = np.linspace(-5.0, 5.0, 101)
        with pytest.raises(fitting.FitError), np.errstate(divide="ignore", invalid="ignore"):
            fitting.fit((f, 1.0 / (1.0 + f**2)), "lorentzian", initial_guess={"fwhm": 0.0})
        # an optimizer stopped at its evaluation limit is not a result
        monkeypatch.setattr(
            fitting,
            "least_squares",
            lambda fun, x0, **kw: OptimizeResult(x=x0, status=0, success=False, message="limit reached"),
        )
        with pytest.raises(fitting.FitError, match="did not converge"):
            fitting.fit((np.linspace(0, 1, 50), np.exp(-np.linspace(0, 1, 50))), "single-exponential")


def signed(lo, hi):
    return st.one_of(st.floats(lo, hi), st.floats(-hi, -lo))


class TestRecoversSyntheticParameters:
    """Noise-free traces of each model are fitted back to their parameters.

    Ranges, relative to the sampled window of length ``span``:
    * single exponential: tau in [0.02, 1] span, |offset| <= 2 |amplitude|;
    * biexponential: tau_slow in [0.05, 0.5] span, tau_slow / tau_fast in
      [3, 30], |amp_fast| in [0.25, 1] |amp_slow|, or in [1, 2] |amp_slow|
      with the opposite sign (a trace that changes sign), |offset| <=
      |amp_slow|, on a zero-wait point plus log-spaced waits;
    * damped sinusoid: 2 to 20 periods, decay rate up to 2 / span, any phase,
      |offset| <= |amplitude|;
    * Lorentzian: center in the middle 40 %, fwhm in [0.02, 0.3] span,
      |offset| <= |amplitude|.
    Amplitudes are 0.1 to 10 of either sign; span is 1 ns to 1 ks.
    """

    span = st.floats(1e-9, 1e3)
    amplitude = signed(0.1, 10.0)
    fraction = st.floats(-1.0, 1.0)

    @given(span=span, a=amplitude, tau=st.floats(0.02, 1.0), c=st.floats(-2.0, 2.0))
    def test_single_exponential(self, span, a, tau, c):
        x = np.linspace(0.0, span, 101)
        y = a * np.exp(-x / (tau * span)) + c * a
        p = fitting.fit((x, y), "single-exponential").parameters
        assert p["tau"] == pytest.approx(tau * span, rel=1e-6)
        assert p["amplitude"] == pytest.approx(a, rel=1e-6)

    @given(
        span=span,
        a1=amplitude,
        tau_slow=st.floats(0.05, 0.5),
        ratio=st.floats(3.0, 30.0),
        a2=signed(0.25, 1.0),
        c=fraction,
    )
    def test_biexponential(self, span, a1, tau_slow, ratio, a2, c):
        x = span * np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 80)])
        t_slow, t_fast = tau_slow * span, tau_slow * span / ratio
        y = a1 * (np.exp(-x / t_slow) + a2 * np.exp(-x / t_fast) + c)
        p = fitting.fit((x, y), "biexponential").parameters
        assert p["tau_slow"] == pytest.approx(t_slow, rel=1e-6)
        assert p["tau_fast"] == pytest.approx(t_fast, rel=1e-6)
        assert p["amp2"] == pytest.approx(a1 * a2, rel=1e-6)

    @given(
        span=span,
        a1=amplitude,
        tau_slow=st.floats(0.05, 0.5),
        ratio=st.floats(3.0, 30.0),
        a2=st.floats(1.0, 2.0),
        c=fraction,
    )
    def test_biexponential_changing_sign(self, span, a1, tau_slow, ratio, a2, c):
        x = span * np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 80)])
        t_slow, t_fast = tau_slow * span, tau_slow * span / ratio
        y = a1 * (np.exp(-x / t_slow) - a2 * np.exp(-x / t_fast) + c)
        p = fitting.fit((x, y), "biexponential").parameters
        assert p["tau_slow"] == pytest.approx(t_slow, rel=1e-6)
        assert p["tau_fast"] == pytest.approx(t_fast, rel=1e-6)
        assert p["amp2"] == pytest.approx(-a1 * a2, rel=1e-6)

    @given(
        span=span,
        a=amplitude,
        periods=st.floats(2.0, 20.0),
        phase=st.floats(-math.pi, math.pi),
        rate=st.floats(0.0, 2.0),
        c=fraction,
    )
    def test_sinusoid_decay(self, span, a, periods, phase, rate, c):
        x = np.linspace(0.0, span, 401)
        u = x / span
        y = a * (np.cos(2.0 * math.pi * periods * u + phase) * np.exp(-rate * u) + c)
        p = fitting.fit((x, y), "sinusoid-decay").parameters
        assert p["frequency"] == pytest.approx(periods / span, rel=1e-6)
        assert p["decay_rate"] * span == pytest.approx(rate, abs=1e-6)
        assert abs(p["amplitude"]) == pytest.approx(abs(a), rel=1e-6)

    @given(span=span, a=amplitude, center=st.floats(0.3, 0.7), fwhm=st.floats(0.02, 0.3), c=fraction)
    def test_lorentzian(self, span, a, center, fwhm, c):
        x = np.linspace(0.0, span, 601)
        y = a * (1.0 / (1.0 + (2.0 * (x / span - center) / fwhm) ** 2) + c)
        p = fitting.fit((x, y), "lorentzian").parameters
        assert p["center"] == pytest.approx(center * span, rel=1e-6)
        assert p["fwhm"] == pytest.approx(fwhm * span, rel=1e-6)
        assert p["amplitude"] == pytest.approx(a, rel=1e-6)
