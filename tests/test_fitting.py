import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import least_squares

import erspin_sim
from erspin_sim import experiments, fitting
from trace_csv import read_trace_csv

# A Rabi trace of 3141.5 drive periods in 32 samples: aliased, so its fit is
# ill-conditioned.  The build rejects such a window; the fit takes it.
ALIASED_FIT = """
import math
import numpy as np
from erspin_sim import bloch, fitting

f_set = 14.9e6
t = np.linspace(0.0, 3141.5457879214155 / f_set, 32)
times, inversion = bloch.rabi_trace(bloch.EnsembleSpec(n_samples=11), 2.0 * math.pi * f_set, t)
print(repr(fitting.fit((times, inversion), "sinusoid-decay").parameters))
"""


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

    def test_growing_sinusoid_keeps_the_sign_of_its_rate(self):
        t = np.linspace(0.0, 4e-7, 401)
        y = 0.9 * np.cos(2.0 * math.pi * 8e6 * t - 1.1) * np.exp(t / 2e-7) + 0.05
        res = fitting.fit((t, y), "sinusoid-decay")
        assert res.parameters["decay_rate"] == pytest.approx(-5e6, rel=1e-6)


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

    def test_growing_exponential_keeps_the_sign_of_its_rate(self):
        x = np.linspace(0.0, 1.0, 50)
        y = 2.0 * np.exp(2.0 * x) + 1.0
        p = fitting.fit((x, y), "single-exponential").parameters
        assert p["amplitude"] * np.exp(-p["rate"] * x) + p["offset"] == pytest.approx(y, rel=1e-9)
        assert p["rate"] == pytest.approx(-2.0, rel=1e-9)
        assert p["tau"] == math.inf  # no decay

    def test_rate_too_small_to_square(self):
        t = np.linspace(0.0, 1e200, 50)
        res = fitting.fit((t, np.exp(-t / 1e199)), "single-exponential")
        assert res.parameters["tau"] == pytest.approx(1e199, rel=1e-6)
        assert res.uncertainties["tau"] == math.inf  # sigma_rate / rate**2 with rate**2 = 0

    def test_constant_trace_yields_zero_amplitude(self):
        """A flat trace fixes the amplitudes and offset but no rate, frequency, phase, center or width."""
        t = np.linspace(0.3, 1.0, 50)
        for model in fitting.MODEL_NAMES:
            for level in (0.0, -2.5):
                res = fitting.fit((t, np.full(50, level)), model)
                assert set(res.uncertainties).isdisjoint(("amplitude", "amp1", "amp2", "phase", "offset"))
                for name, value in res.parameters.items():
                    if name in ("amplitude", "amp1", "amp2", "offset"):
                        assert value == (level if name == "offset" else 0.0)
                    elif name.startswith("tau"):
                        assert value == math.inf
                    elif name == "phase":
                        assert math.isnan(value)
                    else:
                        assert math.isnan(value) and math.isnan(res.uncertainties[name])
                assert res.residual_norm == 0.0


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

    def test_ill_conditioned_fit_ignores_heap_contents_and_hash_seed(self):
        src = str(Path(erspin_sim.__file__).resolve().parents[1])
        outputs = set()
        for perturb, hash_seed in (("0", "0"), ("85", "1"), ("170", "2")):
            env = dict(os.environ, MALLOC_PERTURB_=perturb, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", ALIASED_FIT], env=env, capture_output=True, text=True, timeout=120, check=True
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs

    def test_errors(self, monkeypatch):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(fitting.FitError):
            fitting.fit((t, np.zeros(5)), "sinusoid-decay")  # too few points
        with pytest.raises(fitting.FitError):
            fitting.fit((t, np.array([1.0, np.nan, 0.0, 0.0, 0.0])), "single-exponential")
        with pytest.raises(fitting.FitError):
            fitting.fit((t, np.zeros(5)), "gaussian-mixture")
        with pytest.raises(fitting.FitError, match="all equal"):
            fitting.fit((np.full(50, 3.0), np.linspace(0, 1, 50)), "lorentzian")  # nothing to place a peak on
        # a search stopped at its evaluation limit is not a result
        monkeypatch.setattr(fitting, "MAX_EVALS", 1)
        with pytest.raises(fitting.FitError, match="did not converge"):
            fitting.fit((np.linspace(0, 1, 50), np.exp(-np.linspace(0, 1, 50))), "single-exponential")

    def test_merged_rates_fit_their_limit(self):
        # (1 + 3x) exp(-2x) is where two rates merge: two exponentials tend to it, one cannot fit it
        x = np.linspace(0.0, 1.0, 61)
        p = fitting.fit((x, (1.0 + 3.0 * x) * np.exp(-2.0 * x) + 0.5), "biexponential").parameters
        assert p["rate1"] == pytest.approx(2.0, abs=1e-6) and p["rate2"] == pytest.approx(2.0, abs=1e-6)
        assert p["offset"] == pytest.approx(0.5, abs=1e-6)

    def test_oscillating_trace_reports_its_envelope_rate(self):
        # no two real rates give exp(-2x) cos(3x): both rates are the envelope's, the amplitudes undefined
        x = np.linspace(0.0, 1.0, 61)
        res = fitting.fit((x, np.exp(-2.0 * x) * np.cos(3.0 * x) + 0.1), "biexponential")
        p = res.parameters
        assert p["rate1"] == pytest.approx(2.0, rel=1e-9) and p["rate2"] == pytest.approx(2.0, rel=1e-9)
        assert p["offset"] == pytest.approx(0.1, abs=1e-9)
        assert math.isnan(p["amp1"]) and math.isnan(p["amp2"])
        assert math.isfinite(res.uncertainties["tau_slow"]) and math.isfinite(res.uncertainties["tau_fast"])


def signed(lo, hi):
    return st.one_of(st.floats(lo, hi), st.floats(-hi, -lo))


class TestRecoversSyntheticParameters:
    """Noise-free traces of each model are fitted back to their parameters.

    Ranges, relative to the sampled window of length ``span``:
    * single exponential: tau in [0.02, 1] span, |offset| <= 2 |amplitude|;
    * biexponential: tau_slow in [0.05, 0.5] span, tau_slow / tau_fast in
      [3, 30], |amp_fast| in [0.25, 1] |amp_slow|, or in [1, 2] |amp_slow|
      with the opposite sign (a trace that changes sign), |offset| <=
      |amp_slow|, on a zero-wait point plus log-spaced waits; or nearly
      merged, tau_slow / tau_fast in [1, 1.1], 1 itself included, with the
      pair's divided difference in [0.25, 1] tau_slow |amp_slow| of either
      sign, so that the trace tends to (1 + b t) exp(-t/tau) as they merge;
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
        a1=amplitude,
        tau_slow=st.floats(0.05, 0.5),
        ratio=st.one_of(st.just(1.0), st.floats(1.0, 1.1)),
        a2=signed(0.25, 1.0),
        c=fraction,
    )
    def test_biexponential_nearly_merged(self, span, a1, tau_slow, ratio, a2, c):
        x = span * np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 80)])
        t_slow, t_fast = tau_slow * span, tau_slow * span / ratio
        # exp(-x / t_slow) times this is (exp(-x / t_slow) - exp(-x / t_fast)) / (1 / t_fast - 1 / t_slow)
        half = (1.0 / t_fast - 1.0 / t_slow) / 2.0
        difference = x if half == 0 else -np.expm1(-2.0 * half * x) / (2.0 * half)
        y = a1 * (np.exp(-x / t_slow) * (1.0 + a2 * difference / t_slow) + c)
        p = fitting.fit((x, y), "biexponential").parameters
        assert p["tau_slow"] == pytest.approx(t_slow, rel=1e-6)
        assert p["tau_fast"] == pytest.approx(t_fast, rel=1e-6)

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


def design(seed, k, n):
    """``k`` random columns of ``n`` points, data of the same length, and the least-squares reference.

    The reference comes from ``np.linalg.lstsq`` on the columns and a
    constant; the draw is skipped unless that design is well conditioned.
    """
    rng = np.random.default_rng(seed)
    cols, v = rng.standard_normal((k, n)) + rng.uniform(-2.0, 2.0, (k, 1)), rng.standard_normal(n)
    a = np.column_stack([*cols, np.ones(n)])
    assume(np.linalg.cond(a) < 1e3)
    return cols, v, np.linalg.lstsq(a, v, rcond=None)[0]


class TestClosedFormSolve:
    """The closed-form normal equations behind every projection, seed and step."""

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2), n=st.integers(8, 300))
    def test_matches_lstsq(self, seed, k, n):
        cols, v, ref = design(seed, k, n)
        alpha, offset, residual = fitting._project(cols, v)
        got = np.append(alpha, offset)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        # the squared norm the amplitudes explain, as the seed ranks candidates by it
        centered, vc = cols - cols.mean(axis=1)[:, None], v - v.mean()
        explained = fitting._solve(centered @ centered.T, centered @ vc, np.sum(cols**2, axis=1), fitting._DEPENDENT)[1]
        assert explained == pytest.approx(vc @ vc - residual @ residual, rel=1e-10, abs=1e-10 * (vc @ vc))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_damped_step_matches_linalg_solve(self, seed):
        """The Levenberg-Marquardt step: a positive definite 2 x 2 system, which drops nothing."""
        jac = np.random.default_rng(seed).standard_normal((2, 40))
        m, grad = jac @ jac.T + 1e-3 * np.eye(2), jac @ np.ones(40)
        step = fitting._solve(m, grad, m.diagonal(), 0.0)[0]
        assert step == pytest.approx(np.linalg.solve(m, grad), rel=1e-10, abs=1e-12 * np.abs(grad).max())

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 300))
    def test_dependent_column_gets_amplitude_zero(self, seed, n):
        cols, v, _ = design(seed, 1, n)
        one, one_offset, _ = fitting._project(cols, v)
        for pair in (np.concatenate([cols, cols]), np.concatenate([cols, 2.5 * cols + 1.0])):
            alpha, offset, _ = fitting._project(pair, v)  # the second column adds nothing
            assert alpha[1] == 0.0
            assert alpha[0] == pytest.approx(one[0], rel=1e-12) and offset == pytest.approx(one_offset, rel=1e-12)
        # a constant column lies in the offset, so the other column takes its place
        alpha, offset, _ = fitting._project(np.concatenate([np.full((1, n), 3.0), cols]), v)
        assert alpha[0] == 0.0
        assert alpha[1] == pytest.approx(one[0], rel=1e-12) and offset == pytest.approx(one_offset, rel=1e-12)

    @given(rate=st.floats(-5.0, 50.0), n=st.integers(8, 300))
    def test_equal_rates_are_the_single_exponential(self, rate, n):
        u = np.linspace(0.0, 1.0, n)
        v = np.cos(7.0 * u)
        alpha, offset, residual = fitting._project(fitting._exponentials(np.array([rate, rate]), u), v)
        one, one_offset, one_residual = fitting._project(fitting._exponentials(np.array([rate]), u), v)
        assert alpha[1] == 0.0 and alpha[0] == one[0] and offset == one_offset
        assert np.array_equal(residual, one_residual)


class TestBatchedJacobian:
    @pytest.mark.parametrize("model", fitting.MODEL_NAMES)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 61, 201, 1201]))
    def test_columns_equal_one_parameter_at_a_time(self, model, seed, n):
        """Bitwise, for the search's residual and for the full model that :func:`full_model_sigmas` differentiates."""
        basis = fitting._MODELS[model][1]
        rng = np.random.default_rng(seed)
        u, v = np.linspace(0.0, 1.0, n), rng.standard_normal(n)
        q = rng.uniform(0.5, 30.0, 1 if model == "single-exponential" else 2)
        alpha, offset, _ = fitting._project(basis(q, u), v)
        k = len(q)

        def residual(p):
            return fitting._project(basis(p, u), v)[2]

        def full_model(t):
            return np.einsum("...i,...in->...n", t[..., k:-1], basis(t[..., :k], u)) + t[..., -1:]

        for f, p in ((residual, q), (full_model, np.concatenate([q, alpha, [offset]]))):
            f0 = f(p)
            jac = fitting._jacobian(f, p, f0)
            h = (p + fitting._STEP * np.maximum(np.abs(p), 1.0)) - p
            for j in range(len(p)):
                step = np.zeros(len(p))
                step[j] = h[j]
                assert np.array_equal(jac[j], (f(p + step) - f0) / h[j]), j


def full_model_sigmas(x, y, model):
    """Every named parameter's sigma from the Gauss-Newton covariance of the full model.

    The model is differentiated by forward differences in (q, amplitudes,
    offset) at the search's optimum, and J^T J inverted by ``np.linalg.pinv``.
    """
    names, basis, seed, named = fitting._MODELS[model]
    x0, xs, ys = x[0], x[-1] - x[0], np.max(np.abs(y))
    u, v = (x - x0) / xs, y / ys

    def residual(q):
        return fitting._project(basis(q, u), v)[2]

    with np.errstate(all="ignore"):
        q, r = fitting._levenberg_marquardt(residual, seed(u, v), model)
    alpha, offset, _ = fitting._project(basis(q, u), v)
    theta, k = np.concatenate([q, alpha, [offset]]), len(q)

    def full_model(t):
        return np.einsum("...i,...in->...n", t[..., k:-1], basis(t[..., :k], u)) + t[..., -1:]

    def named_of(t):
        return np.stack(named(t[..., :k], t[..., k:-1], t[..., -1]), axis=-1)

    jac = fitting._jacobian(full_model, theta, v - r)
    cov = (r @ r) / (len(u) - len(names)) * np.linalg.pinv(jac @ jac.T)
    to_named = fitting._jacobian(named_of, theta, named_of(theta))
    sigma = np.sqrt(np.einsum("ip,ij,jp->p", to_named, cov, to_named))
    return dict(zip(names, fitting._param_map(names, x0, xs, ys, 0.0)[0] * sigma))


def noiseless(model):
    """An exact trace of ``model``, of order-one values."""
    if model == "single-exponential":
        x = np.linspace(0.0, 0.3, 100)
        return x, 0.4 * np.exp(-x / 53e-3) + 0.02
    if model == "biexponential":
        x = np.concatenate([[0.0], np.geomspace(1e-4, 0.4, 80)])
        return x, 0.3 * np.exp(-x / 53e-3) - 0.12 * np.exp(-x / 11e-3)
    if model == "sinusoid-decay":
        x = np.linspace(0.0, 4e-7, 401)
        return x, 0.9 * np.cos(2.0 * math.pi * 8e6 * x - 1.1) * np.exp(-x / 2e-7) + 0.05
    x = np.linspace(-5.0, 5.0, 201)
    return x, 1.0 - 0.8 / (1.0 + (2.0 * x / 1.5) ** 2)


class TestUncertainties:
    @pytest.mark.parametrize("noise", [0.0, 1e-4, 1e-2])
    @pytest.mark.parametrize("model", fitting.MODEL_NAMES)
    def test_projected_jacobian_gives_the_full_model_sigmas(self, model, noise):
        """The sigmas from the projected residual's Jacobian are those of the full model's nonlinear parameters."""
        x, y = noiseless(model)
        y = y + noise * np.random.default_rng(7).standard_normal(len(x))
        got = fitting.fit((x, y), model).uncertainties
        ref = full_model_sigmas(x, y, model)
        nonlinear = [name for name in ref if name not in ("amplitude", "amp1", "amp2", "phase", "offset")]
        assert sorted(name for name in got if not name.startswith("tau")) == sorted(nonlinear)
        for name in nonlinear:
            assert got[name] == pytest.approx(ref[name], rel=1e-6), name


class TestUnsortedInput:
    @pytest.mark.parametrize("model", fitting.MODEL_NAMES)
    def test_permuted_points_fit_as_the_sorted_trace(self, model):
        """A trace given out of order fits bit for bit as its ascending one: parameters, sigmas, residual norm."""
        x, y = noiseless(model)
        y = y + 1e-2 * np.random.default_rng(7).standard_normal(len(x))
        order = np.random.default_rng(11).permutation(len(x))
        assert np.any(np.diff(x[order]) < 0)
        # repr holds every field of the result, each float's exact bits and nan included
        assert repr(fitting.fit((x[order], y[order]), model)) == repr(fitting.fit((x, y), model))


class TestSeed:
    @pytest.mark.parametrize("model", fitting.MODEL_NAMES)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_blocks_of_candidates_change_no_pick(self, model, seed):
        """Blocks of about an eighth of the candidates, the last one short, pick bitwise what one block picks."""
        seed_of = fitting._MODELS[model][2]
        cands = len(fitting._PAIRS[0]) if model == "biexponential" else fitting._SINGLES.shape[1]
        u = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 60)])
        v = np.random.default_rng(seed).standard_normal(len(u))
        picks = []
        for block in (cands // 8 + 1, cands):
            with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
                mp.setattr(fitting, "_BLOCK", block)
                picks.append(seed_of(u, v).tobytes())
        assert picks[0] == picks[1]


def damped_cosine(p, u):
    """``a cos(2 pi f u + phi) exp(-k u) + c`` and its Jacobian (n, 5), for p = (a, f, phi, k, c)."""
    a, f, phi, k, c = p
    decay, turn = np.exp(-k * u), 2.0 * np.pi * f * u + phi
    cos, sin = decay * np.cos(turn), decay * np.sin(turn)
    return a * cos + c, np.stack([cos, -2.0 * np.pi * u * a * sin, -a * sin, -u * a * cos, np.ones_like(u)], axis=1)


def exponential(p, u):
    """``a exp(-k u) + c`` and its Jacobian (n, 3), for p = (a, k, c)."""
    a, k, c = p
    decay = np.exp(-k * u)
    return a * decay + c, np.stack([decay, -u * a * decay, np.ones_like(u)], axis=1)


# Each default coherent trace's model, and the position in the reference's parameters of each nonlinear
# parameter with the relative distance from the optimum it must keep.  The rabi decay rate stops 1.7e-9 from
# it, at the fixed point of the search's forward-difference Jacobian, which no tighter stop rule moves; a step
# test against |q| as a whole left it 4.9e-9 away.
COHERENT_FITS = {
    "rabi": ("sinusoid-decay", {"frequency": (1, 1e-9), "decay_rate": (3, 2.5e-9)}),
    "ramsey": ("single-exponential", {"rate": (1, 1e-9)}),
    "echo": ("single-exponential", {"rate": (1, 1e-9)}),
}


class TestConvergence:
    @pytest.mark.parametrize("experiment", COHERENT_FITS)
    def test_nonlinear_parameters_reach_the_optimum(self, experiment, tmp_path):
        """Each nonlinear parameter of a default coherent fit sits at a tight ``least_squares`` optimum."""
        model, checks = COHERENT_FITS[experiment]
        experiments.run(experiments.build_config(experiment, output_dir=tmp_path))
        x, y = read_trace_csv(tmp_path / f"{experiment}_trace.csv")
        got = fitting.fit((x, y), model).parameters
        # the reference fits the full model on the engine's rescaled coordinates
        x0, xs, ys = x[0], x[-1] - x[0], np.max(np.abs(y))
        u, v = (x - x0) / xs, y / ys
        if model == "sinusoid-decay":
            phase = got["phase"] + 2.0 * np.pi * got["frequency"] * x0  # at x0, not at x = 0
            f_and_jac = damped_cosine
            p = [got["amplitude"] / ys, got["frequency"] * xs, phase, got["decay_rate"] * xs, got["offset"] / ys]
        else:
            f_and_jac, p = exponential, [got["amplitude"] / ys, got["rate"] * xs, got["offset"] / ys]
        # started away from the engine's answer, so that the reference cannot stop there
        ref = least_squares(
            lambda q: f_and_jac(q, u)[0] - v, np.array(p) * (1.0 + 1e-3), jac=lambda q: f_and_jac(q, u)[1],
            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
        ).x
        # MINPACK stops where rounding hides the cost's fall, up to 4e-9 from the optimum in the rabi decay
        # rate; Gauss-Newton steps, which read the gradient instead, settle it to the same digits from any start
        for _ in range(3):
            model_v, jac = f_and_jac(ref, u)
            ref = ref + np.linalg.lstsq(jac, v - model_v, rcond=None)[0]
        for name, (at, bound) in checks.items():
            assert got[name] == pytest.approx(ref[at] / xs, rel=bound), name


@pytest.mark.parametrize(
    "trace",
    [
        [np.arange(8.0), np.arange(8.0)],
        (np.arange(8.0),),
        (np.arange(8.0), np.arange(7.0)),
        (np.ones((2, 4)), np.ones((2, 4))),
    ],
    ids=["list", "one-array", "unequal-lengths", "2-d"],
)
def test_malformed_trace_is_a_fit_error(trace):
    with pytest.raises(fitting.FitError, match="trace must be a tuple"):
        fitting.fit(trace, "lorentzian")


@pytest.mark.parametrize(
    "model, q, a, c, folded",
    [
        # cos(-2 pi f u + phi) = cos(2 pi f u - phi)
        ("sinusoid-decay", [-2.0, 0.1], [0.5 * math.cos(0.25), -0.5 * math.sin(0.25)], 0.0, [0.5, 2.0, -0.25, 0.1, 0.0]),
        # the amplitudes give a phase of pi, which turns into -pi
        ("sinusoid-decay", [2.0, 0.1], [-0.5, -0.0], 0.0, [0.5, 2.0, -math.pi, 0.1, 0.0]),
        ("lorentzian", [3.0, -2.0], [1.0], 0.2, [1.0, 3.0, 0.5, 0.2]),
        # a negative rate is a growing trace, not a fold
        ("single-exponential", [-2.0], [1.0], 0.0, [1.0, -2.0, 0.0]),
    ],
    ids=["negative-frequency", "phase-turn", "negative-width", "growing-exponential"],
)
def test_canonical_folds_the_symmetries(model, q, a, c, folded):
    """Each model's own map from (q, amplitudes, offset) to its named parameters folds its symmetries."""
    named = fitting._MODELS[model][3](np.array(q), np.array(a), c)
    assert [float(value) for value in named] == pytest.approx(folded, abs=1e-15)
