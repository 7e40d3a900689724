import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from erspin_sim import fitting, pumping
from erspin_sim.constants import BOLTZMANN, PLANCK
from oracles import rk4_rates_batch


def random_rate_params(rng):
    return pumping.RateParams(
        t1_opt=rng.uniform(5e-3, 20e-3),
        t1_spin=rng.uniform(20e-3, 100e-3),
        branch_same=rng.uniform(0.0, 1.0),
        pump_rate_flip=rng.uniform(0.0, 1500.0),
        pump_rate_preserve=rng.uniform(0.0, 1500.0),
        temperature=rng.uniform(0.5, 4.0),
        splitting=rng.uniform(1e9, 5e9),
    )


class TestGenerator:
    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = pumping.rate_generator(random_rate_params(rng))
            assert np.max(np.abs(k.sum(axis=0))) < 1e-12

    def test_off_diagonals_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = pumping.rate_generator(random_rate_params(rng))
            off = k - np.diag(k.diagonal())
            assert off.min() >= 0.0

    def test_infinite_temperature_fixed_point(self):
        rp = pumping.RateParams(temperature=math.inf)
        state = pumping.FourLevelState((0.9, 0.05, 0.03, 0.02))
        final = pumping.evolve(state, rp, 10.0)
        assert np.allclose(final.as_array(), [0.5, 0.5, 0.0, 0.0], atol=1e-9)

    def test_thermal_polarization_is_boltzmann(self):
        rp = pumping.RateParams(temperature=0.8, splitting=3.12e9)
        state = pumping.evolve(pumping.FourLevelState((1.0, 0.0, 0.0, 0.0)), rp, 5.0)
        expected = math.tanh(PLANCK * 3.12e9 / (2.0 * BOLTZMANN * 0.8))
        assert expected == pytest.approx(0.0932, abs=2e-4)
        lo, up = state.populations[:2]
        assert (lo - up) / (lo + up) == pytest.approx(expected, abs=1e-9)

    def test_thermal_state_when_kt_underflows(self):
        # k T is 0 in float64 below about 1e-300 K: the T -> 0 limit
        frozen = pumping.RateParams(temperature=5e-324)
        assert pumping.thermal_state(frozen).populations == (1.0, 0.0, 0.0, 0.0)
        degenerate = pumping.RateParams(temperature=5e-324, splitting=0.0)
        assert pumping.thermal_state(degenerate).populations == (0.5, 0.5, 0.0, 0.0)

    def test_detailed_balance_ratio(self):
        rp = pumping.RateParams(temperature=0.8, splitting=3.12e9)
        k = pumping.rate_generator(rp)
        assert k[1, 0] / k[0, 1] == pytest.approx(
            math.exp(-PLANCK * 3.12e9 / (BOLTZMANN * 0.8)), rel=1e-12
        )
        assert k[1, 0] + k[0, 1] == pytest.approx(1.0 / rp.t1_spin, rel=1e-12)

    def test_single_zero_eigenvalue_when_connected(self):
        rp = pumping.RateParams(pump_rate_flip=300.0, pump_rate_preserve=100.0)
        eig = np.linalg.eigvals(pumping.rate_generator(rp))
        near_zero = np.sum(np.abs(eig) < 1e-9)
        assert near_zero == 1

    def test_fixed_point_matches_boltzmann_without_pumps(self):
        rp = pumping.RateParams()
        k = pumping.rate_generator(rp)
        p_th = pumping.thermal_state(rp).as_array()
        assert np.max(np.abs(k @ p_th)) < 1e-12


class TestEvolve:
    def test_zero_time_identity(self):
        state = pumping.FourLevelState((0.4, 0.3, 0.2, 0.1))
        out = pumping.evolve(state, pumping.RateParams(), 0.0)
        assert np.allclose(out.as_array(), state.as_array(), atol=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            pumping.evolve(pumping.thermal_state(pumping.RateParams()), pumping.RateParams(), -1.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rp = random_rate_params(rng)
            s = pumping.thermal_state(rp)
            t1, t2 = rng.uniform(1e-3, 0.1, size=2)
            once = pumping.evolve(s, rp, t1 + t2)
            twice = pumping.evolve(pumping.evolve(s, rp, t1), rp, t2)
            assert np.allclose(once.as_array(), twice.as_array(), atol=1e-8)

    def test_polarization_decay_constant_is_spin_lifetime(self):
        rp = pumping.RateParams()
        start = pumping.FourLevelState((1.0, 0.0, 0.0, 0.0))
        p_th = pumping.thermal_state(rp).as_array()
        t = np.linspace(0.0, 0.25, 60)
        excess = np.array([pumping.evolve(start, rp, ti).populations[0] - p_th[0] for ti in t])
        res = fitting.fit((t, excess), "single-exponential")
        assert res.parameters["tau"] == pytest.approx(53e-3, rel=0.02)

    def test_excited_population_decays_with_optical_lifetime(self):
        rp = pumping.RateParams()
        start = pumping.FourLevelState((0.0, 0.0, 1.0, 0.0))
        for t in (1e-3, 5e-3, 20e-3, 50e-3):
            s = pumping.evolve(start, rp, t)
            assert s.populations[2] + s.populations[3] == pytest.approx(math.exp(-t / 11e-3), rel=1e-9)

    def test_conservation_and_positivity_along_trajectory(self):
        rp = pumping.RateParams(pump_rate_flip=2000.0)
        state = pumping.thermal_state(rp)
        for t in np.linspace(0.0, 0.3, 120):
            s = pumping.evolve(state, rp, float(t))
            p = s.as_array()
            assert p.min() >= -1e-12
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_against_rk4_oracle(self):
        rng = np.random.default_rng(3)
        params = [random_rate_params(rng) for _ in range(25)]
        durations = rng.uniform(1e-3, 50e-3, size=25)
        p0 = np.array([pumping.thermal_state(rp).as_array() for rp in params])
        gens = np.array([pumping.rate_generator(rp) for rp in params])
        brute = rk4_rates_batch(p0, gens, durations, steps=20000)
        ours = np.array(
            [
                pumping.evolve(pumping.thermal_state(rp), rp, float(t)).as_array()
                for rp, t in zip(params, durations)
            ]
        )
        assert np.max(np.abs(ours - brute)) < 1e-6


EPS = np.finfo(float).eps


@st.composite
def propagations(draw):
    """Rate parameters, their generator K and a time t, with q t log-uniform on [1e-3, MAX_RATE_TIME].

    ``q = max_i -K_ii``; pump rates reach 1e5 /s.  K may also carry a
    symmetric e_low <-> e_up rate, which the model leaves out, so that
    ``expm`` meets generators with that pair of entries too.
    """
    rate = st.one_of(st.just(0.0), st.floats(1.0, 1e5))
    rp = pumping.RateParams(
        t1_opt=draw(st.floats(1e-3, 0.1)),
        t1_spin=draw(st.floats(1e-2, 1.0)),
        branch_same=draw(st.floats(0.0, 1.0)),
        pump_rate_flip=draw(rate),
        pump_rate_preserve=draw(rate),
        temperature=draw(st.one_of(st.just(math.inf), st.floats(0.1, 5.0))),
        splitting=draw(st.floats(0.0, 1e10)),
    )
    k = pumping.rate_generator(rp)
    k[3, 2] = k[2, 3] = draw(st.one_of(st.just(0.0), st.floats(1.0, 1e3)))
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(k, -k.sum(axis=0))
    qt = 10.0 ** draw(st.floats(-3.0, math.log10(pumping.MAX_RATE_TIME)))
    return rp, k, qt / -k.diagonal().min()


class TestExpm:
    """Uniformization against scipy's Pade ``expm`` and an mpmath reference.

    Tolerances come from a measured error curve: over 1500 random
    generators, the largest deviation from mpmath (40 digits) was
    ``max(q t, 1) * eps`` for q t <= 1e2 and ``0.19 q t eps`` above.  scipy's
    own deviation reached ``12.8 q t eps``.
    """

    @given(propagations())
    def test_matches_scipy_then_mpmath(self, case):
        _, k, t = case
        qt = -k.diagonal().min() * t
        ours = pumping.expm(k * t)
        if qt <= 1e2:
            assert np.max(np.abs(ours - scipy_expm(k * t))) <= 1e-13
        else:
            with mpmath.workdps(40):
                reference = np.array(mpmath.expm(mpmath.matrix((k * t).tolist())).tolist(), dtype=float)
            assert np.max(np.abs(ours - reference)) <= 0.5 * qt * EPS

    @given(propagations(), st.floats(0.0, 1.0))
    def test_stochastic_and_semigroup(self, case, split):
        rp, k, t = case
        qt = -k.diagonal().min() * t
        whole = pumping.expm(k * t)
        assert whole.min() >= 0.0
        assert np.max(np.abs(whole.sum(axis=0) - 1.0)) <= 2 * EPS
        halves = pumping.expm(k * (split * t)) @ pumping.expm(k * ((1.0 - split) * t))
        assert np.max(np.abs(whole - halves)) <= 4 * max(qt, 1.0) * EPS
        # detailed balance: free evolution keeps the thermal state
        free = pumping.rate_generator(rp.pumps_off())
        p_th = pumping.thermal_state(rp).as_array()
        drift = pumping.expm(free * t) @ p_th - p_th
        assert np.max(np.abs(drift)) <= 2 * max(-free.diagonal().min() * t, 1.0) * EPS

    def test_stack_matches_one_call_per_matrix(self):
        k = pumping.rate_generator(pumping.RateParams(pump_rate_flip=300.0, pump_rate_preserve=50.0))
        times = np.concatenate([[0.0], np.geomspace(1e-5, 10.0, 80)])
        stack = pumping.expm(k * times[:, None, None])
        assert np.array_equal(stack, [pumping.expm(k * t) for t in times])

    def test_zero_generator_is_identity(self):
        assert np.array_equal(pumping.expm(np.zeros((4, 4))), np.eye(4))

    def test_infinite_rate_gives_nan_at_once(self):
        k = pumping.rate_generator(pumping.RateParams(pump_rate_flip=math.inf))
        with np.errstate(invalid="ignore"):
            assert np.isnan(pumping.expm(k)).all()


class TestAntiholeTrace:
    def test_one_exponential_for_every_wait(self, monkeypatch):
        calls, expm = [], pumping.expm

        def counted(k):
            calls.append(k.shape)
            return expm(k)

        monkeypatch.setattr(pumping, "expm", counted)
        waits = np.concatenate([[0.0], np.geomspace(1e-4, 0.4, 60)])
        _, sig = pumping.antihole_trace(pumping.RateParams(pump_rate_flip=200.0), 0.1, waits)
        assert calls == [(4, 4), (61, 4, 4)]
        singles = [pumping.antihole_trace(pumping.RateParams(pump_rate_flip=200.0), 0.1, [w])[1][0] for w in waits]
        assert np.array_equal(sig, singles)

    def test_wait_zero_matches_burned_state(self):
        rp = pumping.RateParams(pump_rate_flip=200.0)
        waits, sig = pumping.antihole_trace(rp, 0.1, [0.0])
        burned = pumping.evolve(pumping.thermal_state(rp), rp, 0.1)
        p_th = pumping.thermal_state(rp).populations[0]
        assert sig[0] == pytest.approx(burned.populations[0] - p_th, abs=1e-12)

    def test_long_wait_relaxes_to_zero(self):
        rp = pumping.RateParams(pump_rate_flip=200.0)
        waits, sig = pumping.antihole_trace(rp, 0.1, [0.0, 1.0])
        assert abs(sig[-1]) < 1e-3 * abs(sig[0])

    def test_trace_rises_then_decays(self):
        rp = pumping.RateParams(pump_rate_flip=200.0)
        waits = np.linspace(0.0, 0.2, 201)
        _, sig = pumping.antihole_trace(rp, 0.1, waits)
        peak = int(np.argmax(sig))
        assert 0 < peak < len(sig) - 1
        assert sig[peak] > sig[0]

    def test_biexponential_fit_recovers_lifetimes(self):
        rp = pumping.RateParams(pump_rate_flip=200.0)
        waits = np.concatenate([[0.0], np.geomspace(1e-4, 0.4, 60)])
        x, sig = pumping.antihole_trace(rp, 0.1, waits)
        res = fitting.fit((x, sig), "biexponential")
        assert res.parameters["tau_fast"] == pytest.approx(11e-3, rel=0.20)
        assert res.parameters["tau_slow"] == pytest.approx(53e-3, rel=0.10)

    def test_input_validation(self):
        rp = pumping.RateParams()
        with pytest.raises(ValueError):
            pumping.antihole_trace(rp, 0.1, [])
        with pytest.raises(ValueError):
            pumping.antihole_trace(rp, 0.1, [0.2, 0.1])
        with pytest.raises(ValueError):
            pumping.antihole_trace(rp, 0.0, [0.0])


def burn_efficiency(rp, burn_duration, ref=None):
    """The normalized excess of g_low after a burn from thermal equilibrium, as the experiment computes it.

    ``(p - ref) / (1 - ref)`` for the burned g_low population ``p`` and ``ref`` the thermal one (the default) or
    1/2, from :func:`pumping.evolve`'s populations; nan when ``ref`` is 1.
    """
    thermal = pumping.thermal_state(rp)
    ref = thermal.populations[0] if ref is None else ref
    p = pumping.evolve(thermal, rp, burn_duration).populations[0]
    return (p - ref) / (1.0 - ref) if ref < 1.0 else math.nan


class TestPumpingEfficiency:
    def test_lossless_limit_reaches_one(self):
        rp = pumping.RateParams(
            t1_spin=1e6, branch_same=1.0, pump_rate_flip=1e6, temperature=math.inf
        )
        eff = burn_efficiency(rp, 10.0)
        assert eff == pytest.approx(1.0, abs=1e-6)

    def test_no_pump_gives_zero(self):
        assert burn_efficiency(pumping.RateParams(), 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_undefined_when_thermal_state_is_all_target(self):
        # k T underflows, so the thermal state is (1, 0, 0, 0)
        assert math.isnan(burn_efficiency(pumping.RateParams(temperature=5e-324), 0.1))

    def test_default_burn_is_partial(self):
        eff = burn_efficiency(pumping.RateParams(pump_rate_flip=2000.0), 0.1)
        assert 0.0 < eff < 1.0

    def test_baselines_differ(self):
        rp = pumping.RateParams(pump_rate_flip=2000.0)
        thermal = burn_efficiency(rp, 0.1)
        unpol = burn_efficiency(rp, 0.1, ref=0.5)
        assert unpol > thermal  # thermal baseline already leans toward the target

    def test_stimulated_pumping_caps_transfer(self):
        # with symmetric stimulated rates the parked excited population and
        # spin back-relaxation bound the normalized transfer well below 1
        rp = pumping.RateParams(branch_same=1.0, pump_rate_flip=1e6)
        eff = burn_efficiency(rp, 0.5)
        assert 0.6 < eff < 0.7


class TestStateValidation:
    def test_rejects_negative_population(self):
        with pytest.raises(ValueError):
            pumping.FourLevelState((1.1, -0.1, 0.0, 0.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            pumping.FourLevelState((0.5, 0.4, 0.0, 0.0))

    def test_rate_params_validation(self):
        with pytest.raises(ValueError):
            pumping.RateParams(t1_opt=0.0)
        with pytest.raises(ValueError):
            pumping.RateParams(branch_same=1.5)
        with pytest.raises(ValueError):
            pumping.RateParams(pump_rate_flip=-1.0)
        with pytest.raises(ValueError):
            pumping.RateParams(temperature=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pumping.RateParams(splitting=-1.0), "splitting must be >= 0"),
        (lambda: pumping.FourLevelState((0.5, 0.5, 0.0)), "need exactly four populations"),
        (lambda: pumping.FourLevelState((0.5, 0.5, 0.0, 0.0, 0.0)), "need exactly four populations"),
    ],
    ids=["negative-splitting", "three-populations", "five-populations"],
)
def test_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()
