import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from erspin_sim import bloch, spectra
from oracles import brute_pi_fidelity_avg, rk4_bloch_batch, two_pulse_reference

OMEGA_GROUND = 2.0 * math.pi * 14.9e6
OMEGA_EXCITED = 2.0 * math.pi * 6.2e6


def line(fwhm=9e6, kind="lorentzian"):
    return spectra.LineShape(kind, fwhm)


def spec_no_spread(fwhm=9e6, n=2001):
    return bloch.EnsembleSpec(
        detuning_line=line(fwhm), rabi_spread=bloch.AmplitudeSpread(0.0), n_samples=n
    )


class TestPropagate:
    def test_resonant_pi_pulse_inverts(self):
        p = bloch.Pulse(rabi=OMEGA_GROUND, duration=math.pi / OMEGA_GROUND)
        out = bloch.propagate(bloch.GROUND, p, detuning=0.0)
        assert abs(out.u) < 1e-9 and abs(out.v) < 1e-9
        assert out.w == pytest.approx(1.0, abs=1e-9)

    def test_full_cycle_is_identity(self):
        p = bloch.Pulse(rabi=OMEGA_GROUND, duration=2.0 * math.pi / OMEGA_GROUND)
        start = bloch.BlochVector(0.3, -0.4, 0.5)
        out = bloch.propagate(start, p)
        assert np.allclose(out.as_array(), start.as_array(), atol=1e-9)

    def test_generalized_rabi_node_off_resonance(self):
        # detuning sqrt(3) Omega / 2 pi makes the pi-length pulse a full
        # 2 pi rotation about the tilted axis: w returns to -1
        detuning = math.sqrt(3.0) * OMEGA_GROUND / (2.0 * math.pi)
        p = bloch.Pulse(rabi=OMEGA_GROUND, duration=math.pi / OMEGA_GROUND)
        out = bloch.propagate(bloch.GROUND, p, detuning=detuning)
        assert out.w == pytest.approx(-1.0, abs=1e-9)

    def test_detuning_offset_adds_to_ensemble_detuning(self):
        p_offset = bloch.Pulse(
            rabi=OMEGA_GROUND, duration=50e-9, detuning_offset=7e6
        )
        p_plain = bloch.Pulse(rabi=OMEGA_GROUND, duration=50e-9)
        a = bloch.propagate(bloch.GROUND, p_offset, detuning=-3e6)
        b = bloch.propagate(bloch.GROUND, p_plain, detuning=4e6)
        assert np.allclose(a.as_array(), b.as_array(), atol=1e-12)

    def test_half_pulses_compose_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            omega = rng.uniform(1e6, 2e8)
            t = rng.uniform(1e-9, 3e-7)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            det = rng.uniform(-3e7, 3e7)
            full = bloch.Pulse(rabi=omega, duration=t, phase=phase)
            half = bloch.Pulse(rabi=omega, duration=t / 2.0, phase=phase)
            a = bloch.propagate(bloch.GROUND, full, det)
            b = bloch.propagate(bloch.propagate(bloch.GROUND, half, det), half, det)
            assert np.allclose(a.as_array(), b.as_array(), atol=1e-12)

    def test_norm_preserved_on_random_pulses(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            v = rng.standard_normal(3)
            v = v / np.linalg.norm(v)
            start = bloch.BlochVector(*v)
            p = bloch.Pulse(
                rabi=rng.uniform(0.0, 2e8),
                duration=rng.uniform(0.0, 3e-7),
                phase=rng.uniform(0.0, 2.0 * math.pi),
            )
            out = bloch.propagate(start, p, rng.uniform(-5e7, 5e7))
            assert abs(out.norm - 1.0) < 1e-9

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(7)
        n = 200
        omega = rng.uniform(0.0, 2.0 * math.pi * 20e6, n)
        phase = rng.uniform(0.0, 2.0 * math.pi, n)
        det = rng.uniform(-2e7, 2e7, n)
        dur = rng.uniform(0.0, 1e-7, n)
        brute = rk4_bloch_batch(np.tile([0.0, 0.0, -1.0], (n, 1)), omega, phase, det, dur)
        for i in range(n):
            p = bloch.Pulse(rabi=omega[i], duration=dur[i], phase=phase[i])
            ours = bloch.propagate(bloch.GROUND, p, det[i]).as_array()
            assert np.max(np.abs(ours - brute[i])) < 1e-6


class TestRabiTrace:
    def test_single_spin_on_resonance_is_pure_sinusoid(self):
        spec = bloch.EnsembleSpec(
            detuning_line=line(), rabi_spread=bloch.AmplitudeSpread(0.0), n_samples=1
        )
        t = np.linspace(0.0, 2e-7, 101)
        times, w = bloch.rabi_trace(spec, OMEGA_GROUND, t)
        assert np.allclose(w, -np.cos(OMEGA_GROUND * t), atol=1e-12)

    def test_fit_recovers_drive_frequency_within_one_percent(self):
        spec = bloch.EnsembleSpec()
        from erspin_sim import fitting

        for omega in (OMEGA_GROUND, OMEGA_EXCITED):
            f_true = omega / (2.0 * math.pi)
            t = np.linspace(0.0, 15.0 / f_true, 2001)
            trace = bloch.rabi_trace(spec, omega, t)
            res = fitting.fit(trace, "sinusoid-decay")
            assert res.parameters["frequency"] == pytest.approx(f_true, rel=0.01)

    def test_ensemble_first_maximum_pulled_early_by_detuning(self):
        # over the 9 MHz line the averaged trace peaks before pi/Omega;
        # regression values frozen from a dense independent evaluation
        spec = bloch.EnsembleSpec()
        t = np.linspace(0.0, 60e-9, 1201)
        _, w = bloch.rabi_trace(spec, OMEGA_GROUND, t)
        assert t[int(np.argmax(w))] == pytest.approx(31.24e-9, abs=0.3e-9)
        t2 = np.linspace(0.0, 120e-9, 1201)
        _, w2 = bloch.rabi_trace(spec, OMEGA_EXCITED, t2)
        assert t2[int(np.argmax(w2))] == pytest.approx(70.25e-9, abs=0.6e-9)

    def test_contrast_decays_with_time(self):
        spec = spec_no_spread()
        t = np.linspace(0.0, 1e-6, 2001)
        _, w = bloch.rabi_trace(spec, OMEGA_GROUND, t)
        period = int(round((1.0 / 14.9e6) / (t[1] - t[0])))
        early = w[:period].max() - w[:period].min()
        late = w[-period:].max() - w[-period:].min()
        assert late < 0.5 * early

    def test_monte_carlo_agrees_with_grid_within_three_sigma(self):
        t = np.linspace(0.0, 2e-7, 9)
        grid = bloch.rabi_trace(bloch.EnsembleSpec(n_samples=4001), OMEGA_GROUND, t)[1]
        estimates = []
        for seed in range(12):
            mc_spec = bloch.EnsembleSpec(n_samples=4000, quadrature="monte-carlo", seed=seed)
            estimates.append(bloch.rabi_trace(mc_spec, OMEGA_GROUND, t)[1])
        estimates = np.array(estimates)
        mean = estimates.mean(axis=0)
        sem = estimates.std(axis=0, ddof=1) / math.sqrt(len(estimates))
        # skip t = 0 where every member starts at exactly -1
        assert np.all(np.abs(mean[1:] - grid[1:]) <= 3.0 * sem[1:])

    def test_monte_carlo_is_seed_reproducible(self):
        spec = bloch.EnsembleSpec(n_samples=500, quadrature="monte-carlo", seed=42)
        t = np.linspace(0.0, 1e-7, 11)
        a = bloch.rabi_trace(spec, OMEGA_GROUND, t)[1]
        b = bloch.rabi_trace(spec, OMEGA_GROUND, t)[1]
        assert np.array_equal(a, b)

    def test_seed_required_for_monte_carlo(self):
        with pytest.raises(ValueError):
            bloch.EnsembleSpec(quadrature="monte-carlo")


class TestPiFidelityCenter:
    def test_zero_spread_is_unity(self):
        assert bloch.pi_fidelity_center(OMEGA_GROUND, bloch.AmplitudeSpread(0.0)) == 1.0

    def test_fixed_amplitude_error_closed_form(self):
        # single member at relative error delta: infidelity sin^2(pi delta / 2)
        delta = 0.02
        p = bloch.Pulse(rabi=OMEGA_GROUND * (1.0 + delta), duration=math.pi / OMEGA_GROUND)
        out = bloch.propagate(bloch.GROUND, p)
        infidelity = 1.0 - (1.0 + out.w) / 2.0
        assert infidelity == pytest.approx(math.sin(math.pi * delta / 2.0) ** 2, rel=1e-9)
        assert infidelity == pytest.approx(9.9e-4, abs=2e-5)

    def test_one_percent_spread_penalty_is_tiny(self):
        fid = bloch.pi_fidelity_center(OMEGA_GROUND, bloch.AmplitudeSpread(0.01))
        assert fid >= 0.999


class TestPiFidelityAvg:
    def test_narrow_line_limit(self):
        spec = spec_no_spread(fwhm=1e-3)
        assert bloch.pi_fidelity_avg(OMEGA_GROUND, spec) == pytest.approx(1.0, abs=1e-9)

    def test_against_brute_force_oracle(self):
        spec = spec_no_spread()
        ours = bloch.pi_fidelity_avg(OMEGA_GROUND, spec)
        brute = brute_pi_fidelity_avg(OMEGA_GROUND, 9e6, span_fwhm=20.0, n_detunings=4001)
        assert ours == pytest.approx(brute, abs=1e-5)

    def test_monotone_in_rabi_frequency(self):
        spec = spec_no_spread()
        values = [
            bloch.pi_fidelity_avg(2.0 * math.pi * f, spec)
            for f in (6.2e6, 10e6, 14.9e6, 20e6, 30e6)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_excited_preset_below_ground_preset(self):
        spec = spec_no_spread()
        assert bloch.pi_fidelity_avg(OMEGA_EXCITED, spec) < bloch.pi_fidelity_avg(
            OMEGA_GROUND, spec
        )

    def test_converges_from_coarse_start(self):
        coarse = spec_no_spread(n=7)
        fine = spec_no_spread()
        assert bloch.pi_fidelity_avg(OMEGA_GROUND, coarse) == pytest.approx(
            bloch.pi_fidelity_avg(OMEGA_GROUND, fine), abs=2e-4
        )


class TestRamsey:
    def test_zero_delay_ideal_pulses_full_transfer(self):
        taus, sig = bloch.ramsey_trace(spec_no_spread(), OMEGA_GROUND, [0.0], ideal_pulses=True)
        assert sig[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_delay_finite_pulses_matches_pi_fidelity(self):
        spec = spec_no_spread()
        _, sig = bloch.ramsey_trace(spec, OMEGA_GROUND, [0.0])
        expected = 2.0 * bloch.pi_fidelity_avg(OMEGA_GROUND, spec) - 1.0
        assert sig[0] == pytest.approx(expected, abs=1e-6)

    def test_ideal_envelope_is_lorentzian_fourier_pair(self):
        # wide span so that line truncation stays below the tolerance
        spec = bloch.EnsembleSpec(
            detuning_line=line(),
            rabi_spread=bloch.AmplitudeSpread(0.0),
            n_samples=200001,
            span_fwhm=500.0,
        )
        taus = np.linspace(0.0, 1.2e-7, 25)
        _, sig = bloch.ramsey_trace(spec, OMEGA_GROUND, taus, ideal_pulses=True)
        assert np.max(np.abs(sig - np.exp(-math.pi * 9e6 * taus))) < 5e-3

    def test_ideal_one_over_e_time(self):
        spec = bloch.EnsembleSpec(
            detuning_line=line(),
            rabi_spread=bloch.AmplitudeSpread(0.0),
            n_samples=200001,
            span_fwhm=500.0,
        )
        taus = np.linspace(0.0, 1e-7, 201)
        _, sig = bloch.ramsey_trace(spec, OMEGA_GROUND, taus, ideal_pulses=True)
        i = int(np.argmax(sig < 1.0 / math.e))
        t1e = np.interp(1.0 / math.e, [sig[i], sig[i - 1]], [taus[i], taus[i - 1]])
        assert t1e == pytest.approx(1.0 / (math.pi * 9e6), rel=0.01)

    def test_vanishing_linewidth_means_no_decay(self):
        spec = spec_no_spread(fwhm=1e-3)
        taus = np.linspace(0.0, 2e-7, 21)
        _, sig = bloch.ramsey_trace(spec, OMEGA_GROUND, taus, ideal_pulses=True)
        assert np.all(sig > 1.0 - 1e-9)

    def test_phenomenological_t2_multiplies_envelope(self):
        spec = spec_no_spread(fwhm=1e-3)
        taus = np.array([0.0, 5e-8, 1e-7])
        _, sig = bloch.ramsey_trace(spec, OMEGA_GROUND, taus, t2=1e-7, ideal_pulses=True)
        assert np.allclose(sig, np.exp(-taus / 1e-7), atol=1e-9)


class TestEcho:
    def test_perfect_refocusing_with_infinite_t2(self):
        spec = spec_no_spread()
        x2, amp = bloch.echo_trace(
            spec, OMEGA_GROUND, np.linspace(1e-8, 5e-7, 9), t2=math.inf, ideal_pulses=True
        )
        assert np.all(np.abs(amp - 1.0) < 1e-9)

    def test_amplitude_independent_of_linewidth(self):
        taus = np.linspace(1e-8, 5e-7, 7)
        amps = []
        for fwhm in (1e3, 9e6, 40e6):
            spec = spec_no_spread(fwhm=fwhm)
            amps.append(
                bloch.echo_trace(spec, OMEGA_GROUND, taus, t2=math.inf, ideal_pulses=True)[1]
            )
        assert np.max(np.abs(amps[0] - amps[1])) < 1e-6
        assert np.max(np.abs(amps[0] - amps[2])) < 1e-6

    def test_exponential_envelope(self):
        spec = spec_no_spread()
        x2, amp = bloch.echo_trace(
            spec, OMEGA_GROUND, np.array([0.25e-6, 0.5e-6]), t2=1e-6, ideal_pulses=True
        )
        assert amp[1] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert amp[0] == pytest.approx(math.exp(-0.5), abs=1e-9)

    @pytest.mark.parametrize("trace", [bloch.ramsey_trace, bloch.echo_trace], ids=["ramsey", "echo"])
    def test_t2_validation(self, trace):
        for t2 in (0.0, -1e-7, math.nan):
            with pytest.raises(ValueError, match="t2 must be > 0"):
                trace(spec_no_spread(), OMEGA_GROUND, [0.0, 1e-7], t2=t2)


class TestTwoPulseOracle:
    @pytest.mark.parametrize("t2", [math.inf, 2e-7], ids=["t2-inf", "t2-finite"])
    @pytest.mark.parametrize("omega", [OMEGA_GROUND, OMEGA_EXCITED], ids=["ground", "excited"])
    def test_finite_pulses_match_rk4_reference(self, omega, t2):
        # 15 detunings x 11 amplitudes; 500 RK4 steps per pulse keep the
        # reference within 1e-8 of converged over this +-5 FWHM span
        spec = bloch.EnsembleSpec(
            detuning_line=line(), rabi_spread=bloch.AmplitudeSpread(0.05), n_samples=15, span_fwhm=5.0
        )
        det, amp, wts = spec.members()
        taus = np.array([0.0, 1.3e-8, 4.1e-8, 9.7e-8, 2.2e-7])
        _, ramsey = bloch.ramsey_trace(spec, omega, taus, t2=t2)
        _, echo = bloch.echo_trace(spec, omega, taus, t2=t2)
        ref_ramsey = two_pulse_reference(det, amp, wts, omega, taus, t2, refocus=False, steps=500)
        ref_echo = two_pulse_reference(det, amp, wts, omega, taus, t2, refocus=True, steps=500)
        assert np.max(np.abs(ramsey - ref_ramsey)) <= 1e-6
        assert np.max(np.abs(echo - ref_echo)) <= 1e-6


unit_vectors = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: bloch.BlochVector(*(np.array(v) / math.hypot(*v))))
)
pulses = st.builds(
    bloch.Pulse,
    rabi=st.floats(0.0, 2e8),
    duration=st.floats(0.0, 3e-7),
    phase=st.floats(0.0, 2.0 * math.pi),
    detuning_offset=st.floats(-5e7, 5e7),
)
delays = st.builds(bloch.Delay, st.floats(0.0, 1e-5))
detunings = st.floats(-5e7, 5e7)
t2s = st.floats(1e-8, 1e-4)


class TestSequenceProperties:
    @given(unit_vectors, st.lists(st.one_of(pulses, delays), max_size=8), detunings)
    def test_norm_preserved_without_t2(self, start, elements, detuning):
        out = bloch.run_sequence(start, bloch.Sequence(tuple(elements)), detuning)
        assert abs(out.norm - 1.0) <= 1e-9

    @given(unit_vectors, st.lists(st.one_of(pulses, delays), max_size=8), detunings, t2s)
    def test_norm_never_exceeds_one_with_t2(self, start, elements, detuning, t2):
        out = bloch.run_sequence(start, bloch.Sequence(tuple(elements), t2=t2), detuning)
        assert out.norm <= 1.0 + 1e-12  # rounding only

    @given(
        unit_vectors,
        st.lists(pulses, max_size=4),
        st.lists(delays, min_size=1, max_size=4),
        detunings,
        t2s,
    )
    def test_t2_leaves_inversion_unchanged(self, start, pulse_block, delay_block, detuning, t2):
        # damping shrinks only u and v, so w is untouched as long as no
        # pulse follows a delay and mixes the damped part back into w
        elements = tuple(pulse_block + delay_block)
        damped = bloch.run_sequence(start, bloch.Sequence(elements, t2=t2), detuning)
        free = bloch.run_sequence(start, bloch.Sequence(elements), detuning)
        assert damped.w == pytest.approx(free.w, abs=1e-12)


class TestSequence:
    def test_two_quarter_turns_compose_to_inversion(self):
        half = bloch.Pulse(rabi=OMEGA_GROUND, duration=0.5 * math.pi / OMEGA_GROUND)
        seq = bloch.Sequence((half, half))
        out = bloch.run_sequence(bloch.GROUND, seq)
        assert out.w == pytest.approx(1.0, abs=1e-9)

    def test_delay_dephasing_damps_transverse(self):
        quarter = bloch.Pulse(rabi=OMEGA_GROUND, duration=0.5 * math.pi / OMEGA_GROUND)
        seq = bloch.Sequence((quarter, bloch.Delay(1e-6)), t2=1e-6)
        out = bloch.run_sequence(bloch.GROUND, seq)
        assert math.hypot(out.u, out.v) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_rejects_unknown_elements(self):
        with pytest.raises(ValueError):
            bloch.Sequence(("wait",))

    def test_rejects_t2_not_positive(self):
        for t2 in (0.0, -1e-7, math.nan):
            with pytest.raises(ValueError):
                bloch.Sequence((bloch.Delay(1e-7),), t2=t2)

    def test_bloch_vector_norm_validation(self):
        with pytest.raises(ValueError):
            bloch.BlochVector(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bloch.BlochVector(math.nan, 0.0, 0.0)
