import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from erspin_sim import bloch, spectra
from oracles import brute_pi_fidelity_avg, rk4_bloch_batch, two_pulse_reference

OMEGA_GROUND = 2.0 * math.pi * 14.9e6
OMEGA_EXCITED = 2.0 * math.pi * 6.2e6
GROUND = bloch.BlochVector(0.0, 0.0, -1.0)


def line(fwhm=9e6, kind="lorentzian"):
    return spectra.LineShape(kind, fwhm)


def spec_no_spread(fwhm=9e6, n=2001):
    return bloch.EnsembleSpec(
        detuning_line=line(fwhm), rabi_spread=bloch.AmplitudeSpread(0.0), n_samples=n
    )


def members(spec):
    """``spec``'s grid flattened to (detunings_hz, relative_amplitudes, weights), the weights summing to 1."""
    d, wd = bloch._detuning_grid(spec.detuning_line, spec.n_samples, spec.span_fwhm)
    a, wa = bloch._amplitude_grid(spec.rabi_spread)
    w = np.multiply.outer(wd, wa)
    return np.repeat(d, a.size), np.tile(a, d.size), (w / w.sum()).ravel()


class TestPropagate:
    def test_resonant_pi_pulse_inverts(self):
        p = bloch.Pulse(rabi=OMEGA_GROUND, duration=math.pi / OMEGA_GROUND)
        out = bloch.propagate(GROUND, p, detuning=0.0)
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
        out = bloch.propagate(GROUND, p, detuning=detuning)
        assert out.w == pytest.approx(-1.0, abs=1e-9)

    def test_half_pulses_compose_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            omega = rng.uniform(1e6, 2e8)
            t = rng.uniform(1e-9, 3e-7)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            det = rng.uniform(-3e7, 3e7)
            full = bloch.Pulse(rabi=omega, duration=t, phase=phase)
            half = bloch.Pulse(rabi=omega, duration=t / 2.0, phase=phase)
            a = bloch.propagate(GROUND, full, det)
            b = bloch.propagate(bloch.propagate(GROUND, half, det), half, det)
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
            ours = bloch.propagate(GROUND, p, det[i]).as_array()
            assert np.max(np.abs(ours - brute[i])) < 1e-6

    def test_bloch_vector_norm_validation(self):
        with pytest.raises(ValueError):
            bloch.BlochVector(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bloch.BlochVector(math.nan, 0.0, 0.0)


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


class TestPiFidelityCenter:
    def test_zero_spread_is_unity(self):
        assert bloch.pi_fidelity_center(OMEGA_GROUND, bloch.AmplitudeSpread(0.0)) == 1.0

    def test_fixed_amplitude_error_closed_form(self):
        # single member at relative error delta: infidelity sin^2(pi delta / 2)
        delta = 0.02
        p = bloch.Pulse(rabi=OMEGA_GROUND * (1.0 + delta), duration=math.pi / OMEGA_GROUND)
        out = bloch.propagate(GROUND, p)
        infidelity = 1.0 - (1.0 + out.w) / 2.0
        assert infidelity == pytest.approx(math.sin(math.pi * delta / 2.0) ** 2, rel=1e-9)
        assert infidelity == pytest.approx(9.9e-4, abs=2e-5)

    def test_one_percent_spread_penalty_is_tiny(self):
        fid = bloch.pi_fidelity_center(OMEGA_GROUND, bloch.AmplitudeSpread(0.01))
        assert fid >= 0.999

    @pytest.mark.parametrize("hw", [0.01, 0.05, 0.2, 1.0])
    def test_matches_mpmath_quadrature(self, hw):
        """The closed form against an independent quadrature of sin^2(pi a / 2) over the uniform spread."""
        with mpmath.workdps(30):
            exact = mpmath.quad(lambda a: mpmath.sin(mpmath.pi * a / 2) ** 2, [1 - hw, 1 + hw]) / (2 * hw)
        fid = bloch.pi_fidelity_center(OMEGA_GROUND, bloch.AmplitudeSpread(hw))
        assert fid == pytest.approx(float(exact), rel=4e-16)


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

    @pytest.mark.parametrize("trace, twice", [(bloch.ramsey_trace, False), (bloch.echo_trace, True)], ids=["ramsey", "echo"])
    def test_one_pulse_map_per_pulse_kind_used(self, monkeypatch, trace, twice):
        """One ``_pulse`` call builds the pi/2 map; the echo's also returns the pi map, on the same axis."""
        calls, pulse = [], bloch._pulse

        def counted(om, dw, duration, twice=False):
            calls.append((duration, twice))
            return pulse(om, dw, duration, twice)

        monkeypatch.setattr(bloch, "_pulse", counted)
        trace(spec_no_spread(n=101), OMEGA_GROUND, [0.0, 1e-7], t2=1e-6)
        assert calls == [(0.5 * math.pi / OMEGA_GROUND, twice)]

    @pytest.mark.parametrize("trace", [bloch.ramsey_trace, bloch.echo_trace], ids=["ramsey", "echo"])
    def test_t2_validation(self, trace):
        for t2 in (0.0, -1e-7, math.nan):
            with pytest.raises(ValueError, match="t2 must be > 0"):
                trace(spec_no_spread(), OMEGA_GROUND, [0.0, 1e-7], t2=t2)


KERNELS = {
    "rabi": lambda grid: bloch.rabi_trace(spec_no_spread(n=11), OMEGA_GROUND, grid),
    "ramsey": lambda grid: bloch.ramsey_trace(spec_no_spread(n=11), OMEGA_GROUND, grid, t2=1e-6),
    "echo": lambda grid: bloch.echo_trace(spec_no_spread(n=11), OMEGA_GROUND, grid, t2=1e-6),
}


class TestGridContract:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "grid",
        [np.linspace(0.0, 1.0, 9) ** 2 * 1e-7, np.geomspace(1e-9, 1e-7, 9), np.linspace(1e-7, 0.0, 9)],
        ids=["quadratic", "geometric", "descending"],
    )
    def test_kernels_reject_a_grid_that_is_not_evenly_spaced_ascending(self, kernel, grid):
        name = "t_grid" if kernel == "rabi" else "tau_grid"
        with pytest.raises(ValueError, match=f"{name} must be ascending and evenly spaced"):
            KERNELS[kernel](grid)


class TestTwoPulseOracle:
    @pytest.mark.parametrize("t2", [math.inf, 2e-7], ids=["t2-inf", "t2-finite"])
    @pytest.mark.parametrize("omega", [OMEGA_GROUND, OMEGA_EXCITED], ids=["ground", "excited"])
    def test_finite_pulses_match_rk4_reference(self, omega, t2):
        # 15 detunings x 11 amplitudes; 500 RK4 steps per pulse keep the
        # reference within 1e-8 of converged over this +-5 FWHM span
        spec = bloch.EnsembleSpec(
            detuning_line=line(), rabi_spread=bloch.AmplitudeSpread(0.05), n_samples=15, span_fwhm=5.0
        )
        det, amp, wts = members(spec)
        taus = np.linspace(0.0, 2.2e-7, 5)
        _, ramsey = bloch.ramsey_trace(spec, omega, taus, t2=t2)
        _, echo = bloch.echo_trace(spec, omega, taus, t2=t2)
        ref_ramsey = two_pulse_reference(det, amp, wts, omega, taus, t2, refocus=False, steps=500)
        ref_echo = two_pulse_reference(det, amp, wts, omega, taus, t2, refocus=True, steps=500)
        assert np.max(np.abs(ramsey - ref_ramsey)) <= 1e-6
        assert np.max(np.abs(echo - ref_echo)) <= 1e-6


class TestWorkingSet:
    @pytest.mark.parametrize("ideal", [False, True], ids=["finite", "ideal"])
    @pytest.mark.parametrize("trace", [bloch.ramsey_trace, bloch.echo_trace], ids=["ramsey", "echo"])
    def test_member_blocks_change_no_coefficient(self, monkeypatch, trace, ideal):
        """Row blocks of 7 |Delta| x 11 amplitudes give bitwise the coefficients of one block.

        101 detuning nodes fold into 51 distinct |Delta|, which 7 does not
        divide.  Each row's tau-independent term is kept and summed once.

        ``_trig_sum`` is stubbed to record its frequencies and coefficients and
        to return zeros, so the signal left is the tau-independent part.
        """
        spec = bloch.EnsembleSpec(detuning_line=line(), rabi_spread=bloch.AmplitudeSpread(0.05), n_samples=101)
        taus = np.linspace(0.0, 2e-7, 16)

        def coefficients(elements):
            sums = []

            def recorded(t, f, c):
                sums.append((f.tobytes(), c.tobytes()))
                return np.zeros(t.size, c.dtype)

            monkeypatch.setattr(bloch, "_trig_sum", recorded)
            monkeypatch.setattr(bloch, "_TABLE_ELEMENTS", elements)
            _, signal = trace(spec, OMEGA_GROUND, taus, t2=1e-6, ideal_pulses=ideal)
            return signal.tobytes(), sums

        one_block = coefficients(6 * members(spec)[0].size)
        assert len(one_block[1]) == (2 if trace is bloch.echo_trace else 1)
        assert coefficients(6 * 7 * 11) == one_block

    def test_default_traces_stay_within_a_few_megabytes(self):
        """One default rabi trace and one default echo trace on the default 2,001 x 11 members.

        Whole trig tables took 21 MB for the rabi trace (2,001 points), and
        whole-ensemble pulse maps and coefficients 6.6 MB for the echo (201
        delays); blocks of ``_TABLE_ELEMENTS`` keep each within 3 MB.
        """
        spec = bloch.EnsembleSpec()
        tracemalloc.start()
        try:
            bloch.rabi_trace(spec, OMEGA_GROUND, np.linspace(0.0, 15.0 / 14.9e6, 2001))
            bloch.echo_trace(spec, OMEGA_GROUND, np.linspace(1e-8, 1.5e-6, 201), t2=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


@st.composite
def ensembles(draw):
    """``(spec, rabi, ideal_pulses)`` for the three ensemble kernels.

    The line is Lorentzian or Gaussian, centered on zero or off it, on 1, 2,
    or an odd or even number of detuning nodes; the amplitude spread is zero
    or not, and the pulses ideal or finite.  Detunings stay within 60 MHz,
    so that over 0.2 us no phase passes about 75 rad, and the trig sums'
    rounding (about phase x eps) stays well below the bound of the fold test.
    """
    center = draw(st.one_of(st.just(0.0), st.floats(-1e7, 1e7)))
    lineshape = spectra.LineShape(draw(st.sampled_from(spectra.LINE_KINDS)), draw(st.floats(1e5, 5e6)), center)
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 301)))
    spread = bloch.AmplitudeSpread(draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1))))
    spec = bloch.EnsembleSpec(lineshape, spread, n_samples=n, span_fwhm=draw(st.floats(1.0, 10.0)))
    return spec, draw(st.sampled_from([OMEGA_GROUND, OMEGA_EXCITED])), draw(st.booleans())


def direct_signals(spec, rabi, t, taus, t2, ideal_pulses):
    """Rabi, ramsey and echo signals summed member by member over ``members(spec)``.

    Each member has its own :func:`bloch._pulse` maps, a delay turns its
    ``u + i v`` by ``exp(1j dw tau)``, and no member is folded or merged.
    """
    det, amp, wts = members(spec)
    dw, om = 2.0 * math.pi * det, rabi * amp
    rabi_w = -(wts * bloch._pulse(om, dw, t[:, None])[3]).sum(axis=1)  # w = -eps from the ground state
    om_p, dw_p = (rabi, 0.0) if ideal_pulses else (om, dw)
    _, _, gamma, eps = bloch._pulse(om_p, dw_p, 0.5 * math.pi / rabi)
    alpha, beta, gamma_pi, _ = bloch._pulse(om_p, dw_p, math.pi / rabi)
    turn = np.exp(1j * np.multiply.outer(taus, dw)) * np.exp(-taus / t2)[:, None]
    r, w = -gamma * turn, -eps  # after the first pi/2 pulse and one delay
    ramsey = (wts * ((gamma * r).real + eps * w)).sum(axis=1)
    echo = np.abs((wts * (alpha * r + beta * np.conj(r) + gamma_pi * w) * turn).sum(axis=1))
    return rabi_w, ramsey, echo


class TestFold:
    @given(ensembles())
    def test_kernels_equal_the_sum_over_members(self, case):
        """Folding mirror detunings, summing over the amplitude axis and deriving the pi map keep every signal.

        The kernels agree with :func:`direct_signals` within 1e-14 absolute.
        """
        spec, rabi, ideal = case
        t, taus, t2 = np.linspace(0.0, 2e-7, 31), np.linspace(0.0, 2e-7, 16), 1e-6
        got = (
            bloch.rabi_trace(spec, rabi, t)[1],
            bloch.ramsey_trace(spec, rabi, taus, t2=t2, ideal_pulses=ideal)[1],
            bloch.echo_trace(spec, rabi, taus, t2=t2, ideal_pulses=ideal)[1],
        )
        for ours, direct in zip(got, direct_signals(spec, rabi, t, taus, t2, ideal)):
            assert np.max(np.abs(ours - direct)) <= 1e-14


class TestWorkCount:
    def test_kernels_work_on_the_folded_grid(self, monkeypatch):
        """On the default 2,001 x 11 ensemble, no pulse map or trig sum sees the 22,011 flattened members.

        ``_pulse`` and ``_trig_sum`` are stubbed to record their input sizes.
        The pulse maps of a kernel cover at most the distinct |Delta| x 11
        nodes, and rabi sums 11,011 frequencies and ramsey 1,001.
        """
        spec = bloch.EnsembleSpec()
        det = members(spec)[0]
        folded = np.unique(np.abs(2.0 * math.pi * det)).size * bloch.N_AMPLITUDE_NODES
        pulse, trig_sum = bloch._pulse, bloch._trig_sum
        sizes = {}

        def sized_pulse(om, dw, duration, twice=False):
            sizes["pulse"].append(np.broadcast(om, dw, duration).size)
            return pulse(om, dw, duration, twice)

        def sized_trig_sum(t, f, c):
            sizes["trig"].append(f.size)
            return trig_sum(t, f, c)

        monkeypatch.setattr(bloch, "_pulse", sized_pulse)
        monkeypatch.setattr(bloch, "_trig_sum", sized_trig_sum)
        taus = np.linspace(1e-8, 1.5e-6, 21)
        for name, run in (
            ("rabi", lambda: bloch.rabi_trace(spec, OMEGA_GROUND, np.linspace(0.0, 1e-6, 201))),
            ("ramsey", lambda: bloch.ramsey_trace(spec, OMEGA_GROUND, taus, t2=1e-6)),
            ("echo", lambda: bloch.echo_trace(spec, OMEGA_GROUND, taus, t2=1e-6)),
        ):
            sizes.update(pulse=[], trig=[])
            run()
            assert sum(sizes["pulse"]) <= folded, name
            assert max(sizes["pulse"] + sizes["trig"]) < det.size, name
            if name != "echo":
                assert sizes["trig"] == [{"rabi": 11_011, "ramsey": 1_001}[name]]


@st.composite
def trig_sums(draw, max_phase=100.0):
    """``(t, f, c)`` for ``bloch._trig_sum``.

    Evenly spaced time grids of prime, square and other sizes, from zero or a
    later start, as the kernels admit them; frequencies with repeats and 0; real or complex
    coefficients.  Phases stay within ``max_phase`` rad and the coefficient
    magnitudes sum to at most 1, as in an ensemble average.
    """
    n = draw(st.sampled_from([1, 2, 3, 5, 7, 13, 101, 4, 9, 16, 49, 400, 2001]))
    span = draw(st.floats(1e-9, 1e-5))
    t0 = draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0).map(lambda x: x * span)))
    t = np.linspace(t0, t0 + span, n)
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8)) + [0.0]
    m = draw(st.integers(1, 40))
    f = np.array(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))) * (max_phase / (t0 + span))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)
    c = np.array(draw(parts))
    if draw(st.booleans()):
        c = c + 1j * np.array(draw(parts))
    return t, f, c / (2 * m)


class TestTrigSum:
    @given(trig_sums())
    def test_equals_direct_sum(self, case):
        t, f, c = case
        direct = (c * np.exp(1j * np.multiply.outer(t, f))).sum(axis=1)
        got = bloch._trig_sum(t, f, c)
        assert np.iscomplexobj(got) == np.iscomplexobj(c)
        assert np.max(np.abs(got - (direct if np.iscomplexobj(c) else direct.real))) <= 1e-13

    @given(trig_sums(), st.floats(0.0, 1.0))
    def test_merged_members_give_the_same_sum(self, case, share):
        """A folded sum equals the sum over both mirror members.

        Each term ``c exp(i f t)`` is split into members at ``+|f|`` and
        ``-|f|`` of weights ``share`` and ``1 - share``.  Where the member at
        ``-|f|`` carries ``conj(c)``, as a ramsey product does, the real sum
        over ``|f|`` with the pair's weights added is the real sum over both
        members.  Where it carries ``-conj(c)``, as an echo product does, the
        sum over ``-|f|`` and ``+|f|`` with ``-conj`` of the weighted ``c`` is
        the sum over both members.
        """
        t, f, c = case
        c, af = c.astype(complex), np.abs(f)
        phase = np.exp(1j * np.multiply.outer(t, af))
        plus, minus = share * c, (1.0 - share) * c
        ramsey = (plus * phase + np.conj(minus) * np.conj(phase)).sum(axis=1).real
        assert np.max(np.abs(bloch._trig_sum(t, af, plus + minus).real - ramsey)) <= 1e-13
        echo = (plus * phase - np.conj(minus) * np.conj(phase)).sum(axis=1)
        folded = bloch._trig_sum(t, np.concatenate((-af, af)), np.concatenate((-np.conj(minus), plus)))
        assert np.max(np.abs(folded - echo)) <= 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double")
    @pytest.mark.parametrize("elements", [None, 1], ids=["one-table", "chunked"])
    @given(trig_sums(max_phase=2e3))
    def test_matches_long_double_reference_at_rabi_phases(self, elements, case):
        """A default rabi trace reaches about 1.1e3 rad, so phases go to 2e3.

        Against the sum of the same double inputs in long double, 4,000
        random cases per table size (drawn as here) erred by at most
        1.0 (phase + sqrt(N)) eps sum|c|, ``phase = max|f| max|t|``: the
        factored grid is within an ulp or two of t, which costs phase eps,
        and a power of a rounded ``exp(i f dt)`` carries its error up to
        sqrt(N) times.  The bound is twice that.  ``chunked`` sends the sum
        through the product in several frequency blocks: a table of one
        element leaves each merged frequency a pair of tables of its own,
        whose products are added up.
        """
        t, f, c = case
        with pytest.MonkeyPatch.context() as mp:
            if elements is not None:
                mp.setattr(bloch, "_TABLE_ELEMENTS", elements)
            got = bloch._trig_sum(t, f, c)
        phase = np.multiply.outer(t.astype(np.longdouble), f.astype(np.longdouble))
        cl = c.astype(np.clongdouble)
        ref = (np.cos(phase) * cl + 1j * np.sin(phase) * cl).sum(axis=1)
        ref = ref.astype(complex) if np.iscomplexobj(c) else ref.real.astype(float)
        bound = 2.0 * (np.abs(f).max() * np.abs(t).max() + math.sqrt(t.size)) * np.finfo(float).eps
        assert np.max(np.abs(got - ref)) <= bound * np.abs(c).sum()


rates = st.one_of(st.just(0.0), st.floats(-1e9, 1e9))  # rad/s


class TestPulse:
    @given(rates, rates, st.floats(0.0, 1e-5))
    def test_complex_map_is_the_rodrigues_rotation(self, om, dw, duration):
        """The 3x3 matrix of the complex map is ``c I + s [k]x + (1 - c) k k^T``, a proper rotation."""
        alpha, beta, gamma, eps = bloch._pulse(om, dw, duration)
        # columns: the images of u (r_perp = 1), v (r_perp = i) and w
        images = [(alpha + beta, gamma.real), (1j * alpha - 1j * beta, (1j * gamma).real), (gamma, eps)]
        got = np.array([[r.real, r.imag, w] for r, w in images]).T
        gen = math.hypot(om, dw)
        kx, kz = (om / gen, dw / gen) if gen > 0 else (0.0, 0.0)
        c, s = math.cos(gen * duration), math.sin(gen * duration)
        k = np.array([kx, 0.0, kz])
        cross = np.array([[0.0, -kz, 0.0], [kz, 0.0, -kx], [0.0, kx, 0.0]])
        rodrigues = c * np.eye(3) + s * cross + (1.0 - c) * np.outer(k, k)
        assert np.max(np.abs(got - rodrigues)) <= 1e-12
        assert np.max(np.abs(got @ got.T - np.eye(3))) <= 1e-12
        assert np.linalg.det(got) == pytest.approx(1.0, abs=1e-12)

    @given(rates, rates, st.floats(0.0, 1e-5))
    def test_mirror_detuning_conjugates_the_map(self, om, dw, duration):
        """At ``-dw`` the map is ``(conj(alpha), beta, -conj(gamma), eps)`` exactly, which the kernels' fold relies on."""
        alpha, beta, gamma, eps = bloch._pulse(om, dw, duration)
        assert bloch._pulse(om, -dw, duration) == (np.conj(alpha), beta, -np.conj(gamma), eps)

    @given(rates, rates, st.floats(0.0, 1e-5))
    def test_doubled_map_is_the_pulse_twice_as_long(self, om, dw, duration):
        """``twice`` returns the map itself bitwise, and a map within 4 ulps of 1 of ``_pulse`` at twice the duration."""
        one, two = bloch._pulse(om, dw, duration, twice=True)
        assert all(a == b for a, b in zip(one, bloch._pulse(om, dw, duration)))
        for a, b in zip(two, bloch._pulse(om, dw, 2.0 * duration)):
            assert abs(a - b) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bloch.Pulse(rabi=-1.0, duration=1e-7), "rabi must be >= 0"),
        (lambda: bloch.Pulse(rabi=OMEGA_GROUND, duration=-1e-7), "duration must be >= 0"),
        (lambda: bloch.AmplitudeSpread(-0.01), "half_width must be >= 0"),
        (lambda: bloch.EnsembleSpec(n_samples=0), "n_samples must be >= 1"),
        (lambda: bloch.EnsembleSpec(span_fwhm=0.0), "span_fwhm must be > 0"),
        (lambda: bloch.EnsembleSpec(span_fwhm=1.7e308), "span_fwhm = 1.7e\\+308 .* no finite grid ends"),
        (lambda: bloch.rabi_trace(spec_no_spread(n=11), OMEGA_GROUND, []), "t_grid must be a non-empty 1-d array"),
        (lambda: bloch.pi_fidelity_center(0.0, bloch.AmplitudeSpread()), "rabi must be > 0"),
        (lambda: bloch.pi_fidelity_avg(0.0, spec_no_spread(n=11)), "rabi must be > 0"),
        (lambda: bloch.ramsey_trace(spec_no_spread(n=11), 0.0, np.linspace(0.0, 1e-7, 16)), "rabi must be > 0"),
    ],
    ids=[
        "pulse-rabi", "pulse-duration", "spread", "no-nodes", "zero-span", "span-overflow", "empty-time-axis",
        "center-rabi", "average-rabi", "two-pulse-rabi",
    ],
)
def test_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()
