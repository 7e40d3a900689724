"""Coherent two-level dynamics under rectangular microwave pulses.

A spin is a Bloch vector (u, v, w) with w the inversion.  In the frame
rotating at the drive frequency, a rectangular pulse of Rabi angular
frequency Omega, phase phi and detuning Delta (Hz) rotates the vector
about the axis

    (Omega cos phi, Omega sin phi, 2 pi Delta)

by the angle ``sqrt(Omega^2 + (2 pi Delta)^2) * duration``.  Pulses are
propagated by this exact rotation rather than by ODE stepping; relaxation
during pulses is neglected since pulse durations (tens of ns) are five
orders of magnitude below all lifetimes.  Each member's pulse rotations are
built once; a delay is a z-rotation by ``2 pi Delta tau``, so Ramsey and echo
signals are evaluated in closed form in tau, as trig sums over members, like
the Rabi trace in t.

Ensembles carry a detuning distribution (the inhomogeneous spin line) and
a relative Rabi-amplitude distribution (drive-field inhomogeneity).  Grid
quadrature is deterministic; Monte Carlo quadrature requires an explicit
seed and is then bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectra import LineShape, line_value


class ConvergenceError(RuntimeError):
    """A quadrature failed to converge to the requested tolerance."""


#: Fixed number of amplitude nodes used by grid quadrature.
N_AMPLITUDE_NODES = 11

#: Relative tolerance of the adaptive detuning quadrature.
QUADRATURE_RTOL = 1e-4


@dataclass(frozen=True)
class BlochVector:
    u: float
    v: float
    w: float

    def __post_init__(self):
        if not self.norm <= 1.0 + 1e-9:
            raise ValueError(f"Bloch vector norm {self.norm} exceeds 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.u**2 + self.v**2 + self.w**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w])


#: Ensemble members start here unless stated otherwise.
GROUND = BlochVector(0.0, 0.0, -1.0)


@dataclass(frozen=True)
class Pulse:
    """Rectangular drive pulse.

    ``rabi`` in rad/s, ``duration`` in s, ``phase`` in rad,
    ``detuning_offset`` in Hz (added to any ensemble detuning).
    """

    rabi: float
    duration: float
    phase: float = 0.0
    detuning_offset: float = 0.0

    def __post_init__(self):
        if self.rabi < 0:
            raise ValueError("rabi must be >= 0")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


@dataclass(frozen=True)
class Delay:
    """Free evolution interval in seconds."""

    duration: float

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


@dataclass(frozen=True)
class Sequence:
    """Ordered pulses and delays, with optional dephasing during delays.

    ``t2`` (seconds) damps the transverse components during delays only;
    it is the phenomenological coherence time, not a bath model.  Element
    dispatch is by type, so further element kinds (shaped pulses) can be
    added without changing consumers.
    """

    elements: tuple
    t2: float | None = None

    def __post_init__(self):
        for el in self.elements:
            if not isinstance(el, (Pulse, Delay)):
                raise ValueError(f"unsupported sequence element {el!r}")
        if self.t2 is not None and not self.t2 > 0:
            raise ValueError("t2 must be > 0")
        object.__setattr__(self, "elements", tuple(self.elements))


@dataclass(frozen=True)
class AmplitudeSpread:
    """Relative Rabi-amplitude distribution, uniform on [1-hw, 1+hw]."""

    half_width: float = 0.0
    kind: str = "uniform"

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")
        if self.kind != "uniform":
            raise ValueError("only the uniform spread is implemented")


@dataclass(frozen=True)
class EnsembleSpec:
    """Detuning line, amplitude spread and quadrature for ensemble averages.

    ``n_samples`` is the number of detuning nodes (grid mode) or of joint
    Monte Carlo samples.  The detuning axis is truncated at
    ``span_fwhm`` line widths in both modes so they estimate the same
    truncated ensemble.  A Lorentzian line loses the mass
    ``1 - (2/pi) atan(2 span_fwhm)`` beyond the span, about 1.6% at the
    default ``span_fwhm = 20``.
    """

    detuning_line: LineShape = field(default_factory=lambda: LineShape("lorentzian", 9e6))
    rabi_spread: AmplitudeSpread = field(default_factory=lambda: AmplitudeSpread(0.01))
    n_samples: int = 2001
    quadrature: str = "grid"
    seed: int | None = None
    span_fwhm: float = 20.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.quadrature not in ("grid", "monte-carlo"):
            raise ValueError("quadrature must be 'grid' or 'monte-carlo'")
        if self.quadrature == "monte-carlo" and self.seed is None:
            raise ValueError("monte-carlo quadrature requires an explicit seed")
        if self.span_fwhm <= 0:
            raise ValueError("span_fwhm must be > 0")

    def members(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened (detunings_hz, relative_amplitudes, weights)."""
        if self.quadrature == "grid":
            d, wd = _detuning_grid(self.detuning_line, self.n_samples, self.span_fwhm)
            a, wa = _amplitude_grid(self.rabi_spread)
            det = np.repeat(d, a.size)
            amp = np.tile(a, d.size)
            wts = np.repeat(wd, a.size) * np.tile(wa, d.size)
            return det, amp, wts / wts.sum()
        rng = np.random.default_rng(self.seed)
        det = _sample_line(rng, self.detuning_line, self.n_samples, self.span_fwhm)
        hw = self.rabi_spread.half_width
        amp = 1.0 + hw * (2.0 * rng.random(self.n_samples) - 1.0)
        wts = np.full(self.n_samples, 1.0 / self.n_samples)
        return det, amp, wts


def _detuning_grid(line: LineShape, n: int, span_fwhm: float):
    if n == 1:
        return np.array([line.center]), np.array([1.0])
    f = line.center + np.linspace(-span_fwhm * line.fwhm, span_fwhm * line.fwhm, n)
    w = np.asarray(line_value(line, f)).copy()
    w[0] *= 0.5
    w[-1] *= 0.5  # trapezoid end weights
    return f, w / w.sum()


def _amplitude_grid(spread: AmplitudeSpread):
    hw = spread.half_width
    if hw == 0.0:
        return np.array([1.0]), np.array([1.0])
    a = 1.0 + hw * np.linspace(-1.0, 1.0, N_AMPLITUDE_NODES)
    w = np.ones(N_AMPLITUDE_NODES)
    w[0] = w[-1] = 0.5
    return a, w / w.sum()


def _sample_line(rng, line: LineShape, n: int, span_fwhm: float) -> np.ndarray:
    """Draw n detunings from the line, rejecting beyond the grid span."""
    bound = span_fwhm * line.fwhm
    out = np.empty(n)
    filled = 0
    while filled < n:
        if line.kind == "lorentzian":
            cand = 0.5 * line.fwhm * np.tan(np.pi * (rng.random(n) - 0.5))
        else:
            sigma = line.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            cand = sigma * rng.standard_normal(n)
        cand = cand[np.abs(cand) <= bound][: n - filled]
        out[filled : filled + cand.size] = cand
        filled += cand.size
    return line.center + out


# ---------------------------------------------------------------------------
# Rotation kernels


def _rotation(kx, ky, kz, angle) -> np.ndarray:
    """(..., 3, 3) Rodrigues matrices about unit axes (kx, ky, kz) by angle."""
    kx, ky, kz, angle = np.broadcast_arrays(kx, ky, kz, angle)
    zero = np.zeros_like(angle)
    cross = np.stack([zero, -kz, ky, kz, zero, -kx, -ky, kx, zero], -1).reshape(angle.shape + (3, 3))
    k = np.stack([kx, ky, kz], -1)[..., None]
    c, s = np.cos(angle)[..., None, None], np.sin(angle)[..., None, None]
    return c * np.eye(3) + s * cross + (1.0 - c) * k * np.swapaxes(k, -1, -2)


def _pulse_matrix(omega, dw, duration, phase=0.0) -> np.ndarray:
    """Pulse rotations; ``omega`` and ``dw`` (= 2 pi detuning), in rad/s, broadcast."""
    gen = np.hypot(omega, dw)
    safe = np.where(gen == 0.0, 1.0, gen)
    kx, ky = omega * np.cos(phase) / safe, omega * np.sin(phase) / safe
    return _rotation(kx, ky, dw / safe, gen * duration)


def _trig_sum(t: np.ndarray, f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``sum_m c_m exp(i f_m t)`` at every t, in chunks of the time axis.

    Real ``c`` gives the real part only and evaluates no sines.
    """
    real = not np.iscomplexobj(c)
    coeff = c if real else np.stack([c.real, c.imag], axis=-1)
    out = np.empty(t.size, float if real else complex)
    chunk = max(1, int(2e6 // max(f.size, 1)))
    for lo in range(0, t.size, chunk):
        phase = np.multiply.outer(t[lo : lo + chunk], f)
        part = np.cos(phase) @ coeff
        if not real:
            sin = np.sin(phase) @ coeff
            part = (part[:, 0] - sin[:, 1]) + 1j * (part[:, 1] + sin[:, 0])
        out[lo : lo + chunk] = part
    return out


def propagate(b: BlochVector, p: Pulse, detuning: float = 0.0) -> BlochVector:
    """Exact rotation of ``b`` under pulse ``p`` at ``detuning`` Hz.

    Total detuning is ``detuning + p.detuning_offset``.  Composition is
    exact: two half-duration pulses reproduce the full pulse to rounding.
    """
    dw = 2.0 * np.pi * (detuning + p.detuning_offset)
    return BlochVector(*(_pulse_matrix(p.rabi, dw, p.duration, p.phase) @ b.as_array()))


def run_sequence(b: BlochVector, seq: Sequence, detuning: float = 0.0) -> BlochVector:
    """Propagate a single Bloch vector through a pulse/delay sequence.

    A delay is free precession about z; a finite ``seq.t2`` damps the
    transverse components over it.
    """
    vec = b.as_array()
    for el in seq.elements:
        if isinstance(el, Pulse):
            dw = 2.0 * np.pi * (detuning + el.detuning_offset)
            m = _pulse_matrix(el.rabi, dw, el.duration, el.phase)
        else:
            m = _rotation(0.0, 0.0, 1.0, 2.0 * np.pi * detuning * el.duration)
            if seq.t2 is not None:
                m[:2] *= math.exp(-el.duration / seq.t2)
        vec = m @ vec
    n = np.linalg.norm(vec)
    if n > 1.0:  # shave rounding overshoot so the result stays a valid state
        vec = vec / n
    return BlochVector(*vec)


# ---------------------------------------------------------------------------
# Ensemble observables


def _time_axis(grid, name: str) -> np.ndarray:
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if np.any(np.diff(t) < 0):
        raise ValueError(f"{name} must be sorted ascending")
    return t


def rabi_trace(spec: EnsembleSpec, rabi: float, t_grid, initial_w: float = -1.0):
    """Ensemble-averaged inversion under continuous resonant drive.

    Starting from ``w = initial_w`` (ground initialization by default, or
    the excited-state analog), each member evolves under its detuning and
    scaled Rabi amplitude; the closed-form inversion is averaged with the
    quadrature weights.  Returns ``(times, mean_inversion)``.

    Detuning dephasing makes the oscillation contrast decay, which also
    pulls a plain damped-sinusoid fit of short traces above the drive
    frequency; windows of roughly 15 Rabi periods keep the fitted
    frequency within 1%.
    """
    t = _time_axis(t_grid, "t_grid")
    det, amp, wts = spec.members()
    om = rabi * amp
    dw = 2.0 * np.pi * det
    gen2 = om**2 + dw**2
    gen2 = np.where(gen2 == 0.0, 1.0, gen2)
    frac = wts * om**2 / gen2
    # w(t) = w0 (1 - frac + frac cos(gen t)) member-wise
    mean_w = initial_w * ((wts - frac).sum() + _trig_sum(t, np.sqrt(gen2), frac))
    return t, mean_w


def pi_fidelity_center(rabi: float, amplitude_spread: AmplitudeSpread) -> float:
    """Resonant pi-pulse transfer probability averaged over drive amplitude.

    The pulse duration is pi/rabi; a member with relative amplitude
    ``1 + delta`` transfers with probability ``1 - sin^2(pi delta / 2)``,
    so the infidelity grows quadratically in the spread.  Equals 1 for
    zero spread.
    """
    if rabi <= 0:
        raise ValueError("rabi must be > 0")
    if amplitude_spread.half_width == 0.0:
        return 1.0
    # denser nodes than the trace quadrature; this is a cheap 1-d average
    a = 1.0 + amplitude_spread.half_width * np.linspace(-1.0, 1.0, 201)
    w = np.ones(201)
    w[0] = w[-1] = 0.5
    transfer = np.sin(np.pi * a / 2.0) ** 2
    return float((w * transfer).sum() / w.sum())


def pi_fidelity_avg(rabi: float, spec: EnsembleSpec) -> float:
    """Pi-pulse transfer probability averaged over the detuning line.

    Line-weighted mean of the generalized Rabi transfer probability

        P(Delta) = Omega^2/Omega_g^2 * sin^2(Omega_g t_pi / 2),
        Omega_g = sqrt(Omega^2 + (2 pi Delta)^2),  t_pi = pi / Omega,

    on the truncated detuning grid.  The grid is doubled until the value
    changes by less than ``QUADRATURE_RTOL`` relatively; failure to settle
    raises :class:`ConvergenceError`.  Monotonically increasing in the
    ratio of Rabi frequency to line width.
    """
    if rabi <= 0:
        raise ValueError("rabi must be > 0")
    n = max(spec.n_samples, 3)

    def value(npts: int) -> float:
        d, w = _detuning_grid(spec.detuning_line, npts, spec.span_fwhm)
        dw = 2.0 * np.pi * d  # absolute detuning from the drive, as everywhere
        gen2 = rabi**2 + dw**2
        p = (rabi**2 / gen2) * np.sin(0.5 * np.sqrt(gen2) * np.pi / rabi) ** 2
        return float((w * p).sum())

    prev = value(n)
    for _ in range(8):
        n = 2 * n - 1
        cur = value(n)
        if abs(cur - prev) <= QUADRATURE_RTOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise ConvergenceError("detuning quadrature did not converge on grid doubling")


def _two_pulse_signal(spec, rabi, tau_grid, refocus: bool, t2, ideal_pulses: bool):
    """Ramsey inversion or echo magnitude, in closed form in tau.

    Pulse matrices are built once per member.  A delay turns the transverse
    part ``u + i v`` by ``exp(i dw tau)`` and damps it by ``exp(-tau/t2)``,
    so each member's signal is a trig polynomial in ``dw tau``.
    """
    if rabi <= 0:
        raise ValueError("rabi must be > 0")
    if not t2 > 0:
        raise ValueError("t2 must be > 0")
    taus = _time_axis(tau_grid, "tau_grid")
    det, amp, wts = spec.members()
    dw = 2.0 * np.pi * det
    # ideal pulses are the same resonant x rotations for every member
    om, off = (rabi, 0.0) if ideal_pulses else (rabi * amp, dw)
    half, full = (_pulse_matrix(om, off, k * np.pi / rabi) for k in (0.5, 1.0))
    damp = np.exp(-taus / t2)
    a = -half[..., :, 2]  # (0, 0, -1) after the first pi/2 pulse
    a_perp = a[..., 0] + 1j * a[..., 1]
    if not refocus:
        q = half[..., 2, :]  # w after the second pi/2 pulse is q . r
        h0 = (wts * q[..., 2] * a[..., 2]).sum()
        h1 = wts * (q[..., 0] - 1j * q[..., 1]) * a_perp
        return taus, h0 + damp * _trig_sum(taus, dw, h1).real
    # transverse part after the pi pulse: alpha r_perp + beta conj(r_perp) + gamma r_z
    col = full[..., 0, :] + 1j * full[..., 1, :]
    alpha = 0.5 * (col[..., 0] - 1j * col[..., 1])
    beta = 0.5 * (col[..., 0] + 1j * col[..., 1])
    gamma = col[..., 2]
    h0 = (wts * beta * np.conj(a_perp)).sum()
    h1 = wts * gamma * a[..., 2]
    h2 = wts * alpha * a_perp
    perp = damp**2 * (h0 + _trig_sum(taus, 2.0 * dw, h2)) + damp * _trig_sum(taus, dw, h1)
    return taus, np.abs(perp)


def ramsey_trace(
    spec: EnsembleSpec,
    rabi: float,
    tau_grid,
    t2: float = math.inf,
    ideal_pulses: bool = False,
):
    """pi/2 - delay(tau) - pi/2 sequence, mean inversion versus tau.

    At tau = 0 the two pulses compose to a pi-pulse.  With ideal
    (instantaneous) pulses and a Lorentzian line of width Gamma the
    envelope is ``exp(-pi Gamma tau)`` up to the line truncation; finite
    pulses reduce the tau = 0 transfer to the averaged pi-pulse fidelity.
    Returns ``(taus, mean_inversion)``.
    """
    return _two_pulse_signal(spec, rabi, tau_grid, refocus=False, t2=t2, ideal_pulses=ideal_pulses)


def echo_trace(
    spec: EnsembleSpec,
    rabi: float,
    tau_grid,
    t2: float,
    ideal_pulses: bool = False,
):
    """pi/2 - tau - pi - tau sequence, echo amplitude versus total time.

    The signal is the magnitude of the ensemble-averaged transverse
    component at time 2 tau.  Ideal pulses refocus the inhomogeneous
    dephasing exactly, leaving the phenomenological ``exp(-2 tau / t2)``
    envelope; ``t2 = math.inf`` keeps the echo at unit amplitude.
    Returns ``(2 tau, amplitude)``.
    """
    taus, sig = _two_pulse_signal(spec, rabi, tau_grid, refocus=True, t2=t2, ideal_pulses=ideal_pulses)
    return 2.0 * taus, sig
