"""Coherent two-level dynamics under rectangular microwave pulses.

A spin is a Bloch vector (u, v, w) with w the inversion.  In the frame
rotating at the drive frequency, a rectangular pulse of Rabi angular
frequency Omega, phase phi and detuning Delta (Hz) rotates the vector
about the axis

    (Omega cos phi, Omega sin phi, 2 pi Delta)

by the angle ``sqrt(Omega^2 + (2 pi Delta)^2) * duration``.  Pulses are
propagated by this exact rotation rather than by ODE stepping; relaxation
during pulses is neglected since pulse durations (tens of ns) are five
orders of magnitude below all lifetimes.  One elementwise helper,
:func:`_pulse`, gives that rotation for phase 0 in complex form: with
``r_perp = u + i v``, four coefficients map ``r_perp`` and ``w``; a phase
turns ``r_perp`` by ``exp(-i phi)`` before the map and back after it.
:func:`propagate` applies one pulse to one spin, and the pi-pulse fidelities
read the ground-state transfer probability from the same map.  The three
protocols, Rabi, Ramsey and echo, are ensemble kernels: each member's pulse
maps are built once, one block of members at a time; a delay is a
z-rotation by ``2 pi Delta tau``, so Ramsey and echo signals are evaluated
in closed form in tau, as trig sums over members, like the Rabi trace in t.
A trig sum merges members of equal frequency (Rabi's generalized frequencies
are even in the detuning; the two-pulse harmonics do not depend on the
amplitude node) and splits a uniform time grid of N points into about
sqrt(N) blocks whose tables are complex powers of one step, so it needs 3
trig values per frequency, and products about 2 log2(sqrt(N)) roundings
deep, instead of N trig values; a grid that is not uniform is summed
directly.  The tables are built one block of frequencies at a time.  Member
and frequency blocks stay within ``_TABLE_ELEMENTS``, so the tables a kernel
holds at once do not grow with the ensemble or the time grid.

Ensembles carry a detuning distribution (the inhomogeneous spin line) and
a relative Rabi-amplitude distribution (drive-field inhomogeneity), both
averaged on a deterministic grid.
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
    """Rectangular drive pulse: ``rabi`` in rad/s, ``duration`` in s, ``phase`` in rad."""

    rabi: float
    duration: float
    phase: float = 0.0

    def __post_init__(self):
        if self.rabi < 0:
            raise ValueError("rabi must be >= 0")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


@dataclass(frozen=True)
class AmplitudeSpread:
    """Relative Rabi-amplitude distribution, uniform on [1-hw, 1+hw]."""

    half_width: float = 0.0

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")


@dataclass(frozen=True)
class EnsembleSpec:
    """Detuning line and amplitude spread, averaged on a grid.

    ``n_samples`` is the number of detuning nodes.  The detuning axis is
    truncated at ``span_fwhm`` line widths.  A Lorentzian line loses the
    mass ``1 - (2/pi) atan(2 span_fwhm)`` beyond the span, about 1.6% at
    the default ``span_fwhm = 20``.
    """

    detuning_line: LineShape = field(default_factory=lambda: LineShape("lorentzian", 9e6))
    rabi_spread: AmplitudeSpread = field(default_factory=lambda: AmplitudeSpread(0.01))
    n_samples: int = 2001
    span_fwhm: float = 20.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.span_fwhm <= 0:
            raise ValueError("span_fwhm must be > 0")

    def members(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened (detunings_hz, relative_amplitudes, weights)."""
        d, wd = _detuning_grid(self.detuning_line, self.n_samples, self.span_fwhm)
        a, wa = _amplitude_grid(self.rabi_spread)
        det = np.repeat(d, a.size)
        amp = np.tile(a, d.size)
        wts = np.repeat(wd, a.size) * np.tile(wa, d.size)
        return det, amp, wts / wts.sum()


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


# ---------------------------------------------------------------------------
# Pulse and trig-sum kernels


def _pulse(om, dw, duration):
    """A phase-0 pulse as ``(alpha, beta, gamma, eps)``, elementwise over broadcast inputs.

    ``om`` and ``dw`` (= 2 pi detuning) are in rad/s.  The pulse rotates by
    the angle ``G duration``, ``G = hypot(om, dw)``, about the axis
    ``(kx, 0, kz) = (om, 0, dw) / G``.  In complex form, with ``r_perp =
    u + i v``, it maps

        r_perp -> alpha r_perp + beta conj(r_perp) + gamma w
        w      -> Re(gamma r_perp) + eps w

    which is the Rodrigues rotation ``c I + s [k]x + (1 - c) k k^T``
    (Levitt, Spin Dynamics, ch. 10).  ``beta`` is the transfer probability
    from the ground state.
    """
    gen = np.hypot(om, dw)
    safe = np.where(gen == 0.0, 1.0, gen)
    kx, kz = om / safe, dw / safe
    angle = gen * duration
    c, s = np.cos(angle), np.sin(angle)
    vers = 1.0 - c
    beta = 0.5 * vers * kx**2
    return c + beta + 1j * s * kz, beta, kx * (vers * kz - 1j * s), c + vers * kz**2


#: Largest table, in elements, that an ensemble kernel builds at once: the
#: trig tables of ``_trig_sum``, and the pulse maps of ``_two_pulse_signal``,
#: whose member blocks are a sixth of it, since ``alpha`` and ``gamma`` are
#: complex and ``beta`` and ``eps`` real.  A trig table (256 KiB) stays in
#: cache, and a complex member array (43 KiB) below glibc's default mmap
#: threshold, so blocks reuse warm heap memory instead of faulting fresh pages.
_TABLE_ELEMENTS = 2**14


def _powers(first: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """(n, M) table ``first * z**k``, k < n, by doubling, written in place.

    ``out[m:2m] = out[:m] * z**m`` with ``z**m`` from repeated squaring, so
    no entry is more than about 2 log2(n) products away from a trig value.
    """
    out = np.empty((n,) + first.shape, complex)
    out[0] = first
    m = 1
    while m < n:
        k = min(m, n - m)
        np.multiply(out[:k], z, out=out[m : m + k])
        m, z = 2 * m, z * z
    return out


def _merge(f: np.ndarray, *cs: np.ndarray):
    """The distinct values of ``f``, sorted, and each ``c`` summed over the members of each value.

    Members merge only where their frequencies are bitwise equal, so no
    symmetry of the ensemble is assumed.  Doubling ``f`` doubles the distinct
    values and keeps which members share one, so a harmonic reuses a merge.
    """
    f, member = np.unique(f, return_inverse=True)
    return f, *(
        np.bincount(member, c.real, f.size) + 1j * np.bincount(member, c.imag, f.size) if np.iscomplexobj(c)
        else np.bincount(member, c, f.size) for c in cs
    )


def _trig_sum(t: np.ndarray, f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``sum_m c_m exp(i f_m t)`` at every t; real ``c`` gives the real part.

    Callers merge members of bitwise-equal frequency first (:func:`_merge`);
    a repeated frequency still sums right, at the cost of its own tables.  A
    grid within a few ulps of ``t[0] + k dt`` is split into blocks of
    B = round(sqrt(N)) points, ``t[J B + j] = a_J + j dt``, and the sum is
    ``L @ R.T`` with ``R[j] = c z**j``, ``z = exp(i f dt)``, and
    ``L[J] = exp(i f t[0]) w**J``, ``w = exp(i f B dt)``, both tables built
    by :func:`_powers`.  A frequency thus costs 3 trig values, and products
    about 2 log2(sqrt(N)) roundings deep, instead of the direct sum's N trig
    values.  The merged frequencies go through in blocks, each small enough
    that its two tables stay within ``_TABLE_ELEMENTS``, and the blocks'
    products are added up in frequency order.  A grid that is not uniform
    takes B = 1 and a table of ``exp(i f t)``, which is the direct sum.
    """
    real = not np.iscomplexobj(c)
    n = t.size
    dt = (t[-1] - t[0]) / max(n - 1, 1)
    uniform = np.abs(t[0] + dt * np.arange(n) - t).max() <= 4 * np.finfo(float).eps * np.abs(t).max()
    block = round(math.sqrt(n)) if uniform else 1
    starts = t[::block]
    width = max(1, _TABLE_ELEMENTS // max(block, starts.size))  # frequencies per table
    out = np.zeros((starts.size, block), complex)
    for lo in range(0, f.size, width):
        fb = f[lo : lo + width]
        right = _powers(c[lo : lo + width].astype(complex), np.exp(1j * fb * dt), block)
        if uniform:
            left = _powers(np.exp(1j * fb * t[0]), np.exp(1j * fb * (block * dt)), starts.size)
        else:
            left = np.exp(1j * np.multiply.outer(starts, fb))
        out += left @ right.T
    out = out.ravel()[:n]
    return out.real if real else out


def propagate(b: BlochVector, p: Pulse, detuning: float = 0.0) -> BlochVector:
    """Exact rotation of ``b`` under pulse ``p`` at ``detuning`` Hz.

    The phase-0 map of :func:`_pulse` acts on ``r_perp`` turned by
    ``exp(-i phase)``, which is then turned back.  Composition is exact:
    two half-duration pulses reproduce the full pulse to rounding.
    """
    alpha, beta, gamma, eps = _pulse(p.rabi, 2.0 * np.pi * detuning, p.duration)
    turn = complex(math.cos(p.phase), math.sin(p.phase))
    r = complex(b.u, b.v) * turn.conjugate()
    out = (alpha * r + beta * r.conjugate() + gamma * b.w) * turn
    return BlochVector(out.real, out.imag, (gamma * r).real + eps * b.w)


# ---------------------------------------------------------------------------
# Ensemble observables


def _time_axis(grid, name: str) -> np.ndarray:
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if np.any(np.diff(t) < 0):
        raise ValueError(f"{name} must be sorted ascending")
    return t


def rabi_trace(spec: EnsembleSpec, rabi: float, t_grid):
    """Ensemble-averaged inversion under continuous resonant drive.

    Starting from the ground state ``w = -1``, each member evolves under
    its detuning and scaled Rabi amplitude; the closed-form inversion is
    averaged with the quadrature weights.  Returns ``(times, mean_inversion)``.

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
    # w(t) = -(1 - frac + frac cos(gen t)) member-wise
    mean_w = -((wts - frac).sum() + _trig_sum(t, *_merge(np.sqrt(gen2), frac)))
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
    transfer = _pulse(rabi * a, 0.0, np.pi / rabi)[1]
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
        p = _pulse(rabi, 2.0 * np.pi * d, np.pi / rabi)[1]  # absolute detuning from the drive, as everywhere
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

    Each member's pulse maps (:func:`_pulse`) are built once, over blocks of
    members within ``_TABLE_ELEMENTS``; every step per member is elementwise,
    so the blocks change no value.  A delay turns the transverse part
    ``u + i v`` by ``exp(i dw tau)`` and damps it by ``exp(-tau/t2)``, so
    each member's signal is a trig polynomial in ``dw tau``.
    """
    if rabi <= 0:
        raise ValueError("rabi must be > 0")
    if not t2 > 0:
        raise ValueError("t2 must be > 0")
    taus = _time_axis(tau_grid, "tau_grid")
    det, amp, wts = spec.members()
    dw = 2.0 * np.pi * det
    # per member: the terms of the tau-independent part, then the coefficients of harmonics 1 and 2 of dw tau
    h0 = np.empty(det.size, complex if refocus else float)
    h = np.empty((2 if refocus else 1, det.size), complex)
    step = max(1, _TABLE_ELEMENTS // 6)
    for lo in range(0, det.size, step):
        s = slice(lo, lo + step)
        # ideal pulses are the same resonant x rotations for every member
        om, off = (rabi, 0.0) if ideal_pulses else (rabi * amp[s], dw[s])
        _, _, gamma, eps = _pulse(om, off, 0.5 * np.pi / rabi)
        a_perp, a_z = -gamma, -eps  # (0, 0, -1) after the first pi/2 pulse
        if not refocus:  # w after the second pi/2 pulse is Re(gamma r_perp) + eps r_z
            h0[s] = wts[s] * eps * a_z
            h[0, s] = wts[s] * gamma * a_perp
            continue
        alpha, beta, gamma, _ = _pulse(om, off, np.pi / rabi)
        h0[s] = wts[s] * beta * np.conj(a_perp)
        h[0, s] = wts[s] * gamma * a_z
        h[1, s] = wts[s] * alpha * a_perp
    damp = np.exp(-taus / t2)
    f, *c = _merge(dw, *h)  # one merge serves both harmonics
    if not refocus:
        return taus, h0.sum() + damp * _trig_sum(taus, f, c[0]).real
    perp = damp**2 * (h0.sum() + _trig_sum(taus, 2.0 * f, c[1])) + damp * _trig_sum(taus, f, c[0])
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
