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
:func:`propagate` applies one pulse to one spin, and the line-averaged
pi-pulse fidelity reads the ground-state transfer probability from the same
map.  The three
protocols, Rabi, Ramsey and echo, are ensemble kernels that read the
grid's two axes, detuning and amplitude, never its flattened members.  A
pulse at ``-Delta`` is the one at ``+Delta`` with its axis's z component
negated, so the kernels fold mirror detunings once (:func:`_folded`) and
build pulse maps only on the distinct ``|Delta|``, one block of rows at a
time; the echo's pi map comes from its pi/2 map by double angles.  A delay
is a z-rotation by ``2 pi Delta tau``, so Ramsey and echo signals are
evaluated in closed form in tau, as trig sums over the folded grid, like
the Rabi trace in t: Rabi's generalized frequencies and the Ramsey signal
are even in the detuning, and an echo coefficient at ``-|Delta|`` is
``-conj`` of one summed at ``+|Delta|``.  A trig sum splits an evenly
spaced grid of N points into about sqrt(N) blocks whose tables are complex
powers of one step, so it needs 3 trig values per frequency, and products
about 2 log2(sqrt(N)) roundings deep, instead of N trig values.  The
kernels therefore take only ascending, evenly spaced time and delay grids,
as ``np.linspace`` builds them, and raise :class:`ValueError` on any other.
The tables are built one block of frequencies at a time.  Row and
frequency blocks stay within ``_TABLE_ELEMENTS``, so the tables a kernel
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


#: Fixed number of amplitude nodes used by grid quadrature.
N_AMPLITUDE_NODES = 11


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
    the default ``span_fwhm = 20``.  Every trace and the line-averaged pi
    fidelity sum once over this grid, which takes ``n_samples`` as given:
    the experiments' build rule decides which grids resolve the line, and
    the library still takes any, one node at the line center included.  A
    grid on whose every node the line density underflows to 0, such as a
    Gaussian line on two nodes 20 widths out, has no weights and raises
    :class:`ValueError`; an odd ``n_samples`` puts a node at the line
    center.
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
        _detuning_grid(self.detuning_line, self.n_samples, self.span_fwhm)  # weights that sum to 0 are no grid


def _folded(spec: EnsembleSpec):
    """The (detuning, amplitude) grid with mirror detunings folded: ``(adw, a, wf)``.

    A node's weight is the product of its detuning and amplitude weights,
    scaled so that all sum to 1.  ``adw`` holds the distinct ``|2 pi
    Delta|`` in ascending order, ``a`` the amplitude nodes, and ``wf[0, j,
    k]`` and ``wf[1, j, k]`` the summed weights of the nodes at ``+adw[j]``
    and ``-adw[j]`` with amplitude ``a[k]``.  Nodes fold only where their
    ``|2 pi Delta|`` are bitwise equal, so no symmetry of the line is
    assumed.
    """
    d, wd = _detuning_grid(spec.detuning_line, spec.n_samples, spec.span_fwhm)
    a, wa = _amplitude_grid(spec.rabi_spread)
    w = np.multiply.outer(wd, wa)
    w = w / w.sum()
    dw = 2.0 * np.pi * d
    adw, j = np.unique(np.abs(dw), return_inverse=True)
    node = ((dw < 0) * adw.size + j)[:, None] * a.size + np.arange(a.size)
    return adw, a, np.bincount(node.ravel(), w.ravel(), 2 * adw.size * a.size).reshape(2, adw.size, a.size)


def _detuning_grid(line: LineShape, n: int, span_fwhm: float):
    if n == 1:
        return np.array([line.center]), np.array([1.0])
    half = span_fwhm * line.fwhm
    if not math.isfinite(2.0 * half):  # np.linspace steps across the full width
        raise ValueError(f"span_fwhm = {span_fwhm:g} widths of line_fwhm_hz = {line.fwhm:g} give no finite grid ends")
    try:
        f = line.center + np.linspace(-half, half, n)
    except (ValueError, MemoryError) as exc:  # a size numpy cannot allocate
        raise ValueError(f"n_samples: {exc}") from None
    w = np.asarray(line_value(line, f)).copy()
    w[0] *= 0.5
    w[-1] *= 0.5  # trapezoid end weights
    if not w.sum() > 0:  # the density underflows at every node
        raise ValueError(f"the line density is 0 at all {n} n_samples nodes of a span_fwhm = {span_fwhm:g} grid; "
                         f"an odd n_samples, such as {n + 1}, puts one at the line center")
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


def _pulse(om, dw, duration, twice=False):
    """A phase-0 pulse as ``(alpha, beta, gamma, eps)``, elementwise over broadcast inputs.

    ``om`` and ``dw`` (= 2 pi detuning) are in rad/s.  The pulse rotates by
    the angle ``G duration``, ``G = hypot(om, dw)``, about the axis
    ``(kx, 0, kz) = (om, 0, dw) / G``.  In complex form, with ``r_perp =
    u + i v``, it maps

        r_perp -> alpha r_perp + beta conj(r_perp) + gamma w
        w      -> Re(gamma r_perp) + eps w

    which is the Rodrigues rotation ``c I + s [k]x + (1 - c) k k^T``
    (Levitt, Spin Dynamics, ch. 10).  ``beta`` is the transfer probability
    from the ground state.  With ``twice``, it returns this map and that of
    the pulse twice as long, built on the same axis from ``cos 2 theta = 1 -
    2 sin^2 theta`` and ``sin 2 theta = 2 sin theta cos theta``.

    Negating ``dw`` negates only ``kz``, so the map at ``-dw`` is bitwise
    ``(conj(alpha), beta, -conj(gamma), eps)``.
    """
    gen = np.hypot(om, dw)
    safe = np.where(gen == 0.0, 1.0, gen)
    kx, kz = om / safe, dw / safe
    angle = gen * duration
    c, s = np.cos(angle), np.sin(angle)
    one = _rotation(kx, kz, c, s, 1.0 - c)
    return (one, _rotation(kx, kz, 1.0 - 2.0 * s * s, 2.0 * s * c, 2.0 * s * s)) if twice else one


def _rotation(kx, kz, c, s, vers):
    beta = 0.5 * vers * kx**2
    return c + beta + 1j * s * kz, beta, kx * (vers * kz - 1j * s), c + vers * kz**2


#: Largest table, in elements, that an ensemble kernel builds at once: the
#: trig tables of ``_trig_sum``, and the pulse maps of ``_two_pulse_signal``,
#: whose blocks of |Delta| rows x amplitude nodes are a sixth of it, since
#: ``alpha`` and ``gamma`` are complex and ``beta`` and ``eps`` real.  A trig
#: table (256 KiB) stays in cache, and a complex map block (at most 43 KiB)
#: below glibc's default mmap threshold, so blocks reuse warm heap memory
#: instead of faulting fresh pages.
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


def _trig_sum(t: np.ndarray, f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``sum_m c_m exp(i f_m t)`` at every t; real ``c`` gives the real part.

    Callers pass the frequencies in ascending order, mirror detunings folded
    (:func:`_folded`); a repeated frequency still sums right, at the cost of
    its own tables.  ``t`` must be evenly spaced, within a few ulps of
    ``t[0] + k dt`` (:func:`_time_axis` checks it).  It is split into blocks of
    B = round(sqrt(N)) points, ``t[J B + j] = a_J + j dt``, and the sum is
    ``L @ R.T`` with ``R[j] = c z**j``, ``z = exp(i f dt)``, and
    ``L[J] = exp(i f t[0]) w**J``, ``w = exp(i f B dt)``, both tables built
    by :func:`_powers`.  A frequency thus costs 3 trig values, and products
    about 2 log2(sqrt(N)) roundings deep, instead of the direct sum's N trig
    values.  The frequencies go through in blocks, each small enough
    that its two tables stay within ``_TABLE_ELEMENTS``, and the blocks'
    products are added up in frequency order.
    """
    real = not np.iscomplexobj(c)
    n = t.size
    dt = (t[-1] - t[0]) / max(n - 1, 1)
    block = round(math.sqrt(n))
    starts = t[::block]
    width = max(1, _TABLE_ELEMENTS // max(block, starts.size))  # frequencies per table
    out = np.zeros((starts.size, block), complex)
    for lo in range(0, f.size, width):
        fb = f[lo : lo + width]
        right = _powers(c[lo : lo + width].astype(complex), np.exp(1j * fb * dt), block)
        left = _powers(np.exp(1j * fb * t[0]), np.exp(1j * fb * (block * dt)), starts.size)
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
    """``grid`` as floats, checked to be what :func:`_trig_sum` sums over.

    It must be a non-empty 1-d array, ascending and within a few ulps of
    ``t[0] + k dt``, as ``np.linspace`` builds it; ``name`` names it in the
    :class:`ValueError` otherwise.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    dt = (t[-1] - t[0]) / max(t.size - 1, 1)
    if dt < 0 or np.abs(t[0] + dt * np.arange(t.size) - t).max() > 4 * np.finfo(float).eps * np.abs(t).max():
        raise ValueError(f"{name} must be ascending and evenly spaced, as np.linspace builds it")
    return t


def rabi_trace(spec: EnsembleSpec, rabi: float, t_grid):
    """Ensemble-averaged inversion under continuous resonant drive.

    Starting from the ground state ``w = -1``, each member evolves under
    its detuning and scaled Rabi amplitude; the closed-form inversion is
    averaged with the quadrature weights.  It depends on the detuning only
    through its square, so each mirror pair's weights are added per
    amplitude node, and the trig sum runs over the (|Delta|, amplitude)
    table, in ascending frequency.  ``t_grid`` must be ascending and evenly
    spaced, as ``np.linspace`` builds it; any other grid raises
    :class:`ValueError`.  Returns ``(times, mean_inversion)``.

    Detuning dephasing makes the oscillation contrast decay, which also
    pulls a plain damped-sinusoid fit of short traces above the drive
    frequency; windows of roughly 15 Rabi periods keep the fitted
    frequency within 1%.  On a detuning step delta the far detunings'
    generalized frequencies sit nearly delta apart, so the trace revives
    near t = 1/delta; the experiments' build rule keeps the window within
    0.8 of that.
    """
    t = _time_axis(t_grid, "t_grid")
    adw, a, wf = _folded(spec)
    w = wf[0] + wf[1]  # the inversion is even in the detuning
    om2 = (rabi * a) ** 2
    gen2 = om2 + adw[:, None] ** 2
    gen2 = np.where(gen2 == 0.0, 1.0, gen2)
    frac = w * om2 / gen2
    # w(t) = -(1 - frac + frac cos(gen t)) per (|Delta|, amplitude) node; in table order, not
    # ascending, the default fit's contrast_decay_rate_hz moved 3.5e-9 relative between BLAS kernels
    order = np.argsort(gen2, axis=None, kind="stable")
    mean_w = -((w - frac).sum() + _trig_sum(t, np.sqrt(gen2.ravel()[order]), frac.ravel()[order]))
    return t, mean_w


def pi_fidelity_center(rabi: float, amplitude_spread: AmplitudeSpread) -> float:
    """Resonant pi-pulse transfer probability averaged over drive amplitude.

    The pulse duration is pi/rabi; a member with relative amplitude ``a``
    transfers with probability ``sin^2(pi a / 2)``, whose exact mean over
    the uniform spread ``[1 - hw, 1 + hw]`` is ``0.5 + 0.5 sinc(hw)``, with
    ``sinc(x) = sin(pi x) / (pi x)``, so the infidelity grows quadratically
    in the spread.  Equals 1 for zero spread.
    """
    if rabi <= 0:
        raise ValueError("rabi must be > 0")
    return float(0.5 + 0.5 * np.sinc(amplitude_spread.half_width))


def pi_fidelity_avg(rabi: float, spec: EnsembleSpec) -> float:
    """Pi-pulse transfer probability averaged over the detuning line.

    Line-weighted mean of the generalized Rabi transfer probability

        P(Delta) = Omega^2/Omega_g^2 * sin^2(Omega_g t_pi / 2),
        Omega_g = sqrt(Omega^2 + (2 pi Delta)^2),  t_pi = pi / Omega,

    summed once with the trapezoid weights of ``spec``'s own detuning grid,
    the grid every trace sums over.  Monotonically increasing in the ratio
    of Rabi frequency to line width.
    """
    if rabi <= 0:
        raise ValueError("rabi must be > 0")
    d, w = _detuning_grid(spec.detuning_line, spec.n_samples, spec.span_fwhm)
    p = _pulse(rabi, 2.0 * np.pi * d, np.pi / rabi)[1]  # absolute detuning from the drive, as everywhere
    return float((w * p).sum())


def _two_pulse_signal(spec, rabi, tau_grid, refocus: bool, t2, ideal_pulses: bool):
    """Ramsey inversion or echo magnitude, in closed form in tau.

    The pulse maps (:func:`_pulse`) are built once per node of the folded
    (|Delta|, amplitude) table (:func:`_folded`), over row blocks within
    ``_TABLE_ELEMENTS`` // 6 elements; each row's products are summed over
    the amplitude axis, and its tau-independent term is kept and summed
    once at the end, so the blocks change no value.  A delay turns the
    transverse part ``u + i v`` by ``exp(i dw tau)`` and damps it by
    ``exp(-tau/t2)``, so each member's signal is a trig polynomial in
    ``dw tau``.  The Ramsey inversion is a real part, so a mirror pair is
    one term at ``|dw|`` of their summed weight.  The echo is complex: each
    product is summed once with the ``+|dw|`` weights and once with the
    ``-|dw|`` ones, and the coefficient at ``-|dw|`` is ``-conj`` of the
    latter sum; its trig sums run over ascending ``-|dw|`` and ``+|dw|``,
    on the evenly spaced delays that :func:`_time_axis` admits.
    """
    if rabi <= 0:
        raise ValueError("rabi must be > 0")
    if not t2 > 0:
        raise ValueError("t2 must be > 0")
    taus = _time_axis(tau_grid, "tau_grid")
    adw, a, wf = _folded(spec)
    # per |Delta| row: the tau-independent term, then the coefficients of harmonics 1 and 2 of
    # |dw| tau, summed over the amplitude axis; the echo's at +|dw| and -|dw| apart
    h0 = np.empty(adw.size, complex if refocus else float)
    h = np.empty((2, 2, adw.size) if refocus else (1, adw.size), complex)
    rows = max(1, _TABLE_ELEMENTS // 6 // a.size)
    for lo in range(0, adw.size, rows):
        s = slice(lo, lo + rows)
        # ideal pulses are the same resonant x rotations for every member
        om, off = (rabi, 0.0) if ideal_pulses else (rabi * a, adw[s, None])
        if not refocus:  # w after the second pi/2 pulse is Re(gamma r_perp) + eps r_z
            _, _, gamma, eps = _pulse(om, off, 0.5 * np.pi / rabi)
            w = wf[0, s] + wf[1, s]  # a mirror pair: conj terms, whose real parts agree
            h0[s] = (w * eps * -eps).sum(-1)
            h[0, s] = (w * gamma * -gamma).sum(-1)
            continue
        (_, _, gamma, eps), (alpha, beta, gamma_pi, _) = _pulse(om, off, 0.5 * np.pi / rabi, twice=True)
        a_perp, a_z = -gamma, -eps  # (0, 0, -1) after the first pi/2 pulse
        # each product at -|dw| is -conj of its value at +|dw|
        plus, minus = (wf[:, s] * beta * np.conj(a_perp)).sum(-1)
        h0[s] = plus - np.conj(minus)
        h[0, :, s] = (wf[:, s] * gamma_pi * a_z).sum(-1)
        h[1, :, s] = (wf[:, s] * alpha * a_perp).sum(-1)
    damp = np.exp(-taus / t2)
    if not refocus:
        return taus, h0.sum() + damp * _trig_sum(taus, adw, h[0]).real
    # frequencies -|dw| descending, then +|dw|, dropping those no node carries
    keep = np.concatenate((wf[1, ::-1].any(-1), wf[0].any(-1)))
    f = np.concatenate((-adw[::-1], adw))[keep]
    c = [np.concatenate((-np.conj(hk[1, ::-1]), hk[0]))[keep] for hk in h]
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
    ``tau_grid`` must be ascending and evenly spaced, as ``np.linspace``
    builds it; any other grid raises :class:`ValueError`.  Returns
    ``(taus, mean_inversion)``.
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
    ``tau_grid`` must be ascending and evenly spaced, as ``np.linspace``
    builds it; any other grid raises :class:`ValueError`.  Returns
    ``(2 tau, amplitude)``.
    """
    taus, sig = _two_pulse_signal(spec, rabi, tau_grid, refocus=True, t2=t2, ideal_pulses=ideal_pulses)
    return 2.0 * taus, sig
