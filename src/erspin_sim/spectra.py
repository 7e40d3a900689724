"""Inhomogeneous line shapes, hole/antihole spectra and their readout.

Frequencies are in Hz, absorption profiles are dimensionless optical depth
per pass.  The spin transition is Lorentzian by default (9 MHz full width
at half maximum); the optical probe resolution enters as a narrow
convolution kernel.  The module holds line shapes and profiles only:
:mod:`experiments` writes a profile's rows into a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LINE_KINDS = ("lorentzian", "gaussian")

#: Half span of a hole/antihole profile, in line widths each side.
PROFILE_SPAN_FWHM = 20.0

#: Half width of the probe convolution kernel, in probe widths each side.
PROBE_KERNEL_WIDTHS = 6.0

#: Profile grid points per line width.
PROFILE_POINTS_PER_FWHM = 100


@dataclass(frozen=True)
class LineShape:
    """Normalized spectral density: unit area over the full axis."""

    kind: str
    fwhm: float
    center: float = 0.0

    def __post_init__(self):
        if self.kind not in LINE_KINDS:
            raise ValueError(f"kind must be one of {LINE_KINDS}, got {self.kind!r}")
        if self.fwhm <= 0:
            raise ValueError("fwhm must be > 0")


def line_value(ls: LineShape, f) -> np.ndarray | float:
    """Spectral density in 1/Hz at frequency ``f`` (scalar or array).

    Lorentzian peak value is 2/(pi fwhm); the Gaussian falls to half its
    peak at ``center +- fwhm/2``.  Raises :class:`FloatingPointError` when
    the arithmetic overflows float64 (widths or offsets beyond about 1e154).
    """
    x = np.asarray(f, dtype=float) - ls.center
    fwhm = np.float64(ls.fwhm)  # a Python float would raise OverflowError when squared
    with np.errstate(over="raise"):
        if ls.kind == "lorentzian":
            hw = fwhm / 2.0
            out = (hw / np.pi) / (x**2 + hw**2)
        else:
            sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            out = np.exp(-(x**2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ReadoutModel:
    """Optical readout parameters.

    ``baseline_absorption`` is the resonant optical depth of the probed
    line in thermal equilibrium (about 4% for the 0.5 mm crystals).
    ``probe_width`` is the effective spectral resolution of the probe,
    below 1 MHz in practice; it lumps laser linewidth, power broadening
    and spectral diffusion into one width.  The probe kernel is Gaussian,
    which keeps the convolution from inflating the 9 MHz line noticeably.
    """

    baseline_absorption: float = 0.04
    probe_width: float = 0.5e6

    def __post_init__(self):
        if not 0.0 < self.baseline_absorption < 1.0:
            raise ValueError("baseline_absorption must be within (0, 1)")
        if self.probe_width <= 0:
            raise ValueError("probe_width must be > 0")


@dataclass(frozen=True)
class SpectrumProfile:
    """Absorption versus frequency on a strictly increasing grid."""

    freq_hz: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freq_hz, dtype=float)
        a = np.asarray(self.alpha, dtype=float)
        if f.ndim != 1 or f.shape != a.shape:
            raise ValueError("freq_hz and alpha must be 1-d arrays of equal length")
        if f.size < 2 or np.any(np.diff(f) <= 0):
            raise ValueError("freq_hz must be strictly increasing")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "alpha", a)


def antihole_spectra(spin_line: LineShape, polarizations, rm: ReadoutModel) -> list[SpectrumProfile]:
    """Absorption profiles of the probed line, one per spin polarization.

    The excess absorption is ``polarization * baseline_absorption`` at the
    line center, shaped by the spin line convolved with the probe kernel
    (peak-normalized after convolution).  Positive polarization gives an
    antihole, negative the mirror-image hole; ``polarization = -1``
    corresponds to complete depletion of the probed state.  The shape is
    computed once, and every profile shares its grid.

    The grid is ``center + step * j`` for ``j = -k .. k``, with step
    ``fwhm / PROFILE_POINTS_PER_FWHM`` and ``k`` the
    ``PROFILE_SPAN_FWHM * fwhm`` half span over the step, rounded, so it is
    exactly antisymmetric about a zero center.  The step keeps the width
    extraction error well below the 5% acceptance band.  Raises
    :class:`FloatingPointError` when the span overflows float64.
    """
    if any(abs(p) > 1.0 + 1e-12 for p in polarizations):
        raise ValueError("polarization must be within [-1, 1]")
    step = spin_line.fwhm / PROFILE_POINTS_PER_FWHM
    half = PROFILE_SPAN_FWHM * spin_line.fwhm
    if not math.isfinite(half):
        raise FloatingPointError(
            f"overflow: a {PROFILE_SPAN_FWHM} fwhm span of a {spin_line.fwhm} Hz line is not finite"
        )
    k = round(half / step)
    f = spin_line.center + step * np.arange(-k, k + 1)

    shape = np.asarray(line_value(spin_line, f))
    # probe convolution on the same uniform grid, kernel truncated at +-PROBE_KERNEL_WIDTHS widths
    kern_half = PROBE_KERNEL_WIDTHS * rm.probe_width
    m = max(int(round(kern_half / step)), 1)
    fk = np.arange(-m, m + 1) * step
    kernel = np.asarray(line_value(LineShape("gaussian", rm.probe_width), fk))
    kernel = kernel / kernel.sum()
    shape = np.convolve(shape, kernel, mode="same")
    shape = shape / shape.max()

    return [SpectrumProfile(f, rm.baseline_absorption * (1.0 + p * shape)) for p in polarizations]


def antihole_spectrum(spin_line: LineShape, polarization: float, rm: ReadoutModel) -> SpectrumProfile:
    """The one profile :func:`antihole_spectra` gives for ``polarization``."""
    return antihole_spectra(spin_line, (polarization,), rm)[0]


def profile_excess(profile: SpectrumProfile) -> np.ndarray:
    """Absorption relative to the flat background, estimated from the wings."""
    baseline = 0.5 * (profile.alpha[0] + profile.alpha[-1])
    return profile.alpha - baseline


def profile_fwhm(profile: SpectrumProfile) -> float:
    """Full width at half maximum of the profile's excess, by interpolation."""
    y = profile_excess(profile)
    peak = y[np.argmax(np.abs(y))]
    if peak == 0.0:
        raise ValueError("flat profile has no width")
    y = y / peak  # normalized, peak = +1 for holes and antiholes alike
    i = int(np.argmax(y))
    x = profile.freq_hz
    left = np.interp(0.5, y[: i + 1], x[: i + 1])
    right = np.interp(0.5, y[i:][::-1], x[i:][::-1])
    return float(right - left)


def hole_area_ratio(hole: SpectrumProfile, antihole: SpectrumProfile) -> float:
    """Integrated antihole area divided by integrated hole area.

    Both profiles must share the same frequency grid.  Areas are absolute
    integrals of the wing-referenced excess, so comparing an antihole from
    a pumping simulation against the unit hole (``polarization = -1``,
    complete depletion) returns the pumping efficiency.
    """
    if hole.freq_hz.shape != antihole.freq_hz.shape or not np.array_equal(
        hole.freq_hz, antihole.freq_hz
    ):
        raise ValueError("profiles must share the same frequency grid")
    a_hole = abs(np.trapezoid(profile_excess(hole), hole.freq_hz))
    a_anti = abs(np.trapezoid(profile_excess(antihole), antihole.freq_hz))
    if a_hole == 0.0:
        raise ValueError("hole profile has zero area")
    return float(a_anti / a_hole)


def excited_readout_contrast(
    excited_population_resonant: float, ground_depletion: float, rm: ReadoutModel
) -> float:
    """Readout contrast of an excited-state inversion within a spectral hole.

    The hole depth has two additive parts: reduced ground-state absorption
    and stimulated emission from the resonant excited population.  A
    perfect pi-pulse moves the excited population to its partner state
    (no more stimulated emission at the probe frequency) while the ground
    depletion stays, so the before/after contrast is

        e / (g + e)

    which is 1/2 for the ideal narrow-hole burn (equal contributions) and
    scale-invariant in (g, e).  Returns 0 for an empty hole.
    """
    e, g = excited_population_resonant, ground_depletion
    for name, val in (("excited_population_resonant", e), ("ground_depletion", g)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must be within [0, 1]")
    depth_before = (g + e) * rm.baseline_absorption
    if depth_before == 0.0:
        return 0.0
    depth_after = g * rm.baseline_absorption
    return float((depth_before - depth_after) / depth_before)
