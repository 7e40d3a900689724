"""Inhomogeneous line shapes, hole/antihole spectra and transmission readout.

Frequencies are in Hz, absorption profiles are dimensionless optical depth
per pass.  The spin transition is Lorentzian by default (9 MHz full width
at half maximum); the optical probe resolution enters as a narrow
convolution kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LINE_KINDS = ("lorentzian", "gaussian")


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
    and spectral diffusion into one width.  The probe kernel shape is
    selectable; the Gaussian default keeps the convolution from inflating
    the 9 MHz line noticeably.
    """

    baseline_absorption: float = 0.04
    probe_width: float = 0.5e6
    probe_kind: str = "gaussian"

    def __post_init__(self):
        if not 0.0 < self.baseline_absorption < 1.0:
            raise ValueError("baseline_absorption must be within (0, 1)")
        if self.probe_width <= 0:
            raise ValueError("probe_width must be > 0")
        if self.probe_kind not in LINE_KINDS:
            raise ValueError(f"probe_kind must be one of {LINE_KINDS}")


@dataclass(frozen=True)
class SpectrumProfile:
    """Absorption versus frequency on a strictly increasing grid.

    ``od_max``, when given, bounds stimulated-emission gain: alpha may not
    drop below ``-od_max``.
    """

    freq_hz: np.ndarray
    alpha: np.ndarray
    od_max: float | None = None

    def __post_init__(self):
        f = np.asarray(self.freq_hz, dtype=float)
        a = np.asarray(self.alpha, dtype=float)
        if f.ndim != 1 or f.shape != a.shape:
            raise ValueError("freq_hz and alpha must be 1-d arrays of equal length")
        if f.size < 2 or np.any(np.diff(f) <= 0):
            raise ValueError("freq_hz must be strictly increasing")
        if self.od_max is not None and a.min() < -self.od_max - 1e-12:
            raise ValueError("alpha must not drop below -od_max")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "alpha", a)

    def to_csv(self, path) -> None:
        """Two-column CSV (frequency_hz, value) with a one-line header."""
        with open(path, "w") as fh:
            fh.write("frequency_hz,value\n")
            for f, a in zip(self.freq_hz, self.alpha):
                fh.write(f"{float(f)!r},{float(a)!r}\n")

    @classmethod
    def from_csv(cls, path, od_max: float | None = None) -> "SpectrumProfile":
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return cls(data[:, 0], data[:, 1], od_max=od_max)


def antihole_spectrum(
    spin_line: LineShape,
    polarization: float,
    rm: ReadoutModel,
    span_fwhm: float = 20.0,
    points_per_fwhm: int = 100,
) -> SpectrumProfile:
    """Absorption profile of the probed line for a given spin polarization.

    The excess absorption is ``polarization * baseline_absorption`` at the
    line center, shaped by the spin line convolved with the probe kernel
    (peak-normalized after convolution).  Positive polarization gives an
    antihole, negative the mirror-image hole; ``polarization = -1``
    corresponds to complete depletion of the probed state.

    The grid spacing is ``fwhm / points_per_fwhm`` which keeps the width
    extraction error well below the 5% acceptance band at the default.
    """
    if abs(polarization) > 1.0 + 1e-12:
        raise ValueError("polarization must be within [-1, 1]")
    step = spin_line.fwhm / points_per_fwhm
    half = span_fwhm * spin_line.fwhm
    n = int(round(2 * half / step)) + 1
    f = spin_line.center + np.linspace(-half, half, n)

    shape = np.asarray(line_value(spin_line, f))
    # probe convolution on the same uniform grid, kernel truncated at +-6 widths
    kern_half = 6.0 * rm.probe_width
    m = max(int(round(kern_half / step)), 1)
    fk = np.arange(-m, m + 1) * step
    kernel = np.asarray(line_value(LineShape(rm.probe_kind, rm.probe_width), fk))
    kernel = kernel / kernel.sum()
    shape = np.convolve(shape, kernel, mode="same")
    shape = shape / shape.max()

    alpha = rm.baseline_absorption * (1.0 + polarization * shape)
    return SpectrumProfile(f, alpha, od_max=rm.baseline_absorption)


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


def transmission(profile: SpectrumProfile) -> np.ndarray:
    """Beer-Lambert transmittance ``T(f) = exp(-alpha(f))``."""
    return np.exp(-profile.alpha)
