"""Lumped model of the split-ring resonator, drive chain and heating budget.

The resonator is a single Lorentzian response (measured cable ripple is
excluded as external to the device).  Power-to-field conversion is a
calibration input: the quoted figure of order 100 uT per (root) watt is
dimensionally ambiguous, so :func:`calibrate_conversion` fixes it by
requiring that full drive power reproduce the ground-configuration Rabi
frequency.  Both readings of the quoted unit are thereby superseded by an
internally consistent value (about 133 uT/sqrt(W)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import AmplitudeSpread
from .constants import BOHR_MAGNETON, HBAR


@dataclass(frozen=True)
class ResonatorParams:
    """Lorentzian transmission parameters plus field conversion.

    ``conversion`` is in tesla per sqrt(watt) on resonance and must be
    supplied explicitly (see :func:`calibrate_conversion`).
    """

    conversion: float
    f0: float = 3.12e9
    fwhm: float = 60e6
    insertion_loss_db: float = 5.0

    def __post_init__(self):
        if self.f0 <= 0 or self.fwhm <= 0:
            raise ValueError("f0 and fwhm must be > 0")
        if self.conversion <= 0:
            raise ValueError("conversion must be > 0")
        if self.insertion_loss_db < 0:
            raise ValueError("insertion_loss_db must be >= 0")

    @property
    def quality_factor(self) -> float:
        return self.f0 / self.fwhm


@dataclass(frozen=True)
class HeatingModel:
    """Steady-state linear heating of the resonator assembly.

    ``slope`` in kelvin per watt of average dissipated power (50 K/W equals
    the measured 0.05 K/mW cw); ``max_delta_t`` is the tolerated budget.
    """

    slope: float = 50.0
    max_delta_t: float = 0.1

    def __post_init__(self):
        if self.slope <= 0 or self.max_delta_t <= 0:
            raise ValueError("slope and max_delta_t must be > 0")


@dataclass(frozen=True)
class FieldHomogeneity:
    """Peak-to-peak relative MW field variation over the probed volume."""

    relative_variation: float = 0.02
    volume: str = "0.2x0.2x0.5 mm^3 probed / (0.5 mm)^3 homogeneous"

    def __post_init__(self):
        if not 0.0 <= self.relative_variation < 1.0:
            raise ValueError("relative_variation must be within [0, 1)")


@dataclass(frozen=True)
class HeatingReport:
    delta_t: float
    ok: bool
    max_rep_rate: float
    average_power: float


def calibrate_conversion(
    g_mw: float = 1.6,
    rabi: float = 2.0 * math.pi * 14.9e6,
    power: float = 100.0,
) -> float:
    """Field conversion (T/sqrt(W)) that yields ``rabi`` at ``power`` watts.

    Defaults anchor the chain to the ground configuration: 100 W peak
    power on resonance driving at 2 pi x 14.9 MHz with g_mw = 1.6, i.e.
    B1 of about 1.33 mT.
    """
    if g_mw <= 0 or rabi <= 0 or power <= 0:
        raise ValueError("g_mw, rabi and power must be > 0")
    b1 = 2.0 * HBAR * rabi / (g_mw * BOHR_MAGNETON)
    return b1 / math.sqrt(power)


def s21(rp: ResonatorParams, f) -> np.ndarray | float:
    """Power transmission in dB at frequency ``f`` (scalar or array).

    Lorentzian response, ``-insertion_loss_db`` at resonance and 3 dB
    below that at ``f0 +- fwhm/2``; symmetric and monotonically falling
    away from resonance.
    """
    farr = np.asarray(f, dtype=float)
    if np.any(farr <= 0):
        raise ValueError("f must be > 0")
    rel = 2.0 * (farr - rp.f0) / rp.fwhm
    out = -rp.insertion_loss_db + 10.0 * np.log10(1.0 / (1.0 + rel**2))
    return out if out.ndim else float(out)


def field_from_power(rp: ResonatorParams, p: float, f: float | None = None) -> float:
    """MW field amplitude in tesla delivered at power ``p`` watts.

    Off resonance the field follows the square root of the relative
    Lorentzian response; the overall insertion loss is part of the
    calibration and does not enter again.  Exactly proportional to
    sqrt(p).
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    f = rp.f0 if f is None else f
    rel_db = s21(rp, f) - s21(rp, rp.f0)
    return rp.conversion * math.sqrt(p * 10.0 ** (rel_db / 10.0))


def heating_budget(
    hm: HeatingModel, p_peak: float, pulse_len: float, rep_period: float
) -> HeatingReport:
    """Temperature rise for pulsed driving and the largest allowed rate.

    Average power is ``p_peak * pulse_len / rep_period`` (cw when the
    period equals the pulse length); the rise is linear in duty cycle.
    ``max_rep_rate`` solves ``delta_t == max_delta_t``.
    """
    if not pulse_len > 0:
        raise ValueError("pulse_len must be > 0")
    if rep_period < pulse_len:
        raise ValueError("rep_period must be >= pulse_len")
    if p_peak < 0:
        raise ValueError("p_peak must be >= 0")
    avg = p_peak * pulse_len / rep_period
    delta_t = hm.slope * avg
    drive = hm.slope * p_peak * pulse_len  # 0 without drive, or when the product underflows
    max_rate = hm.max_delta_t / drive if drive > 0 else math.inf
    return HeatingReport(
        delta_t=delta_t, ok=delta_t <= hm.max_delta_t, max_rep_rate=max_rate, average_power=avg
    )


def rabi_spread_from_homogeneity(fh: FieldHomogeneity) -> AmplitudeSpread:
    """Uniform relative Rabi-amplitude distribution for the ensemble.

    A peak-to-peak field variation v maps to amplitudes uniform on
    [1 - v/2, 1 + v/2]; feeds :class:`erspin_sim.bloch.EnsembleSpec`.
    """
    return AmplitudeSpread(half_width=fh.relative_variation / 2.0)
