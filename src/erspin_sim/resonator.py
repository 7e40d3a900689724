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

from .constants import BOHR_MAGNETON, HBAR
from .geometry import GROUND_CONFIG, PRESET_G_MW, PRESET_RABI_HZ, PRESET_SPLITTING_HZ


@dataclass(frozen=True)
class ResonatorParams:
    """Lorentzian transmission parameters plus field conversion.

    ``conversion`` is in tesla per sqrt(watt) on resonance and must be
    supplied explicitly (see :func:`calibrate_conversion`).
    """

    conversion: float
    f0: float = PRESET_SPLITTING_HZ
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
class HeatingReport:
    delta_t: float
    ok: bool
    max_rep_rate: float
    average_power: float


def calibrate_conversion() -> float:
    """Field conversion (T/sqrt(W)) anchored to the ground configuration.

    100 W peak power on resonance drives the ground-configuration Rabi
    frequency (2 pi x 14.9 MHz with g_mw = 1.6), i.e. B1 of about 1.33 mT.
    """
    rabi = 2.0 * math.pi * PRESET_RABI_HZ[GROUND_CONFIG]
    b1 = 2.0 * HBAR * rabi / (PRESET_G_MW[GROUND_CONFIG] * BOHR_MAGNETON)
    return b1 / math.sqrt(100.0)


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


def field_from_power(rp: ResonatorParams, p: float) -> float:
    """MW field amplitude in tesla delivered on resonance at power ``p`` watts.

    ``conversion * sqrt(p)``: the insertion loss is part of the
    calibration (:func:`calibrate_conversion`) and does not enter again.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    return rp.conversion * math.sqrt(p)


def heating_budget(
    hm: HeatingModel, p_peak: float, pulse_len: float, rep_period: float | np.ndarray
) -> HeatingReport:
    """Temperature rise for pulsed driving and the largest allowed rate.

    Average power is ``p_peak * pulse_len / rep_period`` (cw when the
    period equals the pulse length); the rise is linear in duty cycle.
    ``max_rep_rate`` solves ``delta_t == max_delta_t``.  An array of
    periods gives arrays of ``delta_t``, ``ok`` and ``average_power``, each
    element the one that period gives alone.
    """
    if not pulse_len > 0:
        raise ValueError("pulse_len must be > 0")
    if np.any(np.asarray(rep_period) < pulse_len):
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
