"""Effective spin-1/2 magnetic coupling in Er:YSO.

The two field configurations used in practice are named presets: the
static field along the optical extinction axis D2 with the microwave field
along the crystallographic b-axis (ground-config), or the reverse
(excited-config).  Each preset is described by two effective scalar
g-factors, along the static field and along the MW field: 10.5 and 1.6
for the ground state, 10 and 0.95 for the optically excited state.  The
MW g-factors (``PRESET_G_MW``), the 3.12 GHz splitting both presets
target and their measured Rabi frequencies are stated here once, and the
other modules read them from here.  No code reads the static-field
g-factors, so they are stated only here and in the README.
"""

from __future__ import annotations

from .constants import BOHR_MAGNETON, PLANCK

GROUND_CONFIG = "ground-config"    # static field || D2, MW field || b
EXCITED_CONFIG = "excited-config"  # static field || b, MW field || D2


def field_for_splitting(g_eff: float, splitting_hz: float) -> float:
    """Static field in tesla producing the requested splitting."""
    if g_eff <= 0:
        raise ValueError("g_eff must be > 0")
    if splitting_hz < 0:
        raise ValueError("splitting must be >= 0")
    return PLANCK * splitting_hz / (g_eff * BOHR_MAGNETON)


# ---------------------------------------------------------------------------
# Presets

#: Ground-state splitting targeted by both presets, Hz.
PRESET_SPLITTING_HZ = 3.12e9

#: Effective MW g-factors, the coupling along the MW field, per preset.
#: Only the ground entry enters a calculation (the resonator's conversion
#: calibration); the excited one is kept beside it as the reference for the
#: Rabi frequencies below, whose ratio departs from 0.95 / 1.6.
PRESET_G_MW = {
    GROUND_CONFIG: 1.6,
    EXCITED_CONFIG: 0.95,
}

#: Measured Rabi frequencies (Hz, not angular) anchored per preset.
#: The excited value is below the pure g-factor scaling of the ground one
#: because of extra insertion loss in that resonator assembly.
PRESET_RABI_HZ = {
    GROUND_CONFIG: 14.9e6,
    EXCITED_CONFIG: 6.2e6,
}

