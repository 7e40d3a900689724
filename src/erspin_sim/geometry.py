"""Effective spin-1/2 magnetic coupling in Er:YSO.

The two field configurations used in practice are named presets: the
static field along the optical extinction axis D2 with the microwave field
along the crystallographic b-axis (ground-config), or the reverse
(excited-config).  Each preset is described by two effective scalar
g-factors, along the static field and along the MW field: 10.5 and 1.6
for the ground state, 10 and 0.95 for the optically excited state.  Those
scalars, the 3.12 GHz splitting both presets target and their measured
Rabi frequencies are stated here once; the other modules read them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import BOHR_MAGNETON, PLANCK

GROUND_CONFIG = "ground-config"    # static field || D2, MW field || b
EXCITED_CONFIG = "excited-config"  # static field || b, MW field || D2


@dataclass(frozen=True)
class EffectiveGFactors:
    """Scalar couplings along the static field and along the MW field."""

    g_parallel: float
    g_mw: float

    def __post_init__(self):
        if self.g_parallel < 0 or self.g_mw < 0:
            raise ValueError("effective g-factors must be >= 0")


def field_for_splitting(g_eff: float, splitting_hz: float) -> float:
    """Static field in tesla producing the requested splitting."""
    if g_eff <= 0:
        raise ValueError("g_eff must be > 0")
    if splitting_hz < 0:
        raise ValueError("splitting must be >= 0")
    return PLANCK * splitting_hz / (g_eff * BOHR_MAGNETON)


# ---------------------------------------------------------------------------
# Presets

_PRESET_G = {
    GROUND_CONFIG: EffectiveGFactors(g_parallel=10.5, g_mw=1.6),
    EXCITED_CONFIG: EffectiveGFactors(g_parallel=10.0, g_mw=0.95),
}

#: Ground-state splitting targeted by both presets, Hz.
PRESET_SPLITTING_HZ = 3.12e9

#: Measured Rabi frequencies (Hz, not angular) anchored per preset.
#: The excited value is below the pure g-factor scaling of the ground one
#: because of extra insertion loss in that resonator assembly.
PRESET_RABI_HZ = {
    GROUND_CONFIG: 14.9e6,
    EXCITED_CONFIG: 6.2e6,
}


def preset_g_factors(name: str) -> EffectiveGFactors:
    """Effective g-factors of a named field configuration."""
    try:
        return _PRESET_G[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(_PRESET_G)}") from None
