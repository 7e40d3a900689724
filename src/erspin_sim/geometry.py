"""Effective spin-1/2 magnetic coupling in Er:YSO.

Maps magnetic-field orientations and magnitudes to effective g-factors,
Zeeman splittings and Rabi frequencies.  The crystal frame is spanned by
the optical extinction axes D1, D2 and the crystallographic b-axis, in
that order.

The anisotropy is described by a 3x3 g-tensor.  For a field (static or
microwave) applied along the unit vector n, the effective scalar coupling
is ``sqrt(n^T (g g^T) n)``, the standard convention for a Kramers doublet.
The full tensor of Er:YSO is not reproduced here; diagonal presets built
from four effective scalars (10.5 and 1.6 for the ground state, 10 and
0.95 for the optically excited state) cover the two field configurations
used in practice, and arbitrary user tensors are accepted.  Those
scalars, the 3.12 GHz splitting both presets target and their measured
Rabi frequencies are stated here once; the other modules read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import BOHR_MAGNETON, HBAR, PLANCK

GROUND_CONFIG = "ground-config"    # static field || D2, MW field || b
EXCITED_CONFIG = "excited-config"  # static field || b, MW field || D2


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class GTensor:
    """Anisotropic coupling tensor, dimensionless, in the crystal frame.

    ``g`` must be real symmetric (within 1e-12) with non-negative
    eigenvalues.
    """

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (3, 3):
            raise ValueError(f"g must be 3x3, got shape {g.shape}")
        if not np.all(np.abs(g - g.T) <= 1e-12):
            raise ValueError("g must be symmetric within 1e-12")
        if np.linalg.eigvalsh(g).min() < -1e-12:
            raise ValueError("g must have non-negative eigenvalues")
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class FieldConfig:
    """Static and microwave field orientations in the crystal frame.

    Direction vectors must have unit norm within 1e-9; the static
    magnitude is in tesla.
    """

    b_static_dir: np.ndarray
    b_static_mag: float
    b_mw_dir: np.ndarray

    def __post_init__(self):
        for name in ("b_static_dir", "b_mw_dir"):
            v = _unit(getattr(self, name))
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError(f"{name} must have unit norm within 1e-9")
            object.__setattr__(self, name, v)
        if self.b_static_mag < 0:
            raise ValueError("b_static_mag must be >= 0")


@dataclass(frozen=True)
class EffectiveGFactors:
    """Scalar couplings along the static field and along the MW field."""

    g_parallel: float
    g_mw: float

    def __post_init__(self):
        if self.g_parallel < 0 or self.g_mw < 0:
            raise ValueError("effective g-factors must be >= 0")


def effective_g(gt: GTensor, direction) -> float:
    """Effective g-factor for a field along the unit vector ``direction``.

    Evaluates ``sqrt(n^T (g g^T) n)``.  For a diagonal tensor this reduces
    to the axis component when ``direction`` is a crystal axis, and it is
    invariant under ``n -> -n``.

    Raises ``ValueError`` if ``direction`` is not unit-norm within 1e-9.
    """
    n = _unit(direction)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("direction must have unit norm within 1e-9")
    m = gt.g @ gt.g.T
    return float(np.sqrt(n @ m @ n))


def zeeman_splitting(g_eff: float, b: float) -> float:
    """Zeeman splitting in Hz for a static field of ``b`` tesla.

    ``nu = g_eff * mu_B * B / h``; exactly linear in ``b``.
    """
    if b < 0:
        raise ValueError("b must be >= 0")
    return g_eff * BOHR_MAGNETON * b / PLANCK


def rabi_frequency(g_mw: float, b1: float) -> float:
    """Rabi angular frequency in rad/s for a MW field amplitude ``b1`` tesla.

    ``Omega = g_mw * mu_B * B1 / (2 hbar)``; exactly linear in ``b1``.
    """
    if b1 < 0:
        raise ValueError("b1 must be >= 0")
    return g_mw * BOHR_MAGNETON * b1 / (2.0 * HBAR)


def field_for_splitting(g_eff: float, splitting_hz: float) -> float:
    """Static field in tesla producing the requested splitting."""
    if g_eff <= 0:
        raise ValueError("g_eff must be > 0")
    if splitting_hz < 0:
        raise ValueError("splitting must be >= 0")
    return PLANCK * splitting_hz / (g_eff * BOHR_MAGNETON)


def implied_g(splitting_hz: float, b: float) -> float:
    """Effective g-factor implied by an observed splitting at field ``b``.

    Inverse of :func:`zeeman_splitting`.  Useful for quantities the presets
    deliberately leave free, e.g. the excited-state coupling along D2 that
    a 2 GHz excited splitting at the ground-config field would imply
    (about 6.7); that value is not asserted anywhere in this package.
    """
    if b <= 0:
        raise ValueError("b must be > 0")
    return PLANCK * splitting_hz / (BOHR_MAGNETON * b)


# ---------------------------------------------------------------------------
# Presets

_D2 = np.array([0.0, 1.0, 0.0])
_B_AXIS = np.array([0.0, 0.0, 1.0])

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


def preset_field_config(name: str) -> FieldConfig:
    """Field orientations and magnitude of a named configuration.

    Both presets tune the addressed spin transition to
    ``PRESET_SPLITTING_HZ`` (3.12 GHz): the static field magnitude is
    derived from the preset's parallel g-factor, giving about 21.2 mT for
    the ground configuration and 22.3 mT for the excited one.
    """
    gf = preset_g_factors(name)
    mag = field_for_splitting(gf.g_parallel, PRESET_SPLITTING_HZ)
    if name == GROUND_CONFIG:
        return FieldConfig(b_static_dir=_D2, b_static_mag=mag, b_mw_dir=_B_AXIS)
    return FieldConfig(b_static_dir=_B_AXIS, b_static_mag=mag, b_mw_dir=_D2)


def preset_g_tensor(state: str = "ground") -> GTensor:
    """Diagonal g-tensor preset for the ``"ground"`` or ``"excited"`` state.

    The state's configuration (ground-config or excited-config) puts its
    parallel g-factor on the static-field axis and its MW g-factor on the
    MW axis:  diag(0, 10.5, 1.6) for the ground state and
    diag(0, 0.95, 10.0) for the excited state, in the (D1, D2, b) frame.
    The D1 entry is not constrained by those scalars and is 0.
    """
    if state not in ("ground", "excited"):
        raise ValueError(f"state must be 'ground' or 'excited', got {state!r}")
    name = GROUND_CONFIG if state == "ground" else EXCITED_CONFIG
    gf, fc = preset_g_factors(name), preset_field_config(name)
    return GTensor(np.diag(gf.g_parallel * fc.b_static_dir + gf.g_mw * fc.b_mw_dir))
