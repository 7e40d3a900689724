"""Four-level rate-equation engine for spin initialization by optical pumping.

Level scheme (state indices used throughout):

    0: g_low   lower ground spin state (pumping target, optically probed)
    1: g_up    upper ground spin state
    2: e_low   lower excited spin state
    3: e_up    upper excited spin state

Incoherent processes:

* optical decay from each excited state with rate ``1/t1_opt``; a fraction
  ``branch_same`` returns to the same-spin ground state, the rest to the
  flipped one,
* ground-state spin relaxation with polarization decay rate ``1/t1_spin``,
  split between up- and down-flips by detailed balance at the configured
  temperature and splitting,
* optional symmetric excited-state spin relaxation (off by default since
  no rate is established for it),
* stimulated pumping at symmetric (absorption = stimulated emission)
  rates: ``pump_rate_flip`` drives the spin-flip transition
  g_up <-> e_low, accumulating population in g_low; ``pump_rate_preserve``
  drives the spin-preserving transition g_low <-> e_low, depleting the
  probed state (hole burning).

The generator is a constant 4x4 rate matrix, so evolution over an interval
is the exact matrix exponential; no step-size issues despite rates
spanning 1/s to >1e3/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .constants import BOLTZMANN, PLANCK

STATE_LABELS = ("g_low", "g_up", "e_low", "e_up")


@dataclass(frozen=True)
class RateParams:
    """Rates and environment for the four-level model.

    Lifetimes are in seconds, pump rates in 1/s, temperature in kelvin,
    splitting (ground-state Zeeman) in Hz.  ``temperature=math.inf`` gives
    the symmetric infinite-temperature baseline.  ``branch_same`` is the
    fraction of excited decay returning to the same-spin ground state; the
    default 0.5 is a neutral placeholder, the actual value for Er:YSO is a
    measurement input.
    """

    t1_opt: float = 11e-3
    t1_spin: float = 53e-3
    branch_same: float = 0.5
    pump_rate_flip: float = 0.0
    pump_rate_preserve: float = 0.0
    temperature: float = 0.8
    splitting: float = 3.12e9
    excited_spin_rate: float = 0.0  # 1/s, applied symmetrically both ways

    def __post_init__(self):
        if self.t1_opt <= 0 or self.t1_spin <= 0:
            raise ValueError("lifetimes must be > 0")
        if not 0.0 <= self.branch_same <= 1.0:
            raise ValueError("branch_same must be within [0, 1]")
        if self.pump_rate_flip < 0 or self.pump_rate_preserve < 0:
            raise ValueError("pump rates must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0 (use math.inf for the symmetric baseline)")
        if self.splitting < 0:
            raise ValueError("splitting must be >= 0")
        if self.excited_spin_rate < 0:
            raise ValueError("excited_spin_rate must be >= 0")

    def pumps_off(self) -> "RateParams":
        return replace(self, pump_rate_flip=0.0, pump_rate_preserve=0.0)


@dataclass(frozen=True)
class FourLevelState:
    """Occupation probabilities (g_low, g_up, e_low, e_up).

    Non-negative and summing to one within 1e-9.
    """

    populations: tuple[float, float, float, float]

    def __post_init__(self):
        p = tuple(float(x) for x in self.populations)
        if len(p) != 4:
            raise ValueError("need exactly four populations")
        if min(p) < -1e-12:
            raise ValueError(f"populations must be >= 0, got {p}")
        if abs(sum(p) - 1.0) > 1e-9:
            raise ValueError(f"populations must sum to 1 within 1e-9, got {sum(p)}")
        object.__setattr__(self, "populations", p)

    def as_array(self) -> np.ndarray:
        return np.array(self.populations)

    @property
    def ground_polarization(self) -> float:
        """(p_g_low - p_g_up) / (p_g_low + p_g_up)."""
        lo, up = self.populations[0], self.populations[1]
        return (lo - up) / (lo + up)

    @property
    def excited_total(self) -> float:
        return self.populations[2] + self.populations[3]


def _boltzmann_ratio(rp: RateParams) -> float:
    """exp(-h nu / k T), the equilibrium upper/lower ground occupation ratio."""
    if math.isinf(rp.temperature):
        return 1.0
    kt = BOLTZMANN * rp.temperature
    if kt == 0.0:  # kT underflows: the T -> 0 limit
        return 0.0 if rp.splitting > 0 else 1.0
    return math.exp(-PLANCK * rp.splitting / kt)


def thermal_state(rp: RateParams) -> FourLevelState:
    """Ground-state Boltzmann equilibrium with empty excited states."""
    e = _boltzmann_ratio(rp)
    return FourLevelState((1.0 / (1.0 + e), e / (1.0 + e), 0.0, 0.0))


def rate_generator(rp: RateParams) -> np.ndarray:
    """Rate matrix K (1/s) with convention dp/dt = K p.

    ``K[i, j]`` is the rate from state j into state i; columns sum to zero,
    off-diagonals are non-negative, and the g_low <-> g_up pair obeys
    detailed balance at the configured temperature and splitting.
    """
    k = np.zeros((4, 4))
    gamma = 1.0 / rp.t1_opt
    bs = rp.branch_same
    # optical decay with branching
    k[0, 2] += bs * gamma
    k[1, 2] += (1.0 - bs) * gamma
    k[1, 3] += bs * gamma
    k[0, 3] += (1.0 - bs) * gamma
    # ground-state spin relaxation: polarization decays at 1/t1_spin
    e = _boltzmann_ratio(rp)
    total = 1.0 / rp.t1_spin
    k[1, 0] += total * e / (1.0 + e)   # up-flip
    k[0, 1] += total / (1.0 + e)       # down-flip
    # excited-state spin relaxation (symmetric, usually zero)
    k[3, 2] += rp.excited_spin_rate
    k[2, 3] += rp.excited_spin_rate
    # stimulated pumping, symmetric in both directions
    k[2, 1] += rp.pump_rate_flip
    k[1, 2] += rp.pump_rate_flip
    k[2, 0] += rp.pump_rate_preserve
    k[0, 2] += rp.pump_rate_preserve
    np.fill_diagonal(k, k.diagonal() - k.sum(axis=0))
    return k


def _propagate(p: np.ndarray, rp: RateParams, t: float) -> np.ndarray:
    return expm(rate_generator(rp) * t) @ p


def evolve(state: FourLevelState, rp: RateParams, t: float) -> FourLevelState:
    """Propagate ``state`` for ``t`` seconds under the constant generator.

    Uses the exact matrix exponential, so composition is exact:
    ``evolve(s, rp, t1 + t2) == evolve(evolve(s, rp, t1), rp, t2)``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p = _propagate(state.as_array(), rp, t)
    p = np.clip(p, 0.0, None)
    return FourLevelState(tuple(p / p.sum()))


def antihole_trace(rp: RateParams, burn_duration: float, wait_grid) -> tuple[np.ndarray, np.ndarray]:
    """Antihole signal versus wait time after a burn on the spin-flip line.

    Starting from thermal equilibrium, pumps run for ``burn_duration``
    seconds, then the system evolves freely for each wait in ``wait_grid``
    (seconds, sorted ascending).  The signal is the excess population of
    the probed ground state g_low over its thermal value.  It first rises
    while the excited-state reservoir decays (time scale t1_opt) and then
    relaxes on the spin lifetime t1_spin, so the trace is biexponential.

    Returns ``(waits, signals)`` as arrays.
    """
    if burn_duration <= 0:
        raise ValueError("burn_duration must be > 0")
    waits = np.asarray(wait_grid, dtype=float)
    if waits.size == 0:
        raise ValueError("wait_grid must not be empty")
    if np.any(np.diff(waits) < 0):
        raise ValueError("wait_grid must be sorted ascending")

    p_th = thermal_state(rp).as_array()
    p_burned = _propagate(p_th, rp, burn_duration)
    k_free = rate_generator(rp.pumps_off())
    signals = np.array([(expm(k_free * w) @ p_burned)[0] - p_th[0] for w in waits])
    return waits, signals


def pumping_efficiency(rp: RateParams, burn_duration: float, baseline: str = "thermal") -> float:
    """Fraction of population transferred into the target state g_low.

    Evaluated immediately after a burn of ``burn_duration`` seconds from
    thermal equilibrium.  ``baseline="thermal"`` normalizes as
    ``(p_target - p_thermal) / (1 - p_thermal)``; ``baseline="unpolarized"``
    uses 1/2 as the reference instead.  Both normalizations are reported by
    the pumping-efficiency experiment since the convention matters.
    """
    if burn_duration <= 0:
        raise ValueError("burn_duration must be > 0")
    if baseline not in ("thermal", "unpolarized"):
        raise ValueError("baseline must be 'thermal' or 'unpolarized'")
    p_th = thermal_state(rp).as_array()
    p = _propagate(p_th, rp, burn_duration)
    ref = p_th[0] if baseline == "thermal" else 0.5
    return float((p[0] - ref) / (1.0 - ref))
