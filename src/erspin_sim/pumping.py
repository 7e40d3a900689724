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
* stimulated pumping at symmetric (absorption = stimulated emission)
  rates: ``pump_rate_flip`` drives the spin-flip transition
  g_up <-> e_low, accumulating population in g_low; ``pump_rate_preserve``
  drives the spin-preserving transition g_low <-> e_low, depleting the
  probed state (hole burning).

The generator is a constant 4x4 rate matrix, so evolution over an interval
is its matrix exponential, computed by uniformization (:func:`expm`); no
step-size issues despite rates spanning 1/s to >1e3/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import BOLTZMANN, PLANCK
from .geometry import PRESET_SPLITTING_HZ


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
    splitting: float = PRESET_SPLITTING_HZ

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
    # stimulated pumping, symmetric in both directions
    k[2, 1] += rp.pump_rate_flip
    k[1, 2] += rp.pump_rate_flip
    k[2, 0] += rp.pump_rate_preserve
    k[0, 2] += rp.pump_rate_preserve
    np.fill_diagonal(k, k.diagonal() - k.sum(axis=0))
    return k


def max_exit_rate(rp: RateParams) -> float:
    """``q = max_i -K_ii`` in 1/s, the fastest rate at which any state empties."""
    return float(-rate_generator(rp).diagonal().min())


#: Largest ``q t`` (``q`` from :func:`max_exit_rate`) at which :func:`expm`
#: is trusted.  Against a 60-digit mpmath reference, over random generators
#: with rates up to 1e12 /s, the largest entrywise error grows as about
#: ``0.25 q t eps``: 2.7e-11 at q t = 1e6, 4.6e-10 at 1e7 and 2.2e-6 at 1e11.
#: This limit keeps it below 1e-10.
MAX_RATE_TIME = 1e6

#: Taylor coefficients 1/n! of e^x, n = 0..23, in six blocks of four.
_TAYLOR = np.array([1.0 / math.factorial(n) for n in range(24)]).reshape(6, 4)


def expm(k) -> np.ndarray:
    """``exp(k)`` of a rate generator (off-diagonals >= 0, columns summing to 0) or a stack of them.

    Uniformization (Jensen 1953): with ``q = max_i -k_ii`` the matrix
    ``a = I + k/q`` is column-stochastic and ``exp(k) = e^-q sum_n q^n/n! a^n``.
    The series is summed to degree 23 at ``theta = q/2^s < 2`` (truncation
    below 4e-18) and squared ``s`` times.  Every term is non-negative, so
    nothing cancels and the result is entrywise accurate (Xue and Ye 2013).
    The columns of ``exp(k)`` sum to one; dividing them by their sums, in
    place of ``e^-q`` and again after the squarings, keeps the error that
    rounding in the squarings builds up below ``max(1, q/5) * eps``
    (measured against mpmath for q up to 2e5).
    """
    k = np.asarray(k, dtype=float)
    n = k.shape[-1]
    q = -k.diagonal(0, -2, -1).min(-1)
    s = np.maximum(np.frexp(q)[1] - 1, 0)
    theta = np.ldexp(q, -s)
    a = np.ldexp(k, -s[..., None, None])  # theta * (I + k/q) = k/2^s + theta I
    a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1] += theta[..., None]
    powers = np.empty(a.shape[:-2] + (4, n, n))  # a^0 .. a^3
    powers[..., 0, :, :] = np.eye(n)
    powers[..., 1, :, :] = a
    np.matmul(a, a, out=powers[..., 2, :, :])
    np.matmul(powers[..., 2, :, :], a, out=powers[..., 3, :, :])
    a4 = powers[..., 2, :, :] @ powers[..., 2, :, :]
    blocks = (_TAYLOR @ powers.reshape(a.shape[:-2] + (4, n * n))).reshape(a.shape[:-2] + (6, n, n))
    p = blocks[..., 5, :, :]
    for j in (4, 3, 2, 1, 0):  # Paterson-Stockmeyer: Horner in a^4 over the blocks
        p = a4 @ p + blocks[..., j, :, :]
    p /= p.sum(axis=-2, keepdims=True)
    for j in range(s.max(initial=0)):  # square each matrix s times
        squared = p @ p
        p = squared if s.ndim == 0 else np.where(s[..., None, None] > j, squared, p)
    return p / p.sum(axis=-2, keepdims=True)


def evolve(state: FourLevelState, rp: RateParams, t: float) -> FourLevelState:
    """Propagate ``state`` for ``t`` seconds under the constant generator.

    The propagator ``exp(K t)`` comes from :func:`expm` (uniformization), so
    it is non-negative and composes to rounding:
    ``evolve(s, rp, t1 + t2) == evolve(evolve(s, rp, t1), rp, t2)``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p = expm(rate_generator(rp) * t) @ state.as_array()
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
    excess = expm(rate_generator(rp) * burn_duration) @ p_th - p_th
    # free evolution keeps the thermal state (detailed balance), so it acts on the excess alone
    free = expm(rate_generator(rp.pumps_off()) * waits[:, None, None])  # one call for every wait
    return waits, (free @ excess)[:, 0]
