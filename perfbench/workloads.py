"""Seeded run lists for the benchmark workloads.

A workload turns a seed into lists of :class:`Run` objects: the
``--set key=value`` arguments handed to ``erspin_sim.cli.main``, the exit
code the run must return, and the summary values it must reproduce.  The
same seed always gives the same lists; the program sees only these
generated arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of all tuning, for checking a claimed gain afterwards.
HOLDOUT_SEED = 2105

GROUND = "ground-config"
EXCITED = "excited-config"


@dataclass(frozen=True)
class Anchor:
    """Summary value ``key`` must lie within ``tol`` of a reference.

    The reference is another summary key (a string) or a number.  ``rel``
    makes the tolerance relative to the reference.
    """

    key: str
    reference: str | float
    tol: float
    rel: bool = True


@dataclass(frozen=True)
class Run:
    experiment: str
    sets: tuple[tuple[str, str], ...]
    expect_exit: int = 0
    anchors: tuple[Anchor, ...] = ()

    def argv(self, out_dir) -> list[str]:
        args = [self.experiment]
        for key, value in self.sets:
            args += ["--set", f"{key}={value}"]
        return args + ["--out", str(out_dir)]


@dataclass(frozen=True)
class Workload:
    """``timed`` runs make up a measured pass; ``probes`` are checked only.

    Whether a Nelder-Mead start stops at its evaluation limit flips with
    small changes of the input, so a handful of drawn fit runs costs a
    different amount for every seed.  Workloads with few, long runs
    therefore time a fixed design spread over the parameter ranges and
    add seed-drawn probes, which are run, checked and timed apart.
    """

    timed: list[Run]
    probes: list[Run]


# Tolerances of the acceptance tests (tests/test_acceptance.py and
# tests/test_experiments.py) for the values each experiment anchors.
RABI = Anchor("rabi_frequency_hz", "rabi_frequency_set_hz", 0.01)
ECHO = Anchor("t2_fit_s", "t2_set_s", 0.05)
RESONATOR = (Anchor("f0_hz", "f0_set_hz", 1.0, rel=False), Anchor("fwhm_hz", "fwhm_set_hz", 1.0, rel=False))


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _strata(lo: float, hi: float, n: int, log: bool = False) -> list[float]:
    """Midpoints of n equal strata of [lo, hi] (of log space when ``log``)."""
    if log:
        return [lo * (hi / lo) ** ((i + 0.5) / n) for i in range(n)]
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


# Time points of the coherent traces, a tenth of the defaults (2001, 401 and
# 201).  A default rabi, ramsey or echo run takes 3.5 to 5 s, too long to be
# made often enough in one benchmark run for its median to be steady.
TIME_POINTS = {"rabi": ("trace_points", "201"), "ramsey": ("tau_points", "41"), "echo": ("tau_points", "21")}


def _coherent_run(experiment, preset, fwhm, spread, t2):
    sets = (("preset", preset), ("line_fwhm_hz", _fmt(fwhm)), ("amplitude_spread", _fmt(spread)))
    sets += (TIME_POINTS[experiment],)
    if experiment == "rabi":
        return Run("rabi", sets, anchors=(RABI,))
    if experiment == "echo":
        return Run("echo", sets + (("t2_s", _fmt(t2)),), anchors=(ECHO,))
    return Run("ramsey", sets)


def coherent(seed: int) -> Workload:
    """Rabi on both presets, Ramsey and echo; one seed-drawn probe."""
    fwhm, spread = _strata(6e6, 12e6, 4), _strata(0.005, 0.02, 4)[::-1]
    kinds = (("rabi", GROUND), ("rabi", EXCITED), ("ramsey", EXCITED), ("echo", GROUND))
    timed = [_coherent_run(e, p, fwhm[i], spread[i], 1.25e-6) for i, (e, p) in enumerate(kinds)]

    rng = random.Random(f"coherent:{seed}")
    experiment, preset = rng.choice(("rabi", "ramsey", "echo")), rng.choice((GROUND, EXCITED))
    # Finite excited-config pulses (6.2 MHz Rabi) do not refocus lines much
    # wider than 9 MHz: the fitted T2 then drifts past the 5% anchor.
    fwhm_hi = 9e6 if (experiment, preset) == ("echo", EXCITED) else 12e6
    probe = _coherent_run(
        experiment, preset, rng.uniform(6e6, fwhm_hi), rng.uniform(0.005, 0.02), rng.uniform(0.5e-6, 2e-6)
    )
    return Workload(timed, [probe])


def _holeburn_run(t1_spin, branch_same, pump_rate_flip):
    t1_spin = _fmt(t1_spin)
    sets = (("t1_spin_s", t1_spin), ("branch_same", _fmt(branch_same)), ("pump_rate_flip", _fmt(pump_rate_flip)))
    return Run("holeburn", sets, anchors=(Anchor("decay_time_s", float(t1_spin), 0.10),))


def _resonator_run(f0, fwhm):
    return Run("resonator", (("f0_hz", _fmt(f0)), ("fwhm_hz", _fmt(fwhm))), anchors=RESONATOR)


def fit_bound(seed: int) -> Workload:
    """Holeburn (biexponential) and resonator (Lorentzian) fits; three probes."""
    t1, branch, pump = _strata(20e-3, 100e-3, 2, log=True), _strata(0.3, 0.7, 2), _strata(100.0, 400.0, 2, log=True)
    timed = [_holeburn_run(t1[0], branch[1], pump[0]), _holeburn_run(t1[1], branch[0], pump[1])]
    timed += [_resonator_run(f0, fwhm) for f0, fwhm in zip(_strata(2.8e9, 3.4e9, 4)[::-1], _strata(30e6, 90e6, 4))]

    rng = random.Random(f"fit-bound:{seed}")
    probes = [
        _holeburn_run(_loguniform(rng, 20e-3, 100e-3), rng.uniform(0.3, 0.7), _loguniform(rng, 100.0, 400.0))
    ]
    probes += [_resonator_run(rng.uniform(2.8e9, 3.4e9), rng.uniform(30e6, 90e6)) for _ in range(2)]
    return Workload(timed, probes)


def _pumping_efficiency(rng):
    return Run(
        "pumping-efficiency",
        (
            ("preset", rng.choice((GROUND, EXCITED))),
            ("t1_opt_s", _fmt(_loguniform(rng, 5e-3, 20e-3))),
            ("t1_spin_s", _fmt(_loguniform(rng, 20e-3, 100e-3))),
            ("branch_same", _fmt(rng.uniform(0.2, 0.8))),
            ("pump_rate_flip", _fmt(_loguniform(rng, 500.0, 5000.0))),
            ("temperature_k", _fmt(rng.uniform(0.5, 1.5))),
            ("burn_duration_s", _fmt(_loguniform(rng, 20e-3, 200e-3))),
            ("line_fwhm_hz", _fmt(rng.uniform(6e6, 12e6))),
            ("probe_width_hz", _fmt(rng.uniform(0.2e6, 1e6))),
        ),
    )


def _heating_budget(rng):
    return Run(
        "heating-budget",
        (
            ("slope_k_per_w", _fmt(rng.uniform(20.0, 80.0))),
            ("max_delta_t_k", _fmt(rng.uniform(0.05, 0.2))),
            ("p_peak_w", _fmt(rng.uniform(10.0, 200.0))),
            ("pulse_len_s", _fmt(_loguniform(rng, 10e-9, 100e-9))),
            ("rep_period_s", _fmt(_loguniform(rng, 0.2e-3, 20e-3))),
            ("points", str(rng.randint(51, 201))),
        ),
    )


# Inputs that the configuration layer must reject with exit code 2.
_INVALID = (
    lambda rng: Run(rng.choice(("pumping-efficiency", "heating-budget")), (("no_such_key", "1"),), 2),
    lambda rng: Run("pumping-efficiency", (("branch_same", "1.5"),), 2),
    lambda rng: Run(
        "heating-budget",
        (("pulse_len_s", _fmt(_loguniform(rng, 1e-6, 1e-5))), ("rep_period_s", _fmt(_loguniform(rng, 1e-8, 1e-7)))),
        2,
    ),
    lambda rng: Run("heating-budget", (("points", rng.choice(("12.5", "abc", "1e2", ""))),), 2),
)


def short_runs(seed: int) -> Workload:
    """Hundreds of millisecond runs, a tenth of them rejected.

    Drawn runs are cheap and many, so their cost hardly changes with the
    seed, and they are all timed.
    """
    rng = random.Random(f"short-runs:{seed}")
    runs = [_pumping_efficiency(rng) for _ in range(108)]
    runs += [_heating_budget(rng) for _ in range(108)]
    runs += [make(rng) for make in _INVALID for _ in range(6)]
    rng.shuffle(runs)
    return Workload(runs, [])


WORKLOADS = {"coherent": coherent, "fit-bound": fit_bound, "short-runs": short_runs}
