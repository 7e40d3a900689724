"""Deterministic simulator of an optically interfaced erbium spin ensemble.

Modules by concern:

* :mod:`erspin_sim.geometry`   preset g-factors, splitting and Rabi frequencies
* :mod:`erspin_sim.pumping`    four-level rate equations for optical spin initialization
* :mod:`erspin_sim.spectra`    line shapes, hole/antihole profiles and their readout
* :mod:`erspin_sim.bloch`      single-pulse rotations and ensemble Rabi, Ramsey and echo traces
* :mod:`erspin_sim.resonator`  microwave chain: transmission, field conversion, heating
* :mod:`erspin_sim.fitting`    deterministic least-squares trace fitting
* :mod:`erspin_sim.experiments` named end-to-end protocols behind the CLI
"""

from .bloch import (
    GROUND,
    AmplitudeSpread,
    BlochVector,
    ConvergenceError,
    EnsembleSpec,
    Pulse,
    echo_trace,
    pi_fidelity_avg,
    pi_fidelity_center,
    propagate,
    rabi_trace,
    ramsey_trace,
)
from .config import ConfigError
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, build_config, run
from .fitting import FitError, FitResult, fit
from .geometry import (
    EXCITED_CONFIG,
    GROUND_CONFIG,
    EffectiveGFactors,
    field_for_splitting,
    preset_g_factors,
)
from .pumping import (
    FourLevelState,
    RateParams,
    antihole_trace,
    evolve,
    rate_generator,
    thermal_state,
)
from .resonator import (
    HeatingModel,
    HeatingReport,
    ResonatorParams,
    calibrate_conversion,
    field_from_power,
    heating_budget,
    s21,
)
from .spectra import (
    LineShape,
    ReadoutModel,
    SpectrumProfile,
    antihole_spectra,
    antihole_spectrum,
    excited_readout_contrast,
    hole_area_ratio,
    line_value,
    profile_fwhm,
)

__version__ = "0.1.0"
