"""Deterministic simulator of an optically interfaced erbium spin ensemble.

Modules by concern:

* :mod:`erspin_sim.geometry`   effective g-factors, Zeeman splittings, Rabi frequencies
* :mod:`erspin_sim.pumping`    four-level rate equations for optical spin initialization
* :mod:`erspin_sim.spectra`    line shapes, hole/antihole profiles, transmission readout
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
from .fitting import FitError, FitResult, fit, read_trace_csv
from .geometry import (
    EXCITED_CONFIG,
    GROUND_CONFIG,
    EffectiveGFactors,
    FieldConfig,
    GTensor,
    effective_g,
    field_for_splitting,
    implied_g,
    preset_field_config,
    preset_g_factors,
    preset_g_tensor,
    rabi_frequency,
    zeeman_splitting,
)
from .pumping import (
    FourLevelState,
    RateParams,
    antihole_trace,
    evolve,
    pumping_efficiency,
    rate_generator,
    thermal_state,
)
from .resonator import (
    FieldHomogeneity,
    HeatingModel,
    HeatingReport,
    ResonatorParams,
    calibrate_conversion,
    field_from_power,
    heating_budget,
    rabi_spread_from_homogeneity,
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
    transmission,
)

__version__ = "0.1.0"
