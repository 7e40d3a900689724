"""Deterministic simulator of an optically interfaced erbium spin ensemble.

The package re-exports nothing: import the submodules, and reach each
public object by its one name, ``erspin_sim.<module>.<name>``.

Modules by concern:

* :mod:`erspin_sim.geometry`   preset g-factors, splitting and Rabi frequencies
* :mod:`erspin_sim.pumping`    four-level rate equations for optical spin initialization
* :mod:`erspin_sim.spectra`    line shapes, hole/antihole profiles and their readout
* :mod:`erspin_sim.bloch`      single-pulse rotations and ensemble Rabi, Ramsey and echo traces
* :mod:`erspin_sim.resonator`  microwave chain: transmission, field conversion, heating
* :mod:`erspin_sim.fitting`    deterministic least-squares trace fitting
* :mod:`erspin_sim.experiments` named end-to-end protocols behind the CLI
* :mod:`erspin_sim.cli`        command-line entry point
* :mod:`erspin_sim.config`     flat ``key = value`` configuration files
* :mod:`erspin_sim.constants`  CODATA 2018 physical constants
"""

__version__ = "0.1.0"
