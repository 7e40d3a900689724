"""Span tracing of erspin-sim layers from outside the package.

:class:`Tracer` swaps the module attributes the package calls through for
timing wrappers and restores them afterwards.  Each wrapped call records
one span (name, start, end, parent span, run id) in memory; a layer's
self time is the time of its spans minus the time their child spans
cover.  Counters are updated at the same boundaries.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


def _span_targets():
    """(owner, attribute, layer) for every call boundary that gets a span."""
    from erspin_sim import bloch, cli, fitting, pumping, resonator, spectra

    targets = [
        (cli, "main", "cli"),
        (cli, "build_config", "config.build"),
        (cli, "run", "experiments.run"),
        (bloch.EnsembleSpec, "members", "bloch.members"),
        (fitting, "fit", "fitting.fit"),
    ]
    targets += [(bloch, name, "bloch.kernel") for name in ("rabi_trace", "ramsey_trace", "echo_trace")]
    targets += [(bloch, name, "bloch.pi_fidelity") for name in ("pi_fidelity_avg", "pi_fidelity_center")]
    targets += [
        (pumping, name, "pumping.kernel")
        for name in ("thermal_state", "evolve", "antihole_trace", "pumping_efficiency")
    ]
    targets += [
        (spectra, name, "spectra.profile") for name in ("antihole_spectrum", "hole_area_ratio", "profile_fwhm")
    ]
    targets += [(resonator, name, "resonator.model") for name in ("s21", "field_from_power", "heating_budget")]
    return targets


def _optimizer_targets():
    """Whichever ``scipy.optimize`` callables the fitting module binds."""
    from erspin_sim import fitting

    return [
        (fitting, name)
        for name, obj in vars(fitting).items()
        if callable(obj) and getattr(obj, "__module__", "").startswith("scipy.optimize")
    ]


class Tracer:
    """In-memory spans and counters for the wrapped layers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.run_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._last_members = 0
        self.missing: set[str] = set()  # targets the package no longer has

    # -- patching --------------------------------------------------------

    def install(self):
        from erspin_sim import pumping
        from erspin_sim.config import ConfigError

        calls = {"config.build": "config.calls", "fitting.fit": "fitting.fits", "resonator.model": "resonator.calls"}
        hooks = {
            "bloch.members": self._count_members,
            "bloch.kernel": self._count_member_points,
            "spectra.profile": self._count_profile_points,
        }
        for owner, attr, layer in _span_targets():
            if attr not in vars(owner):
                self.missing.add(f"{owner.__name__}.{attr}")
                continue
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._spanned(fn, layer, calls.get(layer), hooks.get(layer), ConfigError))
        for owner, attr in _optimizer_targets():
            self._patch(owner, attr, self._optimizer(getattr(owner, attr)))
        if "expm" in vars(pumping):
            self._patch(pumping, "expm", self._counted(pumping.expm, "pumping.expm_calls"))
        else:
            self.missing.add("pumping.expm")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers --------------------------------------------------------

    def _spanned(self, fn, layer, call_counter, on_result, config_error):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if call_counter is not None:
                self.counts[call_counter] += 1
            index = len(spans)
            span = [layer, clock(), None, stack[-1] if stack else None, self.run_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except config_error:
                if layer == "config.build":
                    self.counts["config.rejects"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _optimizer(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["fitting.starts"] += 1
            self.counts["fitting.evals"] += int(getattr(result, "nfev", 0))
            self.counts["fitting.starts_failed"] += not getattr(result, "success", True)
            return result

        return wrapper

    def _counted(self, fn, counter):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_members(self, result):
        self._last_members = len(result[0])
        self.counts["bloch.members"] += self._last_members

    def _count_member_points(self, result):
        # every kernel builds its members once, right before propagating them
        self.counts["bloch.member_points"] += self._last_members * len(result[0])

    def _count_profile_points(self, result):
        freq = getattr(result, "freq_hz", None)
        if freq is not None:
            self.counts["spectra.profile_points"] += len(freq)

    # -- analysis --------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span time minus the time of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)
