"""How fast the shared machine runs, gauged with a fixed reference task.

The benchmark shares a few cores of its host with other tenants.  Their
load makes the same code run up to 1.4 times as long, in phases that last
minutes, longer than one benchmark run.  :class:`Gauge` times a small fixed
task between the benchmark's runs.  The task calls no erspin-sim code, so a
change to the program leaves it alone, while a slower machine slows it as it
slows the program.  Dividing a measured time by :meth:`Gauge.slowdown` gives
the time the machine would have taken at its nominal speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About the median time of one reference task on the 2-vCPU machine the
#: README's numbers come from.  Only ratios to it matter.
NOMINAL_S = 0.0025


def _cost(p, x, y):
    """A small least-squares objective, like those the fits minimize."""
    r = p[0] * np.exp(-p[1] * x) + p[2] - y
    return float(np.dot(r, r))


class Gauge:
    """Samples of the reference task, at most one every ``every_s`` seconds."""

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples: list[float] = []
        self._next = 0.0
        self._x = np.linspace(0.0, 1.0, 61)
        self._y = np.exp(-2.0 * self._x)
        self._wide = np.linspace(0.0, 1.0, 20_000)

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.samples.append(self._task())
            self._next = time.perf_counter() + self.every_s

    def _task(self) -> float:
        """Interpreted loops over small arrays, long vector expressions, number formatting."""
        start = time.perf_counter()
        p = np.array([1.0, 2.0, 0.0])
        for k in range(80):
            _cost(p + 1e-3 * k, self._x, self._y)
        for _ in range(3):
            np.exp(-self._wide) * np.sin(7.0 * self._wide)
        ",".join(repr(i * 0.37) for i in range(600))
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """The median task time over the nominal one."""
        return statistics.median(self.samples) / NOMINAL_S
