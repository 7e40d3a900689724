"""Rewrite the golden record: the 14 files of the seven default runs.

Usage::

    python tests/golden/regenerate.py

It runs each experiment with its defaults at one OpenBLAS thread on the
kernel OpenBLAS picks for the host, importing the package from this
checkout's ``src/``, and writes the files next to this script.  A change
that moves a value on purpose regenerates the record, so that the diff of
these files shows what moved.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS, so before the import below
os.environ.pop("OPENBLAS_CORETYPE", None)
sys.path.insert(0, str(HERE.parents[1] / "src"))

from erspin_sim import cli  # noqa: E402

for path in [*HERE.glob("*_trace.csv"), *HERE.glob("*_summary.txt")]:  # drop an experiment's files with it
    path.unlink()
for experiment in cli.EXPERIMENT_NAMES:
    if cli.main([experiment, "--out", str(HERE)]) != 0:
        sys.exit(f"the default {experiment} run failed")
