"""Rewrite the golden record: the 14 files of the seven default runs.

Usage::

    python tests/golden/regenerate.py

It runs each experiment with its defaults at one OpenBLAS thread on the
kernel OpenBLAS picks for the host, importing the package from this
checkout's ``src/``.  The runs write into a temporary directory next to
this script, and only when all seven exit 0 do their files replace the
record, so a failing run leaves the record as it was.  A change that moves
a value on purpose regenerates the record, so that the diff of these files
shows what moved.
"""

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS, so before the import below
os.environ.pop("OPENBLAS_CORETYPE", None)
sys.path.insert(0, str(HERE.parents[1] / "src"))

from erspin_sim import cli  # noqa: E402

with tempfile.TemporaryDirectory(dir=HERE) as out:
    for experiment in cli.EXPERIMENT_NAMES:
        if cli.main([experiment, "--out", out]) != 0:
            sys.exit(f"the default {experiment} run failed; the record is unchanged")
    for path in [*HERE.glob("*_trace.csv"), *HERE.glob("*_summary.txt")]:  # drop an experiment's files with it
        path.unlink()
    for path in Path(out).iterdir():
        path.replace(HERE / path.name)
