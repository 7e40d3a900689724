#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the erspin-sim command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload coherent --seed 1 --seconds 20 --trace 0

One client calls ``erspin_sim.cli.main(argv)`` in this process, one run at
a time.  The seed-drawn probes are made twice first and timed apart.  A
pass is one sweep over the workload's timed runs; passes repeat until
``--seconds`` have gone by (at least two, so every run is made twice and
its artifacts must hash the same).  Every run's exit code, summary values
and artifact digests are checked.  The last line of standard output is
the result object; the line before it is the full report, which is also
written under ``.perfbench_out/``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
median traced pass.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from gauge import Gauge
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_PASSES = 2

# Cold start as every CLI call pays it: a fresh interpreter imports the
# command line and resolves one configuration.
SETUP_CHILD = """
import json, sys, time
from erspin_sim import cli
cli.build_config(sys.argv[1], set_overrides=json.loads(sys.argv[2]))
print(time.monotonic_ns())
"""


def measure_setup(run: workloads.Run, gauge: Gauge) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, run.experiment, json.dumps(dict(run.sets))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append((int(child.stdout.split()[-1]) - start) / 1e9)
        gauge.maybe_sample()
    return samples


# ---------------------------------------------------------------------------
# Checks


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None  # true/false, preset and experiment names


def check_run(run: workloads.Run, code, out_dir: Path) -> tuple[list[str], tuple]:
    """Problems found with one finished run, and its artifact digests."""
    stem = out_dir / run.experiment
    trace, summary_path = Path(f"{stem}_trace.csv"), Path(f"{stem}_summary.txt")
    if code != run.expect_exit:
        return [f"exit code {code}, expected {run.expect_exit}"], (None, None)
    if code != 0:
        return [], (None, None)
    digests = (_digest(trace), _digest(summary_path))
    if None in digests:
        return ["missing trace or summary file"], digests
    summary = _read_summary(summary_path)
    problems = [
        f"{key} = {text} is not finite"
        for key, text in summary.items()
        if (value := _number(text)) is not None and not math.isfinite(value)
    ]
    for a in run.anchors:
        value = _number(summary.get(a.key, ""))
        ref = _number(summary.get(a.reference, "")) if isinstance(a.reference, str) else a.reference
        if value is None or ref is None:
            problems.append(f"{a.key} or its reference {a.reference} missing")
        elif abs(value - ref) > a.tol * (abs(ref) if a.rel else 1.0):
            problems.append(f"{a.key} = {value!r} not within {a.tol} of {ref!r}")
    return problems, digests


# ---------------------------------------------------------------------------
# Passes


def run_pass(cli, runs, out_root: Path, tracer: Tracer | None, gauge: Gauge | None = None):
    """One sweep over ``runs``: the pass record, per-run wall and CPU times, exit codes.

    ``gauge`` samples the machine's speed between runs, outside their times.
    """
    latencies, cpu_times, codes = [], [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    sink = io.StringIO()  # the diagnostics of rejected runs
    with contextlib.redirect_stderr(sink):
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        wall0, cpu0 = clock(), cpu_clock()
        for i, run in enumerate(runs):
            if tracer is not None:
                tracer.run_id = i
            argv = run.argv(out_root / f"{i:04d}")
            start, cpu_start = clock(), cpu_clock()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails this run; the rest still run
                code = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
            cpu_times.append(cpu_clock() - cpu_start)
            codes.append(code)
            if gauge is not None:
                gauge.maybe_sample()
        wall, cpu = clock() - wall0, cpu_clock() - cpu0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    return {"wall_s": wall, "cpu_s": cpu, "minor_faults": faults}, latencies, cpu_times, codes


def median_pass(samples: list[list[float]]) -> float:
    """A pass made of each run's median over the passes: the sum of those medians.

    The machine changes speed in phases of a few seconds; a run's median
    over many passes skips the phases a plain pass total averages in.
    """
    return sum(statistics.median(run) for run in zip(*samples))


def percentile_report(samples: list[float]) -> dict:
    """Median and p90 of per-run latency, each given only with ten samples beyond it."""
    n = len(samples)
    out = {"samples": n}
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    for name, q, cut in (("latency_p50_s", 0.5, cuts[4]), ("latency_p90_s", 0.9, cuts[8])):
        out[name] = cut if n * (1.0 - q) >= 10 else None
    return out


def layer_metrics(tracer: Tracer, record: dict, bytes_written: int) -> dict[str, tuple[float, str]]:
    self_s = tracer.self_times()
    c = tracer.counts
    starts = c["fitting.starts"]
    return {
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "config.build_s": (self_s.get("config.build", 0.0), "s"),
        "config.calls": (c["config.calls"], "count"),
        "config.rejects": (c["config.rejects"], "count"),
        "experiments.write_s": (self_s.get("experiments.run", 0.0), "s"),
        "experiments.bytes_written": (bytes_written, "B"),
        "bloch.kernel_s": (self_s.get("bloch.kernel", 0.0), "s"),
        "bloch.member_points": (c["bloch.member_points"], "count"),
        "bloch.members_s": (self_s.get("bloch.members", 0.0), "s"),
        "bloch.members": (c["bloch.members"], "count"),
        "bloch.pi_fidelity_s": (self_s.get("bloch.pi_fidelity", 0.0), "s"),
        "fitting.fit_s": (self_s.get("fitting.fit", 0.0), "s"),
        "fitting.fits": (c["fitting.fits"], "count"),
        "fitting.starts": (starts, "count"),
        "fitting.evals": (c["fitting.evals"], "count"),
        "fitting.starts_failed": (c["fitting.starts_failed"], "count"),
        "fitting.converged_ratio": ((starts - c["fitting.starts_failed"]) / starts if starts else 0.0, "ratio"),
        "pumping.kernel_s": (self_s.get("pumping.kernel", 0.0), "s"),
        "pumping.expm_calls": (c["pumping.expm_calls"], "count"),
        "spectra.profile_s": (self_s.get("spectra.profile", 0.0), "s"),
        "spectra.profile_points": (c["spectra.profile_points"], "count"),
        "resonator.model_s": (self_s.get("resonator.model", 0.0), "s"),
        "resonator.calls": (c["resonator.calls"], "count"),
        "memory.minor_faults": (record["minor_faults"], "count"),
        "trace.wall_s": (record["wall_s"], "s"),
        "trace.residual_s": (record["wall_s"] - tracer.root_time(), "s"),
    }


def _bytes_written(out_root: Path) -> int:
    return sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Machine and build facts


def _blas_threads() -> int | None:
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and line.rstrip().endswith(".so")}
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {}
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "holdout_seed": workloads.HOLDOUT_SEED,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------


class Checks:
    """Failed runs against runs attempted, over every pass of every list."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self._reference: dict[Path, list] = {}

    def add_pass(self, runs, codes, out_root: Path, label: str):
        digests = []
        reference = self._reference.setdefault(out_root, [])
        for i, (run, code) in enumerate(zip(runs, codes)):
            problems, d = check_run(run, code, out_root / f"{i:04d}")
            digests.append(d)
            if reference and d != reference[i]:
                problems.append("artifact digests differ from the first pass")
            self.attempted += 1
            if problems:
                self.failures.append({"pass": label, "run": i, "argv": run.argv("DIR"), "problems": problems})
        if not reference:
            reference.extend(digests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "erspin_sim" / "cli.py").is_file():
        print(f"perfbench: no erspin_sim sources under {SRC}", file=sys.stderr)
        return 1
    work = workloads.WORKLOADS[args.workload](args.seed)
    gauge = Gauge()
    setup = measure_setup(next(r for r in work.timed if r.expect_exit == 0), gauge)

    sys.path.insert(0, str(SRC))
    from erspin_sim import cli

    out_root = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    checks = Checks()
    clock = time.perf_counter
    deadline = clock() + args.seconds
    # The probes run first and double as the warm-up of lazy imports.
    probe_walls = []
    for k in range(MIN_PASSES if work.probes else 0):
        record, _, _, codes = run_pass(cli, work.probes, out_root / "probes", None, gauge)
        probe_walls.append(record["wall_s"])
        checks.add_pass(work.probes, codes, out_root / "probes", f"probes {k + 1}")

    passes, latencies, walls, cpus, spans = [], [], [], [], []
    # A pass starts only while it is expected to end by the deadline, give or take half a pass.
    while len(passes) < MIN_PASSES or clock() + passes[-1]["wall_s"] / 2 < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            record, lat, cpu, codes = run_pass(
                cli, work.timed, out_root / "timed", tracer if traced else None, None if traced else gauge
            )
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        if traced:
            record["layers"] = layer_metrics(tracer, record, _bytes_written(out_root / "timed"))
            spans += [[len(passes)] + s for s in tracer.spans]
        else:
            latencies += lat
            walls.append(lat)
            cpus.append(cpu)
        passes.append(record)
        checks.add_pass(work.timed, codes, out_root / "timed", f"timed {len(passes)}")

    report = {
        "facts": machine_facts(args.workload, args.seed),
        "timed_runs": len(work.timed),
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "probe_runs": len(work.probes),
        "probe_wall_s": probe_walls,
        "setup_s_samples": setup,
        "latency": percentile_report(latencies),
        "attempted": checks.attempted,
        "fail_ratio": len(checks.failures) / checks.attempted,
        "failures": checks.failures[:20],
        "gauge_s": gauge.samples,
        "slowdown": gauge.slowdown(),
        # The times as the clock read them, before dividing by the slowdown.
        "measured": {"setup_s": statistics.median(setup), "wall_s": median_pass(walls), "cpu_s": median_pass(cpus)},
    }
    if tracer is None:
        metrics = {k: (v / report["slowdown"], "s") for k, v in report["measured"].items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
        metrics = dict(traced[(len(traced) - 1) // 2]["layers"])
        overhead = metrics["trace.wall_s"][0] - statistics.median(sum(w) for w in walls)
        metrics["trace.overhead_s"] = (overhead, "s")
        span_file = OUT / f"spans-{args.workload}-{args.seed}.json"
        span_file.write_text(json.dumps({"fields": ["pass", "name", "start", "end", "parent", "run"], "spans": spans}))
        report["span_file"] = str(span_file.relative_to(ROOT))
        report["untraced_targets"] = sorted(tracer.missing)
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
