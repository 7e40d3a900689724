import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erspin_sim
from erspin_sim import cli, experiments, fitting
from erspin_sim.experiments import EXPERIMENT_NAMES
from trace_csv import read_trace_csv

FLOAT_MAX = "1.7976931348623157e308"


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


class TestExitCodes:
    def test_success(self, tmp_path):
        assert cli.main(["heating-budget", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "heating-budget_trace.csv").exists()
        assert (tmp_path / "heating-budget_summary.txt").exists()

    def test_config_error_names_key(self, tmp_path, capsys):
        rc = cli.main(["rabi", "--set", "warp_factor=9", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "warp_factor" in err

    def test_unknown_experiment(self, tmp_path, capsys):
        assert cli.main(["teleport", "--out", str(tmp_path)]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["rabi", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 2

    def test_malformed_set(self, tmp_path, capsys):
        assert cli.main(["rabi", "--set", "n_samples", "--out", str(tmp_path)]) == 2

    def test_calls_in_one_process_share_no_arguments(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["heating-budget", "--set", "rep_period_s=1e-3", "--out", str(a)]) == 0
        assert cli.main(["heating-budget", "--out", str(b)]) == 0
        assert "# rep_period_s = 0.002\n" in (b / "heating-budget_trace.csv").read_text()
        assert read_summary(b / "heating-budget_summary.txt")["ok"] == "true"
        for argv in ([], ["rabi", "--seed", "5"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: erspin-sim")

    @pytest.mark.parametrize(
        "experiment, key", [("echo", "t2_s"), ("ramsey", "t2_s"), ("rabi", "line_fwhm_hz")]
    )
    def test_nan_float_is_config_error(self, tmp_path, capsys, experiment, key):
        # and an infinity where the default is finite; ramsey's t2_s defaults to inf and takes it
        for value in ("nan", "-inf") if experiment == "ramsey" else ("nan", "inf", "-inf"):
            assert cli.main([experiment, "--set", f"{key}={value}", "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("source, key", [("set", "quadrature"), ("file", "seed"), ("set", "output_dir")])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, source, key):
        """Every run is a pure function of its keys: no quadrature to choose, no seed, no directory but ``--out``."""
        if source == "set":
            argv = ["rabi", "--set", f"{key}={'grid' if key == 'quadrature' else tmp_path / 'elsewhere'}"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("schema_version = 1\nseed = 3\n")
            argv = ["rabi", "--config", str(cfg)]
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{key}: unknown key" in err
        assert not out.exists() and not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["holeburn", "--set", "wait_min_s=0.5"], "wait_min_s"),
            # geomspace overflows between the two largest floats
            (["holeburn", "--set", "wait_min_s=1.7976931348623155e308", "--set", f"wait_max_s={FLOAT_MAX}"],
             "wait_max_s"),
            # the overflow is the config error alone, with no numpy warning before it
            pytest.param(
                ["holeburn", "--set", "wait_min_s=1.7976931348623155e308", "--set", f"wait_max_s={FLOAT_MAX}"],
                "wait_max_s",
                marks=pytest.mark.filterwarnings("error"),
            ),
            (["echo", "--set", "tau_min_s=2e-6"], "tau_min_s"),
            # a window of zero span holds no time constant to fit
            (["echo", "--set", "tau_min_s=1e-6", "--set", "tau_max_s=1e-6"], "tau_min_s"),
            # exp(-2 tau_min_s / t2_s) = 9e-14: the echo starts below the rounding floor
            (["echo", "--set", "tau_min_s=1.5e-5", "--set", "tau_max_s=2e-5"], "tau_min_s"),
            (["holeburn", "--set", "wait_min_s=0.01", "--set", "wait_max_s=0.01"], "wait_min_s"),
            (["resonator", "--set", "f0_hz=1e8"], "f0_hz"),
            (["pumping-efficiency", "--set", "probe_width_hz=1e8"], "probe_width_hz"),
            # numpy rejects both sizes before it allocates anything
            (["heating-budget", "--set", "points=100000000000000000000"], "points"),
            (["rabi", "--set", "trace_points=1000000000000000000"], "trace_points"),
            (["rabi", "--set", "trace_periods=inf"], "trace_periods"),
            # fewer than two samples per drive period alias the Rabi oscillation
            (["rabi", "--set", "trace_points=16"], "trace_points"),
            (["rabi", "--set", "n_samples=11", "--set", "trace_points=32", "--set", "trace_periods=3141.5457879214155"],
             "trace_points"),
            (["ramsey", "--set", "tau_max_s=inf"], "tau_max_s"),
            (["echo", "--set", "tau_max_s=inf"], "tau_max_s"),
            # no drive: the repetition rate is unbounded, so there is no rate to report
            (["heating-budget", "--set", "p_peak_w=0"], "p_peak_w"),
            # every period of the 1 Hz - 100 kHz sweep is shorter than the pulse
            (["heating-budget", "--set", "pulse_len_s=2", "--set", "rep_period_s=3"], "pulse_len_s"),
            # no pump: the burn moves nothing, so there is no antihole to fit
            (["holeburn", "--set", "pump_rate_flip=0"], "pump_rate_flip"),
            # q t past the range in which the rate propagator keeps its accuracy
            (["pumping-efficiency", "--set", "pump_rate_flip=1e12"], "pump_rate_flip"),
            (["holeburn", "--set", "wait_max_s=1e5"], "wait_max_s"),
            (["resonator", "--set", "conversion_t_per_sqrt_w=0"], "conversion_t_per_sqrt_w"),
            (["holeburn", "--set", "temperature_k=0"], "temperature_k"),
            # windows past 0.8 of the period at which the detuning grid's trace revives
            (["ramsey", "--set", "tau_max_s=6e-6", "--set", "ideal_pulses=true"], "tau_max_s"),
            (["ramsey", "--set", "tau_max_s=4.25e-06", "--set", "line_fwhm_hz=1.2e+07", "--set", "n_samples=501",
              "--set", "tau_points=101", "--set", "preset=excited-config"], "tau_max_s"),
            (["echo", "--set", "tau_max_s=2.5e-6"], "tau_max_s"),
            # both nodes of a two-node Gaussian grid sit 20 widths out, where the density underflows: no 0/0
            # weights and no numpy warning, the filter turning any warning into an error
            pytest.param(["rabi", "--set", "n_samples=2", "--set", "line_kind=gaussian"], "n_samples",
                         marks=pytest.mark.filterwarnings("error")),
        ],
        ids=[
            "wait-order", "wait-overflow", "wait-overflow-one-line", "tau-order", "echo-zero-span",
            "echo-rounding-floor", "holeburn-zero-span", "span", "probe-kernel", "size", "memory",
            "rabi-infinite-end", "rabi-aliased", "rabi-aliased-far", "ramsey-infinite-end", "echo-infinite-end",
            "no-drive", "no-rates", "no-pump", "burn-rate-time", "wait-rate-time", "no-conversion",
            "zero-temperature",
            "ramsey-grid-period", "ramsey-grid-period-coarse", "echo-grid-period", "gaussian-two-nodes",
        ],
    )
    def test_build_rejects_inputs_its_grids_cannot_take(self, tmp_path, capsys, argv, key):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err and "RuntimeWarning" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, stall, message",
        [
            (["rabi"], "quadrature", "quadrature stalled"),
            (["resonator", "--set", "points=301"], "optimizer", "lorentzian fit did not converge"),
            # nothing is depleted, so the same-burn area ratio is undefined
            (["pumping-efficiency", "--set", "pump_rate_flip=0"], None, "area_ratio_same_burn_populations"),
            # the response underflows to zero, so the fitted peak has no loss in dB
            (["resonator", "--set", "insertion_loss_db=1.49e7"], None, "insertion_loss_db"),
            # ideal pulses, as a finite-pulse echo on this line resolves no window
            (["echo", "--set", "line_fwhm_hz=1e300", "--set", "ideal_pulses=true"], None, "overflow"),
            # f0_hz +- span_hz / 2 rounds to f0_hz: the sweep has one frequency
            (["resonator", "--set", "f0_hz=1e300"], None, "all equal"),
            (["pumping-efficiency", "--set", "line_fwhm_hz=1e308"], None, "overflow"),
            # the excess absorption underflows, so the profile is flat and has no width
            (["pumping-efficiency", "--set", "baseline_absorption=5e-324"], None, "antihole_fwhm_hz"),
            # the least-squares exponential grows, so the trace has no decay time
            (["echo", "--set", "n_samples=501", "--set", "tau_points=51", "--set", "line_fwhm_hz=3e6",
              "--set", "tau_max_s=4.27e-07", "--set", "t2_s=2.9e-05"], None, "t2_fit_s"),
            # a sweep of 1.7e-5 line widths, flat to about 1e-9: the exact fit leaves rounding noise above the gate
            (["resonator", "--set", "span_hz=1e3"], None, "residual norm"),
            # one detuning node: the trace does not dephase, so it holds no decay time
            (["ramsey", "--set", "n_samples=1"], None, "t2_star_s"),
            # a line far wider than the sweep: the trace is flat, with no center or width
            (["resonator", "--set", "fwhm_hz=1e300"], None, "f0_hz, fwhm_hz"),
        ],
        ids=[
            "quadrature", "optimizer", "non-finite-summary", "zero-peak-power", "line-overflow", "one-frequency",
            "profile-span-overflow", "profile-underflow", "growing-fit", "narrow-sweep", "flat-ramsey",
            "flat-resonator",
        ],
    )
    def test_numerical_error_maps_to_exit_3(self, tmp_path, monkeypatch, capsys, argv, stall, message):
        from erspin_sim.bloch import ConvergenceError

        def stall_quadrature(cfg):
            raise ConvergenceError("quadrature stalled")

        if stall == "quadrature":
            monkeypatch.setattr(cli, "run", stall_quadrature)
        elif stall == "optimizer":
            monkeypatch.setattr(fitting, "MAX_EVALS", 1)
        assert cli.main([*argv, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical error" in err and message in err
        assert not any(tmp_path.iterdir())  # no trace or summary written

    # sweeps of 0.33, 1.33 and 1.4 line widths, most of whose samples sit near the peak
    @pytest.mark.parametrize("span", ["20e6", "80e6", "84e6"])
    def test_narrow_resonator_sweep_fits(self, tmp_path, span):
        assert cli.main(["resonator", "--set", f"span_hz={span}", "--out", str(tmp_path)]) == 0
        summary = read_summary(tmp_path / "resonator_summary.txt")
        assert float(summary["f0_hz"]) == pytest.approx(float(summary["f0_set_hz"]), abs=1.0)
        assert float(summary["fwhm_hz"]) == pytest.approx(float(summary["fwhm_set_hz"]), abs=1.0)

    @pytest.mark.parametrize(
        "sets",
        [
            {"t1_spin_s": "0.0255", "t1_opt_s": "0.0255"},
            {"t1_spin_s": "0.053", "t1_opt_s": "0.053"},
            # lifetimes 1.9e-4 apart, where the search ends next to the merge
            {"branch_same": "0.5235952394730654", "pump_rate_flip": "0.0", "pump_rate_preserve": "828.3420629355422",
             "t1_spin_s": "0.07870348820183931", "t1_opt_s": "0.0787181119472798"},
            # a fast amplitude 0.06% of the peak, which barely moves the residual
            {"branch_same": "0.02361851222314959", "pump_rate_flip": "0", "pump_rate_preserve": "575.521730097716",
             "t1_spin_s": "0.09385562499591005", "t1_opt_s": "0.005705479920470261"},
        ],
        ids=["equal-lifetimes", "equal-default-lifetimes", "near-equal-lifetimes", "negligible-fast-amplitude"],
    )
    def test_holeburn_recovers_both_lifetimes(self, tmp_path, sets):
        """Merged, nearly merged and barely seen rates: the decay time is the slower lifetime, the rise the faster."""
        assert cli.main(["holeburn", *(arg for kv in sets.items() for arg in ("--set", "=".join(kv))), "--out",
                         str(tmp_path)]) == 0
        summary = read_summary(tmp_path / "holeburn_summary.txt")
        lifetimes = sorted(float(sets[key]) for key in ("t1_spin_s", "t1_opt_s"))
        assert float(summary["decay_time_s"]) == pytest.approx(lifetimes[1], rel=1e-6)
        assert float(summary["rise_time_s"]) == pytest.approx(lifetimes[0], rel=1e-6)
        assert all(math.isfinite(float(summary[key])) for key in ("decay_time_sigma_s", "rise_time_sigma_s"))


# 0, negative, tiny, huge, infinite and random values, positive ones drawn
# apart so that runs get past the range checks more often
odd_floats = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, math.inf, -math.inf]),
    st.floats(allow_nan=False),
    st.floats(min_value=0.0, exclude_min=True),
)


@st.composite
def fuzzed_sets(draw, experiment):
    """``--set`` arguments giving up to three float keys of ``experiment`` odd values."""
    keys = sorted(key for key, param in experiments.EXPERIMENTS[experiment][1].items() if param.kind == "float")
    values = draw(st.dictionaries(st.sampled_from(keys), odd_floats, min_size=1, max_size=3))
    return [arg for key, value in values.items() for arg in ("--set", f"{key}={value!r}")]


# Small grids that still resolve the default windows: rabi's 64 points its 15
# drive periods, ramsey's 101 and echo's 1501 detunings 0.8 of the period at
# which their traces revive
SMALL_GRIDS = {
    "rabi": ("n_samples=11", "trace_points=64"),
    "ramsey": ("n_samples=101", "tau_points=16"),
    "echo": ("n_samples=1501", "tau_points=16"),
}


class TestFuzzedOverrides:
    # Integer keys keep their defaults, except that rabi, ramsey and echo
    # run on small grids.  pumping-efficiency's profile grid has 4001 points
    # whatever the line width, and its probe kernel about
    # 1200 probe_width_hz / line_fwhm_hz + 1, which the build's
    # 6 probe_width_hz <= 20 line_fwhm_hz check keeps to at most 4001 as
    # well, so no drawn value makes it allocate much.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "experiment", [*SMALL_GRIDS, "holeburn", "resonator", "heating-budget", "pumping-efficiency"]
    )
    @settings(max_examples=150)
    @given(data=st.data())
    def test_exit_code_is_0_2_or_3(self, experiment, data):
        argv = [experiment, *(arg for key in SMALL_GRIDS.get(experiment, ()) for arg in ("--set", key))]
        argv += data.draw(fuzzed_sets(experiment))
        with tempfile.TemporaryDirectory() as out:
            rc = cli.main([*argv, "--out", out])
            assert rc in (0, 2, 3)
            if rc:
                assert not os.listdir(out)


COLD_START = """
import json, sys, tempfile
from erspin_sim import cli

for experiment in cli.EXPERIMENT_NAMES:
    cli.build_config(experiment)
with tempfile.TemporaryDirectory() as out:
    codes = [cli.main([*json.loads(argv), "--out", out]) for argv in sys.argv[1:]]
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def cold_start(*runs):
    """The exit codes of ``runs`` and the scipy modules they load, in a fresh interpreter.

    A fresh one, since the tests import scipy as a reference.
    """
    src = str(Path(erspin_sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", COLD_START, *map(json.dumps, runs)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True).stdout.strip()


class TestColdStart:
    def test_runs_without_a_fit_never_load_scipy(self):
        runs = (["pumping-efficiency"], ["heating-budget"], ["heating-budget", "--set", "no_such_key=1"])
        assert cold_start(*runs) == "[0, 0, 2] []"

    def test_fitting_runs_never_load_scipy(self):
        assert cold_start(["rabi"], ["holeburn"], ["resonator"]) == "[0, 0, 0] []"


DEFAULT_RUNS = """
import sys
from erspin_sim import cli

for experiment in cli.EXPERIMENT_NAMES:
    assert cli.main([experiment, "--out", sys.argv[1]]) == 0
"""

# Bounds between OpenBLAS thread counts: ten to thirty times the largest
# differences measured on a 2-vCPU x86-64 host (README): absolute in a trace
# value, relative in a fitted value and in a fitted sigma.
TRACE_BOUND, VALUE_BOUND, SIGMA_BOUND = 2.2e-15, 7e-9, 5.5e-8
# Bounds between OpenBLAS kernels, Haswell against the host's default
# (SkylakeX there): set at five to seventeen times the largest differences
# measured before the fits went BLAS-free; the fitted-value bound is 1.5
# times the largest (4.0e-10, `t2_fit_s`) since the fit search tests its step
# per parameter (README).
CORE_BOUNDS = (8.9e-15, 6e-10, 6.5e-8)
# The fits call no BLAS routine, so the artifacts of the runs whose traces
# take none either keep their bytes under any thread count or kernel.
BLAS_FREE = (
    "holeburn_trace.csv", "holeburn_summary.txt", "resonator_trace.csv", "resonator_summary.txt",
    "heating-budget_trace.csv", "heating-budget_summary.txt", "pumping-efficiency_summary.txt",
)
# The artifacts of the seven default runs at one OpenBLAS thread, written by golden/regenerate.py.
GOLDEN = Path(__file__).parent / "golden"


def default_runs(out, threads, core=None):
    """The seven default runs, written to ``out`` by a fresh interpreter.

    It runs ``threads`` BLAS threads on the OpenBLAS kernel of ``core``, or on
    the one OpenBLAS picks for the host when ``core`` is None.
    """
    src = str(Path(erspin_sim.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env.pop("OPENBLAS_CORETYPE", None)
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", DEFAULT_RUNS, str(out)], env=env, timeout=300, check=True)
    return {path.name: path.read_text() for path in sorted(out.iterdir())}


def assert_close(one, two, trace_bound, value_bound, sigma_bound):
    """The artifacts of two sets of default runs agree within the bounds."""
    assert one.keys() == two.keys() and len(one) == 2 * len(EXPERIMENT_NAMES)
    for name, text in one.items():
        rows, other = text.splitlines(), two[name].splitlines()
        assert len(rows) == len(other), name
        if name.endswith("_trace.csv"):  # metadata lines and the column header, then x,y rows
            head = next(i for i, row in enumerate(rows) if not row.startswith("#")) + 1
            assert rows[:head] == other[:head], name
            a, b = (np.array([row.split(",") for row in r[head:]], dtype=float) for r in (rows, other))
            assert np.max(np.abs(a - b)) <= trace_bound, name
            continue
        for row, alt in zip(rows, other):
            key, a = (part.strip() for part in row.split("=", 1))
            b = alt.split("=", 1)[1].strip()
            if a != b:
                a, b = float(a), float(b)
                bound = sigma_bound if "sigma" in key else value_bound
                assert abs(a - b) <= bound * max(abs(a), abs(b)), (name, key, a, b)


def assert_blas_free(one, two):
    """The artifacts that no BLAS call reaches are byte-identical."""
    for name in BLAS_FREE:
        assert one[name] == two[name], name


def openblas() -> bool:
    return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()


@pytest.mark.skipif(not openblas(), reason="the thread count and the kernel are OpenBLAS settings")
class TestThreadCounts:
    def test_default_runs_agree_across_thread_counts(self, tmp_path):
        one, two, again = (default_runs(tmp_path / name, n) for name, n in (("one", 1), ("two", 2), ("again", 1)))
        assert one == again  # one thread count, identical bytes
        assert_close(one, two, TRACE_BOUND, VALUE_BOUND, SIGMA_BOUND)
        assert_blas_free(one, two)

    def test_default_runs_agree_across_core_types(self, tmp_path):
        host, haswell = default_runs(tmp_path / "host", 1), default_runs(tmp_path / "haswell", 1, "Haswell")
        assert_close(host, haswell, *CORE_BOUNDS)
        assert_blas_free(host, haswell)


class TestGoldenRecord:
    def test_default_runs_match_the_record(self, tmp_path):
        """Exact bytes where no BLAS call reaches, and the bounds between OpenBLAS kernels elsewhere.

        A change that moves a value on purpose reruns ``golden/regenerate.py``.
        """
        files = [*GOLDEN.glob("*_trace.csv"), *GOLDEN.glob("*_summary.txt")]
        record = {path.name: path.read_text() for path in files}
        runs = default_runs(tmp_path, 1)
        assert_close(record, runs, *CORE_BOUNDS)
        assert_blas_free(record, runs)


class TestArtifacts:
    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "schema_version = 1\n"
            "experiment = heating-budget\n"
            "rep_period_s = 1e-3\n"
        )
        assert cli.main(["heating-budget", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = read_summary(tmp_path / "heating-budget_summary.txt")
        assert summary["ok"] == "false"  # 1 kHz at 100 W x 33 ns overruns 0.1 K
        assert float(summary["delta_t_k"]) == pytest.approx(0.165)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["resonator", "--set", "points=301"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "resonator_trace.csv").read_bytes() == (b / "resonator_trace.csv").read_bytes()
        assert (
            a / "resonator_summary.txt"
        ).read_bytes() == (b / "resonator_summary.txt").read_bytes()

    def test_traces_reload_into_fit(self, tmp_path):
        assert (
            cli.main(["rabi", "--set", "trace_points=301", "--set", "n_samples=301", "--out", str(tmp_path)])
            == 0
        )
        x, y = read_trace_csv(tmp_path / "rabi_trace.csv")
        res = fitting.fit((x, y), "sinusoid-decay")
        assert res.parameters["frequency"] == pytest.approx(14.9e6, rel=0.03)

    def test_profile_trace_reloads_too(self, tmp_path):
        assert cli.main(["pumping-efficiency", "--out", str(tmp_path)]) == 0
        x, y = read_trace_csv(tmp_path / "pumping-efficiency_trace.csv")
        assert len(x) > 100
        res = fitting.fit((x, y), "lorentzian")
        assert res.parameters["fwhm"] == pytest.approx(9e6, rel=0.08)

    def test_all_experiments_run_clean(self, tmp_path):
        fast_overrides = {
            "rabi": ["--set", "trace_points=128", "--set", "n_samples=301"],
            "ramsey": ["--set", "tau_points=32", "--set", "n_samples=301"],
            "echo": ["--set", "tau_points=32", "--set", "n_samples=1501"],
            "holeburn": ["--set", "wait_points=24"],
        }
        for name in EXPERIMENT_NAMES:
            out = tmp_path / name
            rc = cli.main([name, *fast_overrides.get(name, []), "--out", str(out)])
            assert rc == 0, name
            x, y = read_trace_csv(out / f"{name}_trace.csv")
            assert len(x) == len(y) > 0
            summary = read_summary(out / f"{name}_summary.txt")
            assert summary["experiment"] == name
