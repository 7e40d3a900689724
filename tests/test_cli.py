import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import erspin_sim
from erspin_sim import cli, experiments, fitting
from erspin_sim.experiments import EXPERIMENT_NAMES

FLOAT_MAX = "1.7976931348623157e308"


def unconverged_least_squares(fun, x0, **kwargs):
    """Stand-in for ``least_squares`` that stops at its evaluation limit."""
    return OptimizeResult(x=x0, status=0, success=False, message="the evaluation limit was reached")


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
        for argv in ([], ["rabi", "--seed", "x"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: erspin-sim")

    @pytest.mark.parametrize(
        "experiment, key", [("echo", "t2_s"), ("ramsey", "t2_s"), ("rabi", "line_fwhm_hz")]
    )
    def test_nan_float_is_config_error(self, tmp_path, capsys, experiment, key):
        assert cli.main([experiment, "--set", f"{key}=nan", "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

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
            # no pump: the burn moves nothing, so there is no antihole to fit
            (["holeburn", "--set", "pump_rate_flip=0"], "pump_rate_flip"),
            # q t past the range in which the rate propagator keeps its accuracy
            (["pumping-efficiency", "--set", "pump_rate_flip=1e12"], "pump_rate_flip"),
            (["holeburn", "--set", "wait_max_s=1e5"], "wait_max_s"),
        ],
        ids=[
            "wait-order", "wait-overflow", "wait-overflow-one-line", "tau-order", "echo-zero-span",
            "holeburn-zero-span", "span", "probe-kernel", "size", "memory",
            "rabi-infinite-end", "rabi-aliased", "rabi-aliased-far", "ramsey-infinite-end", "echo-infinite-end",
            "no-drive", "no-pump", "burn-rate-time", "wait-rate-time",
        ],
    )
    def test_build_rejects_inputs_its_grids_cannot_take(self, tmp_path, capsys, argv, key):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
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
            (["echo", "--set", "line_fwhm_hz=1e300"], None, "overflow"),
            # f0_hz +- span_hz / 2 rounds to f0_hz: the sweep has one frequency
            (["resonator", "--set", "f0_hz=1e300"], None, "all equal"),
            (["pumping-efficiency", "--set", "line_fwhm_hz=inf"], None, "overflow"),
            # the excess absorption underflows, so the profile is flat and has no width
            (["pumping-efficiency", "--set", "baseline_absorption=5e-324"], None, "antihole_fwhm_hz"),
        ],
        ids=[
            "quadrature", "optimizer", "non-finite-summary", "zero-peak-power", "line-overflow", "one-frequency",
            "profile-span-overflow", "profile-underflow",
        ],
    )
    def test_numerical_error_maps_to_exit_3(self, tmp_path, monkeypatch, capsys, argv, stall, message):
        from erspin_sim.bloch import ConvergenceError

        def stall_quadrature(cfg):
            raise ConvergenceError("quadrature stalled")

        if stall == "quadrature":
            monkeypatch.setattr(cli, "run", stall_quadrature)
        elif stall == "optimizer":
            monkeypatch.setattr(fitting, "least_squares", unconverged_least_squares)
        assert cli.main([*argv, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical error" in err and message in err
        assert not any(tmp_path.iterdir())  # no trace or summary written


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


# 11 ensemble members; rabi's 64 points resolve its default 15 drive periods
SMALL_GRIDS = {
    "rabi": ("n_samples=11", "trace_points=64"),
    "ramsey": ("n_samples=11", "tau_points=16"),
    "echo": ("n_samples=11", "tau_points=16"),
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
import sys, tempfile
from erspin_sim import cli

for experiment in cli.EXPERIMENT_NAMES:
    cli.build_config(experiment)
with tempfile.TemporaryDirectory() as out:
    codes = [
        cli.main(["pumping-efficiency", "--out", out]),
        cli.main(["heating-budget", "--out", out]),
        cli.main(["heating-budget", "--set", "no_such_key=1", "--out", out]),
    ]
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestColdStart:
    def test_runs_without_a_fit_never_load_scipy(self):
        # a fresh interpreter, since this one has imported scipy already
        src = str(Path(erspin_sim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert done.stdout.strip() == "[0, 0, 2] []"


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

    def test_byte_identical_with_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = [
            "rabi",
            "--set",
            "quadrature=monte-carlo",
            "--set",
            "n_samples=2000",
            "--set",
            "trace_points=64",
            "--seed",
            "5",
        ]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "rabi_trace.csv").read_bytes() == (b / "rabi_trace.csv").read_bytes()

    def test_traces_reload_into_fit(self, tmp_path):
        assert (
            cli.main(["rabi", "--set", "trace_points=301", "--set", "n_samples=301", "--out", str(tmp_path)])
            == 0
        )
        x, y = fitting.read_trace_csv(tmp_path / "rabi_trace.csv")
        res = fitting.fit((x, y), "sinusoid-decay")
        assert res.parameters["frequency"] == pytest.approx(14.9e6, rel=0.03)

    def test_profile_trace_reloads_too(self, tmp_path):
        assert cli.main(["pumping-efficiency", "--out", str(tmp_path)]) == 0
        x, y = fitting.read_trace_csv(tmp_path / "pumping-efficiency_trace.csv")
        assert len(x) > 100
        res = fitting.fit((x, y), "lorentzian")
        assert res.parameters["fwhm"] == pytest.approx(9e6, rel=0.08)

    def test_all_experiments_run_clean(self, tmp_path):
        fast_overrides = {
            "rabi": ["--set", "trace_points=128", "--set", "n_samples=301"],
            "ramsey": ["--set", "tau_points=32", "--set", "n_samples=301"],
            "echo": ["--set", "tau_points=32", "--set", "n_samples=301"],
            "holeburn": ["--set", "wait_points=24"],
        }
        for name in EXPERIMENT_NAMES:
            out = tmp_path / name
            rc = cli.main([name, *fast_overrides.get(name, []), "--out", str(out)])
            assert rc == 0, name
            x, y = fitting.read_trace_csv(out / f"{name}_trace.csv")
            assert len(x) == len(y) > 0
            summary = read_summary(out / f"{name}_summary.txt")
            assert summary["experiment"] == name
