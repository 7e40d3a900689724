import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

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
            (["holeburn", "--set", f"wait_min_s={FLOAT_MAX}", "--set", f"wait_max_s={FLOAT_MAX}"], "wait_max_s"),
            (["echo", "--set", "tau_min_s=2e-6"], "tau_min_s"),
            (["resonator", "--set", "f0_hz=1e8"], "f0_hz"),
            (["pumping-efficiency", "--set", "probe_width_hz=1e8"], "probe_width_hz"),
            # numpy rejects both sizes before it allocates anything
            (["heating-budget", "--set", "points=100000000000000000000"], "points"),
            (["rabi", "--set", "trace_points=1000000000000000000"], "trace_points"),
        ],
        ids=["wait-order", "wait-overflow", "tau-order", "span", "probe-kernel", "size", "memory"],
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
        ],
        ids=["quadrature", "optimizer", "non-finite-summary", "zero-peak-power", "line-overflow"],
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


class TestFuzzedOverrides:
    # Integer keys keep their defaults; echo runs on a small grid.
    # pumping-efficiency is left out: its probe kernel has about
    # 600 probe_width_hz / line_fwhm_hz points, which only the build's
    # probe-width check keeps from reaching gigabytes.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("experiment", ["holeburn", "resonator", "heating-budget", "echo"])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_exit_code_is_0_2_or_3(self, experiment, data):
        argv = [experiment, "--set", "n_samples=11", "--set", "tau_points=16"] if experiment == "echo" else [experiment]
        argv += data.draw(fuzzed_sets(experiment))
        with tempfile.TemporaryDirectory() as out:
            rc = cli.main([*argv, "--out", out])
            assert rc in (0, 2, 3)
            if rc:
                assert not os.listdir(out)


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
