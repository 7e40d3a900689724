import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from erspin_sim import experiments
from erspin_sim.config import SCHEMA_VERSION, ConfigError, parse_config_text

GOOD = """\
# rabi run at reduced drive
schema_version = 1
experiment = rabi
preset = ground-config
rabi_frequency_hz = 1.2e7   # override
n_samples = 501
"""


def serialize_config(mapping):
    """Config text for ``mapping``, which ``parse_config_text`` reads back."""
    return "".join(f"{key} = {value}\n" for key, value in {"schema_version": SCHEMA_VERSION, **mapping}.items())


def value_of(param):
    """Values ``param`` accepts: a choice, a bool, or a number at or above its minimum.

    A number is infinite only where the default is.
    """
    if param.choices is not None:
        return st.sampled_from(param.choices)
    if param.kind == "bool":
        return st.booleans()
    if param.kind == "int":
        return st.integers(min_value=None if param.minimum is None else math.ceil(param.minimum))
    return st.floats(min_value=param.minimum, allow_nan=False, allow_infinity=param.default == math.inf)


def schema_values(experiment):
    """A valid value for the preset and every key of ``experiment``'s schema."""
    schema = {"preset": experiments._PRESET, **experiments.EXPERIMENTS[experiment][1]}
    return st.fixed_dictionaries({key: value_of(param) for key, param in schema.items()})


class TestParsing:
    def test_parses_keys_and_strips_comments(self):
        cfg = parse_config_text(GOOD)
        assert cfg == {
            "experiment": "rabi",
            "preset": "ground-config",
            "rabi_frequency_hz": "1.2e7",
            "n_samples": "501",
        }

    def test_round_trip_identity(self):
        once = parse_config_text(GOOD)
        again = parse_config_text(serialize_config(once))
        assert once == again

    @pytest.mark.parametrize("experiment", experiments.EXPERIMENT_NAMES)
    @given(data=st.data())
    def test_round_trip_of_schema_values(self, experiment, data):
        values = data.draw(schema_values(experiment))
        text = serialize_config({key: experiments._format_value(value) for key, value in values.items()})
        once = parse_config_text(text)
        assert parse_config_text(serialize_config(once)) == once
        schema = {"preset": experiments._PRESET, **experiments.EXPERIMENTS[experiment][1]}
        assert {key: schema[key].parse(key, raw) for key, raw in once.items()} == values

    def test_missing_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config_text("experiment = rabi\n")

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config_text("schema_version = 99\nexperiment = rabi\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="n_samples"):
            parse_config_text("schema_version = 1\nn_samples = 3\nn_samples = 5\n")

    def test_garbage_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("schema_version = 1\nnot a pair\n")


class TestBuildConfig:
    def test_defaults_resolve_per_preset(self):
        ground = experiments.build_config("rabi")
        assert ground.preset == "ground-config"
        assert ground.params["rabi_frequency_hz"] == 14.9e6
        excited = experiments.build_config("rabi", set_overrides={"preset": "excited-config"})
        assert excited.params["rabi_frequency_hz"] == 6.2e6

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            experiments.build_config("levitation")

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="pump_speed"):
            experiments.build_config("rabi", set_overrides={"pump_speed": "3"})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            experiments.build_config("rabi", set_overrides={"preset": "sideways-config"})

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError, match="n_samples"):
            experiments.build_config("rabi", set_overrides={"n_samples": "many"})

    def test_range_violation_is_named(self):
        with pytest.raises(ConfigError, match="trace_points"):
            experiments.build_config("rabi", set_overrides={"trace_points": "4"})

    def test_physical_invariants_checked_before_running(self):
        with pytest.raises(ConfigError, match="holeburn"):
            experiments.build_config("holeburn", set_overrides={"branch_same": "1.5"})

    def test_experiment_mismatch_between_file_and_argument(self):
        text = "schema_version = 1\nexperiment = echo\n"
        with pytest.raises(ConfigError, match="experiment"):
            experiments.build_config("rabi", config_text=text)

    def test_set_overrides_beat_file_values(self):
        text = "schema_version = 1\nn_samples = 801\n"
        cfg = experiments.build_config("rabi", config_text=text, set_overrides={"n_samples": "1001"})
        assert cfg.params["n_samples"] == 1001

    def test_bool_and_inf_values(self):
        cfg = experiments.build_config(
            "ramsey", set_overrides={"ideal_pulses": "true", "t2_s": "inf"}
        )
        assert cfg.params["ideal_pulses"] is True
        assert math.isinf(cfg.params["t2_s"])
        with pytest.raises(ConfigError, match="ideal_pulses"):
            experiments.build_config("ramsey", set_overrides={"ideal_pulses": "yes"})


@pytest.mark.parametrize(
    "text, message",
    [("schema_version = 1\n= 3\n", "line 2: empty key"), ("schema_version = 1\n  =3 # no key\n", "line 2: empty key")],
    ids=["empty-key", "blank-key"],
)
def test_malformed_text_names_its_line(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)
