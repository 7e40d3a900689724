import pytest

from erspin_sim import geometry
from erspin_sim.constants import BOHR_MAGNETON, PLANCK


class TestZeemanSplitting:
    def test_field_for_splitting_inverts(self):
        b = geometry.field_for_splitting(10.5, 3.12e9)
        assert b == pytest.approx(21.23e-3, abs=0.01e-3)
        assert 10.5 * BOHR_MAGNETON * b / PLANCK == pytest.approx(3.12e9, rel=1e-12)  # nu = g mu_B B / h
        # consistent with a static field of roughly 0.02 T
        assert 0.015 < b < 0.025


class TestPresets:
    def test_preset_g_factors(self):
        assert geometry.PRESET_G_MW == {geometry.GROUND_CONFIG: 1.6, geometry.EXCITED_CONFIG: 0.95}


@pytest.mark.parametrize(
    "g_eff, splitting_hz, message",
    [(0.0, 3.12e9, "g_eff must be > 0"), (-1.6, 3.12e9, "g_eff must be > 0"), (1.6, -1.0, "splitting must be >= 0")],
    ids=["zero-g", "negative-g", "negative-splitting"],
)
def test_field_for_splitting_checks_its_inputs(g_eff, splitting_hz, message):
    with pytest.raises(ValueError, match=message):
        geometry.field_for_splitting(g_eff, splitting_hz)
