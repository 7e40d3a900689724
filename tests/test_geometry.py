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
        g = geometry.preset_g_factors(geometry.GROUND_CONFIG)
        assert (g.g_parallel, g.g_mw) == (10.5, 1.6)
        e = geometry.preset_g_factors(geometry.EXCITED_CONFIG)
        assert (e.g_parallel, e.g_mw) == (10.0, 0.95)
        with pytest.raises(ValueError):
            geometry.preset_g_factors("sideways-config")
