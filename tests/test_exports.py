"""Every name the package exports is reached by another module, an acceptance criterion or an oracle."""

import ast
from pathlib import Path

import erspin_sim

PACKAGE = Path(erspin_sim.__file__).parent
TESTS = Path(__file__).parent

# Exports that no other code names: a constant and the types of values that reached functions take or return.
UNNAMED = {
    "GROUND": "the ground-state Bloch vector (0, 0, -1), a start that propagate takes",
    "ExperimentConfig": "what build_config returns and run takes",
    "FitResult": "what fit returns",
    "EffectiveGFactors": "what preset_g_factors returns",
    "FourLevelState": "what thermal_state and evolve return and evolve takes",
    "HeatingReport": "what heating_budget returns",
    "SpectrumProfile": "what antihole_spectrum returns and hole_area_ratio and profile_fwhm take",
}


def identifiers(path):
    """The names a file uses in code: ``Name`` and ``Attribute`` nodes and imported names, not docstring words."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def exports():
    """``{name: defining module}`` for every name ``erspin_sim/__init__.py`` imports from a submodule."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_export_is_reached():
    modules = {path.stem: identifiers(path) for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    contract = identifiers(TESTS / "test_acceptance.py") | identifiers(TESTS / "oracles.py")
    unreached = {
        name
        for name, home in exports().items()
        if name not in contract and not any(name in used for stem, used in modules.items() if stem != home)
    }
    assert unreached == set(UNNAMED)
