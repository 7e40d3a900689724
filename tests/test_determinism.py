"""No module of the package draws random numbers, so identical configuration gives identical bytes by construction."""

import ast
from pathlib import Path

import erspin_sim

PACKAGE = Path(erspin_sim.__file__).parent
RANDOM_MODULES = {"random", "secrets", "numpy.random"}
NUMPY_NAMES = {"np", "numpy"}  # the package imports numpy as np


def random_uses(path):
    """``line: what`` for every import of a random module and every ``numpy.random`` attribute in ``path``."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            uses += [f"{node.lineno}: import {alias.name}" for alias in node.names if alias.name in RANDOM_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = {f"{node.module}.{alias.name}" for alias in node.names}
            if node.module in RANDOM_MODULES or names & RANDOM_MODULES:
                uses.append(f"{node.lineno}: from {node.module} import ...")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in NUMPY_NAMES
        ):
            uses.append(f"{node.lineno}: {node.value.id}.random")
    return uses


def test_no_module_draws_random_numbers():
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py")) if (uses := random_uses(path))}
    assert found == {}


def test_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import random\nimport secrets\nimport numpy as np\nimport numpy.random\n"
        "from numpy import random as npr\nfrom numpy.random import default_rng\n"
        "rng = np.random.default_rng(0)\n"
    )
    assert random_uses(path) == [
        "1: import random", "2: import secrets", "4: import numpy.random", "5: from numpy import ...",
        "6: from numpy.random import ...", "7: np.random",
    ]
