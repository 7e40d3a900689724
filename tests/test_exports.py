"""One name per public object, and each one reached.

The package re-exports nothing, so ``erspin_sim.<module>.<name>`` is the
one name of every public object.  Each public module-level name and each
public method is named by other package code, by an acceptance criterion
or by an oracle: a path that only the unit tests reach is not kept.
"""

import ast
from pathlib import Path

import erspin_sim

PACKAGE = Path(erspin_sim.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def identifiers(tree):
    """The names a module reads in code: loaded ``Name`` and ``Attribute`` nodes and imported names.

    A definition (``def f``, ``class C``, ``X = ...``) names nothing, and
    neither does a docstring word.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def public_definitions(tree, module):
    """``(name, qualified name)`` for each public top-level definition and each public method of ``module``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, f"{module}.{node.name}"))
        elif isinstance(node, ast.Assign):
            found += [(t.id, f"{module}.{t.id}") for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, f"{module}.{node.target.id}"))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, f"{module}.{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
    return [(name, qualified) for name, qualified in found if not name.startswith("_")]


def unnamed(paths, contract):
    """Qualified names of the public definitions in ``paths`` that no file in ``paths`` or ``contract`` reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    named = set().union(*map(identifiers, trees.values()), *(identifiers(ast.parse(p.read_text())) for p in contract))
    return {
        qualified
        for module, tree in trees.items()
        for name, qualified in public_definitions(tree, module)
        if name not in named
    }


def test_package_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = [
        target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets
    ]
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))
    assert bound == ["__version__"]


def test_every_public_name_is_reached():
    assert unnamed(MODULES, [TESTS / "test_acceptance.py", TESTS / "oracles.py"]) == set()


def test_rule_sees_an_unread_function_and_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 2\nclass Spec:\n    def used(self):\n        return LIMIT\n    def unused(self):\n        pass\n"
        "def helper():\n    pass\ndef _private():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import Spec\n\nSpec().used()\n")
    assert unnamed([tmp_path / "a.py", tmp_path / "b.py"], []) == {"a.Spec.unused", "a.helper"}
