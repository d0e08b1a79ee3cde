"""Source hygiene checks on the package, read with the standard library's ast."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rumorbd"


def _defined(node):
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _references(tree):
    """How often ``tree`` names each identifier, as a name, an attribute or an
    import."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_private_module_level_name_is_used_elsewhere_in_src():
    """A private function, class or constant of a module must be named
    somewhere in ``src/`` besides its own definition: one that is not is a
    leftover."""
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    total = sum((_references(tree) for _, tree in trees), Counter())
    unused = [
        f"{module}: {name}"
        for module, tree in trees
        for node in tree.body
        for name in _defined(node)
        if name.startswith("_") and not name.endswith("__")
        and total[name] == _references(node)[name]
    ]
    assert not unused


def test_public_names_resolve_once_and_star_import_binds_exactly_them():
    import rumorbd

    missing = [name for name in rumorbd.__all__ if not hasattr(rumorbd, name)]
    assert not missing
    repeated = [name for name, n in Counter(rumorbd.__all__).items() if n > 1]
    assert not repeated
    namespace: dict = {}
    exec("from rumorbd import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rumorbd.__all__)
