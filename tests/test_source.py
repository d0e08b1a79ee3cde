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
    """A private function, class or constant of a module, and every
    module-level name of a private module (``_kernels``, ``_ode``), must be
    named somewhere in ``src/`` besides its own definition: one that is not
    is a leftover."""
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    total = sum((_references(tree) for _, tree in trees), Counter())
    unused = [
        f"{module}: {name}"
        for module, tree in trees
        for node in tree.body
        for name in _defined(node)
        if (name.startswith("_") or module.startswith("_")) and not name.endswith("__")
        and total[name] == _references(node)[name]
    ]
    assert not unused


def _names_and_strings(tree):
    """:func:`_references`, plus each string constant that is an identifier,
    such as a cached form read by name."""
    return _references(tree) + Counter(
        n.value for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier()
    )


def test_every_member_of_a_private_class_is_used_elsewhere_in_src():
    """A method or class-level name of a private class must be named
    somewhere in ``src/`` besides its own definition: one that only tests
    call is a wrapper kept for them."""
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    total = sum((_names_and_strings(tree) for _, tree in trees), Counter())
    unused = [
        f"{module}: {cls.name}.{name}"
        for module, tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and (cls.name.startswith("_") or module.startswith("_"))
        for node in cls.body
        for name in _defined(node)
        if not name.endswith("__") and total[name] == _names_and_strings(node)[name]
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


def _loads(tree, package):
    """For each import in ``tree`` that loads ``package``, whether it sits
    inside a function."""
    in_function = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == package or name.startswith(package + ".") for name in names):
            found.append(id(node) in in_function)
    return found


def test_only_the_ode_engine_imports_scipy_integrate_and_only_on_first_use():
    """One numeric engine: ``_ode.py`` is the one module that integrates, and
    it imports ``scipy.integrate`` inside a function so the package and CLI
    start without it (see the cold-start test of the CLI)."""
    loads = {path.name: _loads(ast.parse(path.read_text()), "scipy.integrate")
             for path in sorted(SRC.glob("*.py"))}
    assert [name for name, found in loads.items() if found] == ["_ode.py"]
    assert all(loads["_ode.py"])


def _imported(tree):
    """Every dotted name an import statement of ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_constant_rate_forms_are_the_proportional_ones():
    """Constant rates are the proportional forms at (rho, M) = (lam/mu, mu t):
    ``homogeneous.py`` defines ``absorption_prob`` alone, which the package
    re-exports and no other module reads."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    importers = [module for module, tree in trees.items()
                 if any("homogeneous" in name.split(".") for name in _imported(tree))]
    assert importers == ["__init__.py"]
    defined = [name for node in trees["homogeneous.py"].body for name in _defined(node)]
    assert defined == ["absorption_prob"]


def _families(tree):
    """The growth-family class definitions of ``growth.py``."""
    return [node for node in tree.body if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "GrowthCurve" for b in node.bases)]


def test_a_growth_family_is_named_in_growth_py_alone():
    """Other modules reach a family through ``FAMILIES`` and its declared
    ``param_names`` and ``roles``, never by its class; the package's
    ``__init__.py`` only re-exports the classes."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names = {node.name for node in _families(trees["growth.py"])}
    assert len(names) == 8
    naming = [f"{module}: {name}" for module, tree in trees.items()
              if module not in ("growth.py", "__init__.py")
              for name in names & set(_references(tree))]
    assert not naming


def test_a_family_declares_its_parameters_once_as_its_fields():
    """``param_names`` is read off a family's fields, and ``j`` and ``rho``
    are the base's, so no family class body assigns any of the three."""
    tree = ast.parse((SRC / "growth.py").read_text())
    assigned = [f"{node.name}.{name}" for node in _families(tree) for stmt in node.body
                for name in _defined(stmt) if name in ("param_names", "j", "rho")]
    assert not assigned
