"""Every name in a plabel module's __all__ resolves, so `from plabel.x import *`
cannot fail on a name left behind by a deletion; and every module-level private
name is used somewhere in the package outside its own definition."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import plabel

MODULES = sorted(info.name for info in pkgutil.iter_modules(plabel.__path__))


def test_the_package_has_modules():
    assert {"graphs", "labelling", "solvers"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"plabel.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _references(tree) -> Counter:
    """Names read, attributes taken and names imported anywhere in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _private_definitions(tree):
    """(name, node) for each module-level private function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_has_a_user():
    package = Path(plabel.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    used = sum(map(_references, trees), Counter())
    orphans = [name for tree in trees for name, node in _private_definitions(tree)
               if used[name] == _references(node)[name]]
    assert orphans == []
