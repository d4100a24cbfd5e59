"""Every name in a plabel module's __all__ resolves, so `from plabel.x import *`
cannot fail on a name left behind by a deletion."""

import importlib
import pkgutil

import pytest

import plabel

MODULES = sorted(info.name for info in pkgutil.iter_modules(plabel.__path__))


def test_the_package_has_modules():
    assert {"graphs", "labelling", "solvers"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"plabel.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
