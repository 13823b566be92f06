"""Every name a module exports in `__all__` exists, so a deletion cannot
leave a stale export behind."""

import importlib
import pkgutil

import pytest

import kleinlab

MODULES = ["kleinlab"] + [f"kleinlab.{m.name}" for m in pkgutil.iter_modules(kleinlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
