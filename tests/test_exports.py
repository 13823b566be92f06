"""Every name a module exports in `__all__` exists, so a deletion cannot
leave a stale export behind; the package resolves its exports lazily."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import kleinlab
from childenv import child_env

MODULES = ["kleinlab"] + [f"kleinlab.{m.name}" for m in pkgutil.iter_modules(kleinlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


SUBMODULES = [importlib.import_module(name) for name in MODULES[1:]]


def test_each_package_export_is_its_defining_modules_object():
    # The defining module is the one submodule whose `__all__` lists it.
    names = [n for n in kleinlab.__all__ if n != "__version__"]
    owners = {n: [m for m in SUBMODULES if n in m.__all__] for n in names}
    assert [n for n, found in owners.items() if len(found) != 1] == []
    assert [n for n, (m,) in owners.items() if getattr(kleinlab, n) is not getattr(m, n)] == []


def test_star_import_and_dir_cover_every_export():
    namespace: dict = {}
    exec("from kleinlab import *", namespace)
    assert set(kleinlab.__all__) <= set(namespace)
    listed = dir(kleinlab)
    assert set(kleinlab.__all__) <= set(listed)
    assert {m.__name__.removeprefix("kleinlab.") for m in SUBMODULES} <= set(listed)


def test_a_bare_import_loads_no_submodule_until_one_is_read():
    code = (
        "import sys, kleinlab; "
        "print(sorted(m for m in sys.modules if m.startswith('kleinlab.'))); "
        "print(kleinlab.gasket.__name__, kleinlab.gasket is sys.modules['kleinlab.gasket'])"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=child_env(), timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[]", "kleinlab.gasket True"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kleinlab.no_such_name
    assert not hasattr(kleinlab, "hausdorff_distance")
