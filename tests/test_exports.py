"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import eprlab

MODULES = [eprlab] + [
    module
    for module in (
        importlib.import_module(f"eprlab.{info.name}")
        for info in pkgutil.iter_modules(eprlab.__path__)
        if info.name != "__main__"
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_star_import_binds_every_package_export():
    namespace = {}
    exec("from eprlab import *", namespace)
    assert set(eprlab.__all__) <= namespace.keys()
