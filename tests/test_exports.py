"""The package re-exports each library module's __all__, every exported
name resolves, and the README's library example runs."""

import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eprlab

README = Path(__file__).resolve().parents[1] / "README.md"

LIBRARY = [
    importlib.import_module(f"eprlab.{info.name}")
    for info in pkgutil.iter_modules(eprlab.__path__)
    if info.name not in ("cli", "__main__")
]


@pytest.mark.parametrize("module", [eprlab] + LIBRARY, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_every_library_module_declares_its_public_names():
    assert [m.__name__ for m in LIBRARY if not hasattr(m, "__all__")] == []


def test_package_exports_the_union_of_module_exports():
    declared = [name for module in LIBRARY for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert eprlab.__all__ == sorted(declared)


def test_package_names_are_the_declaring_modules_objects():
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(eprlab, name) is getattr(module, name), name


def test_star_import_binds_every_package_export():
    namespace = {}
    exec("from eprlab import *", namespace)
    assert set(eprlab.__all__) <= namespace.keys()


def test_import_eprlab_leaves_cli_unimported():
    result = subprocess.run(
        [sys.executable, "-c", "import eprlab, sys; print('eprlab.cli' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"


def test_readme_library_example_runs_warning_clean():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    assert abs(float(result.stdout) - 0.5) <= 1e-12
