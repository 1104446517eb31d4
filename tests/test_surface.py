"""The public surface: each name has one import path, its module."""

import ast
import importlib
import pathlib
import types

import pytest

import fracwell


@pytest.mark.parametrize("module", ["quadrature", "gammafn", "hfox", "measure",
                                    "deltawell"])
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"fracwell.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_no_module_imports_a_private_engine_name():
    # every fracwell module goes through the public names of the others
    src = pathlib.Path(fracwell.__file__).parent
    private = [(path.name, node.module, alias.name)
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("fracwell"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_package_exports_only_its_version():
    names = [name for name, value in vars(fracwell).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)]
    assert names == []
    assert getattr(fracwell, "__all__", ["__version__"]) == ["__version__"]
    assert isinstance(fracwell.__version__, str)
