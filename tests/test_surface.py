"""The public surface: each name has one import path, its module."""

import ast
import importlib
import pathlib
import sys
import types

import pytest

import fracwell

SRC = pathlib.Path(fracwell.__file__).parent

# the fracwell modules each layer may import: quadrature, the oracle every
# closed form is checked against, and the gamma kernel stand alone; the H
# engine and the measure build on those two only; nothing imports the
# command line, and the spectral layer does not import its checks
LAYERS = {
    "quadrature": set(),
    "gammafn": set(),
    "hfox": {"quadrature", "gammafn"},
    "measure": {"quadrature", "gammafn"},
    "deltawell": {"quadrature", "gammafn", "hfox", "measure"},
    "checks": {"quadrature", "gammafn", "hfox", "measure", "deltawell"},
    "cli": {"__init__", "quadrature", "gammafn", "hfox", "measure", "deltawell",
            "checks"},
    "__init__": set(),
}


def _imports(path):
    """(fracwell modules, outside top-level packages) that one source file
    imports anywhere in it; a name taken from the package itself, such as
    __version__, counts as an import of __init__."""
    ours, outside = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:   # from . import x
            names = [f"fracwell.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [("fracwell." if node.level else "") + node.module]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top != "fracwell":
                outside.add(top)
            else:
                module = rest.partition(".")[0]
                ours.add(module if module in LAYERS else "__init__")
    return ours, outside


@pytest.mark.parametrize("module", ["quadrature", "gammafn", "hfox", "measure",
                                    "deltawell"])
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"fracwell.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_no_module_imports_a_private_engine_name():
    # every fracwell module goes through the public names of the others
    private = [(path.name, node.module, alias.name)
               for path in sorted(SRC.glob("*.py"))
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


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in SRC.glob("*.py")) == sorted(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layer_graph(module):
    ours, outside = _imports(SRC / f"{module}.py")
    assert ours <= LAYERS[module]
    # numpy is the one runtime dependency (pyproject.toml): no scipy,
    # mpmath or sympy
    assert outside - set(sys.stdlib_module_names) <= {"numpy"}

