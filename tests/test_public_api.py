"""The public API is declared once: in the __all__ of each layer module."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import specdet

LAYERS = ("stepfn", "matmodel", "spaces", "traces", "dets", "verify")

_BARE_IMPORT = """
import json, sys
import specdet
print(json.dumps({
    "modules": sorted(m for m in sys.modules if m == "specdet" or m.startswith("specdet.")),
    "numpy": "numpy" in sys.modules,
    "public": sorted(n for n in vars(specdet) if not n.startswith("_")),
}))
"""


def test_bare_import_loads_no_layer_and_binds_no_public_name():
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdet.__file__)))
    run = subprocess.run([sys.executable, "-c", _BARE_IMPORT],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert json.loads(run.stdout) == {"modules": ["specdet"], "numpy": False, "public": []}


def test_spaces_imports_no_other_layer():
    # spaces is the leaf layer: grids never reach it, and its audit grids are
    # plain-float geomspaces, so it imports the standard library only, numpy
    # included not
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdet.__file__)))
    code = ("import json, sys, specdet.spaces; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('specdet') or m == 'numpy')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert json.loads(run.stdout) == ["specdet", "specdet.spaces"]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_resolves_in_its_own_layer(layer):
    # the benchmark tracer getattr()s every __all__ entry, so a stale one
    # would break it as well
    mod = importlib.import_module(f"specdet.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        obj = getattr(mod, name)
        if isinstance(obj, (types.FunctionType, type)):
            assert obj.__module__ == mod.__name__, name


def test_no_name_is_public_in_two_layers():
    owners = {}
    for layer in LAYERS:
        for name in importlib.import_module(f"specdet.{layer}").__all__:
            assert name not in owners, (name, owners.get(name), layer)
            owners[name] = layer


def _private_reaches(path):
    """(name, sibling) for each underscore name one module takes from a sibling."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = set()
    reaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                reaches.extend((alias.name, node.module) for alias in node.names
                               if alias.name.startswith("_"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            reaches.append((node.attr, node.value.id))
    return reaches


def test_no_layer_reads_a_private_name_of_another():
    # a private helper may change inside its own module without a search of
    # the other layers
    package = Path(specdet.__file__).parent
    reaches = sorted((path.stem, sibling, name)
                     for path in package.glob("*.py")
                     for name, sibling in _private_reaches(path))
    assert not reaches, reaches


# perfbench/tracing.py rebinds spaces.quad by that name to count quadratures
_PUBLIC_BY_BINDING = {("spaces", "quad")}


def _module_level_names(path):
    """Names bound at module level by a def, a class or an assignment."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def test_every_public_looking_name_is_in_all():
    # a name without a leading underscore is public, so __all__ must declare it
    package = Path(specdet.__file__).parent
    undeclared = sorted(
        f"{layer}.{name}"
        for layer in LAYERS
        for name in _module_level_names(package / f"{layer}.py")
        if not name.startswith("_")
        and name not in importlib.import_module(f"specdet.{layer}").__all__
        and (layer, name) not in _PUBLIC_BY_BINDING)
    assert not undeclared, undeclared
