"""The public API is declared once: in the __all__ of each layer module."""

import importlib
import json
import os
import subprocess
import sys
import types

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
    # literals, so it imports the standard library only, numpy included not
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
