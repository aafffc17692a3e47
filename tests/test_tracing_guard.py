"""The benchmark's layer tracer still finds every binding it wraps.

``perfbench/tracing.py`` wraps methods it looks up in the class bodies and
functions it finds by name, and refuses to install when one is missing.  This
test installs it on the imported package and switches it off again, so a
refactor that removes a traced method or span fails here rather than only
when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

from specdet import matmodel, stepfn

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_the_original_bindings():
    tracing = _load_tracing()
    init = stepfn.GridFn.__dict__["__init__"]
    integrate = stepfn.integrate
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert stepfn.GridFn.__dict__["__init__"] is not init
        assert stepfn.integrate(stepfn.GridFn([2.0]), 0.0, 0.5) == 1.0
        assert tracer.calls["stepfn.integrate"] == 1
        assert tracer.calls["stepfn.GridFn.__init__"] == 1
    finally:
        patches.traced(False)
    assert stepfn.GridFn.__dict__["__init__"] is init
    assert matmodel.np is np
    assert stepfn.integrate is integrate
