"""Layer tracing from outside the program.

``install(tracer)`` replaces the public functions of every specdet layer
module with timing wrappers, at every module that binds them (the package
imports names directly, so ``verify.integrate`` and ``stepfn.integrate`` are
separate bindings of one function), wraps methods on the existing classes in
place (``dets`` dispatches on ``isinstance``, so the classes must stay), and
wraps ``numpy.linalg.svd``/``eigh`` as seen from ``matmodel`` and ``quad`` as
bound in ``spaces``.  Spans nest on one stack; a span's self time is its
duration minus the time of the spans it directly contains.  Spans are
aggregated per name in memory rather than stored one by one.
"""

from __future__ import annotations

import functools
import importlib
import os
import types
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Optional

LAYERS = ("stepfn", "matmodel", "spaces", "traces", "dets", "verify", "cli")

SUITES = (
    "product-log-integral",
    "product-log-pointwise",
    "majorization",
    "sum-psi-bound",
    "split-psi-vanishing",
    "sum-psi-composite",
    "commutator-criterion",
    "standard-inequalities",
    "log-closure",
)

# Methods wrapped on the classes themselves; arithmetic on GridFn goes
# through _binary, arithmetic on MatrixOperator builds a new operator.
_METHODS = {
    ("stepfn", "GridFn"): ("__init__", "__call__", "resampled", "_binary", "__rsub__",
                           "__neg__"),
    ("stepfn", "MonotoneStepFn"): ("__init__",),
    ("matmodel", "MatrixOperator"): ("__init__", "matmul", "__add__", "__sub__", "__neg__",
                                     "__mul__", "__rmul__"),
    ("spaces", "SpectralProfile"): ("__init__", "__call__"),
}
_SPECTRA = ("singular_values", "eigenvalues", "norm")


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self):
        self._stack = []
        self._serial = {}          # id(MatrixOperator) -> construction serial
        self._next_serial = 0
        self.reset()

    def reset(self):
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.raised: Counter = Counter()   # (layer, exception type) leaving the layer
        self.counters: Counter = Counter()
        self.spectra_read = set()

    def wrap(self, layer: str, name: str, fn: Callable,
             label: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        """A timing wrapper around fn; label(args) renames the span per call."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(args, kwargs) if label else name
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if len(stack) < 2 or stack[-2][0] != layer:
                    self.raised[(layer, type(exc).__name__)] += 1
                raise
            finally:
                dur = perf_counter() - start
                stack.pop()
                self.calls[span] += 1
                self.inclusive[span] += dur
                self.self_time[span] += dur - frame[1]
                self.layer_self[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _operator_built(self, args, kwargs, result):
        self._serial[id(args[0])] = self._next_serial
        self._next_serial += 1

    def _spectra_property(self, prop: property) -> property:
        fget = prop.fget

        def read(op):
            value = fget(op)
            serial = self._serial.get(id(op))
            if serial is not None:
                self.spectra_read.add(serial)
            return value

        return property(read, doc=prop.__doc__)

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass since the last reset."""
        c, incl = self.calls, self.inclusive
        operators = c["matmodel.MatrixOperator.__init__"]
        out = {
            "matmodel.operators": operators,
            "matmodel.svd_calls": c["lapack.svd"],
            "matmodel.eigh_calls": c["lapack.eigh"],
            "matmodel.decomp_s": incl["lapack.svd"] + incl["lapack.eigh"],
            "matmodel.construct_s": self.self_time["matmodel.MatrixOperator.__init__"],
            "matmodel.spectra_read_ratio":
                len(self.spectra_read) / operators if operators else 0.0,
            "matmodel.load_s": incl["matmodel.load_matrix"],
            "matmodel.load_bytes": self.counters["matmodel.load_bytes"],
            "stepfn.integrate_calls": c["stepfn.integrate"],
            "stepfn.integrate_s": incl["stepfn.integrate"],
            "stepfn.grid_builds": c["stepfn.GridFn.__init__"],
            "stepfn.eval_calls": c["stepfn.GridFn.__call__"],
            "stepfn.psi_eval_calls": c["stepfn.psi_eval"],
            "stepfn.s": self.layer_self["stepfn"],
            "verify.jobs": sum(c[f"verify.suite.{s}"] for s in SUITES),
            "verify.rows": self.counters["verify.rows"],
            "verify.s": self.layer_self["verify"],
        }
        for s in SUITES:
            out[f"verify.suite.{s}_s"] = incl[f"verify.suite.{s}"]
        out.update({
            "verify.serialize_s": incl["verify.rows_to_csv"] + incl["verify.result_to_json"],
            "verify.csv_bytes": self.counters["verify.csv_bytes"],
            "spaces.quad_calls": c["quad.quad"],
            "spaces.quad_s": incl["quad.quad"],
            "spaces.profile_integral_calls": c["spaces.profile_integral"],
            "spaces.membership_calls": c["spaces.membership"] + c["spaces.elog_membership"],
            "spaces.profile_build_s": incl["spaces.SpectralProfile.__init__"],
            "spaces.s": self.layer_self["spaces"],
            "traces.eval_calls": c["traces.eval_functional"],
            "traces.nonconvergent": self.raised[("traces", "NonConvergentError")],
            "traces.s": self.layer_self["traces"],
            "dets.det_calls": c["dets.det_phi_with_branch"],
            "dets.eps_compare_calls": c["dets.eps_limit_comparison"],
            "dets.refusals": sum(n for (layer, _), n in self.raised.items() if layer == "dets"),
            "dets.s": self.layer_self["dets"],
            "cli.s": self.layer_self["cli"],
        })
        return out


class _Proxy:
    """Attribute proxy: its own attributes first, then those of base."""

    def __init__(self, base, **own):
        self.__dict__.update(own)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


# Span names the metrics read; install() fails when a refactor removes one.
REQUIRED_SPANS = (
    "stepfn.integrate", "stepfn.psi_eval", "matmodel.load_matrix",
    "spaces.profile_integral", "spaces.membership", "spaces.elog_membership",
    "traces.eval_functional", "dets.det_phi_with_branch", "dets.eps_limit_comparison",
    "verify.run_check", "verify.rows_to_csv", "verify.result_to_json", "cli.main",
)


class Patches:
    """The bindings install() replaced, switchable between original and wrapper."""

    def __init__(self):
        self._patches = []   # (owner, attribute, original, wrapper)

    def set(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name], wrapper))
        setattr(owner, name, wrapper)

    def traced(self, on: bool) -> None:
        """Bind the wrappers (on) or the program's own objects (off)."""
        for owner, name, original, wrapper in (self._patches if on
                                               else reversed(self._patches)):
            setattr(owner, name, wrapper if on else original)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer of the imported specdet package in place."""
    patches = Patches()
    mods = {name: importlib.import_module(f"specdet.{name}") for name in LAYERS}
    bindings = [importlib.import_module("specdet")] + list(mods.values())
    special = {
        "verify.run_check": dict(
            label=lambda args, kw: f"verify.suite.{args[0] if args else kw['name']}",
            after=lambda args, kw, rows: tracer.counters.update({"verify.rows": len(rows)})),
        "verify.rows_to_csv": dict(
            after=lambda args, kw, csv: tracer.counters.update({"verify.csv_bytes": len(csv)})),
        "matmodel.MatrixOperator.__init__": dict(after=tracer._operator_built),
        "matmodel.load_matrix": dict(
            after=lambda args, kw, op: tracer.counters.update(
                {"matmodel.load_bytes": os.path.getsize(args[0])})),
    }

    # The public functions of each layer, and any function one layer module
    # imports from another (private ones included).
    targets = {}
    for layer, mod in mods.items():
        for name in getattr(mod, "__all__", ("main",)):
            obj = getattr(mod, name)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                targets[id(obj)] = (layer, obj)
    homes = {mod.__name__: layer for layer, mod in mods.items()}
    for mod in bindings:
        for obj in vars(mod).values():
            home = getattr(obj, "__module__", None)
            if isinstance(obj, types.FunctionType) and home in homes and home != mod.__name__:
                targets[id(obj)] = (homes[home], obj)
    wrapped = {}
    for key, (layer, fn) in targets.items():
        span = f"{layer}.{fn.__name__}"
        wrapped[key] = tracer.wrap(layer, span, fn, **special.get(span, {}))
    missing = set(REQUIRED_SPANS) - {f"{layer}.{fn.__name__}" for layer, fn in targets.values()}
    if missing:
        raise RuntimeError(f"tracing targets not found: {sorted(missing)}")
    for mod in bindings:
        for gname, obj in list(vars(mod).items()):
            if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                patches.set(mod, gname, wrapped[id(obj)])

    for (layer, cls_name), methods in _METHODS.items():
        cls = getattr(mods[layer], cls_name)
        done = {}
        for meth in methods:
            fn = cls.__dict__[meth]
            if id(fn) not in done:
                span = f"{layer}.{cls_name}.{meth}"
                done[id(fn)] = tracer.wrap(layer, span, fn, **special.get(span, {}))
            patches.set(cls, meth, done[id(fn)])
    op_cls = mods["matmodel"].MatrixOperator
    for prop in _SPECTRA:
        patches.set(op_cls, prop, tracer._spectra_property(op_cls.__dict__[prop]))

    np = mods["matmodel"].np
    linalg = _Proxy(np.linalg,
                    svd=tracer.wrap("lapack", "lapack.svd", np.linalg.svd),
                    eigh=tracer.wrap("lapack", "lapack.eigh", np.linalg.eigh))
    patches.set(mods["matmodel"], "np", _Proxy(np, linalg=linalg))
    patches.set(mods["spaces"], "quad", tracer.wrap("quad", "quad.quad", mods["spaces"].quad))
    return patches
