"""Layer tracing for the fracwell benchmark, installed from outside.

No file of the program changes.  Instead every fracwell module namespace
gets its function bindings swapped for span wrappers:

- a function is wrapped in every namespace that imported it
  (``from .quadrature import integrate_adaptive`` binds the name in
  hfox, deltawell and measure, and each binding is patched), and in its
  own module when it is public, so internal calls such as the per-element
  ``eval_contour`` fallbacks of ``_eval_band`` are seen too;
- callables handed across a layer boundary (integrands, envelopes,
  root-find callbacks) are wrapped as spans of the layer that supplied
  them, so the quadrature layer's self time is the rule's own overhead;
- the suite's check functions are wrapped through ``checks._ALL``, the
  tuple ``run_all`` iterates.

A span's self time is its duration minus the time covered by the spans
it opened.  Spans are kept as per-layer sums in memory, not as records,
because a validate request opens tens of thousands of them.
"""

import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "checks", "deltawell", "measure", "hfox", "gammafn",
          "quadrature")
_GAMMA_KERNELS = ("loggamma", "gammaln_sign", "gamma_real", "gamma_complex")
# functions whose inclusive time per call is reported as well
_INCLUSIVE = ("energy_oracle", "normalize")
# private names patched for a counter, in the module that calls them
_PRIVATE = {"quadrature": ("_panel",), "deltawell": ("_radial_integral",)}


def _size(x):
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    """Span and counter bookkeeping plus the namespace patching."""

    def __init__(self, package):
        self.pkg = package
        self.modules = {name: sys.modules[f"{package.__name__}.{name}"]
                        for name in LAYERS}
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.check_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.stack = []           # open spans: [layer, child_seconds]
        self.oracle_depth = 0
        self._saved = []

    # --- spans ----------------------------------------------------------

    def _enter(self, layer):
        self.stack.append([layer, 0.0])
        return time.perf_counter()

    def _exit(self, t0):
        dt = time.perf_counter() - t0
        layer, child = self.stack.pop()
        self.self_s[layer] += dt - child
        if self.stack:
            self.stack[-1][1] += dt
        return dt

    def caller_layer(self):
        return self.stack[-1][0] if self.stack else "harness"

    # --- counters tied to particular functions ---------------------------

    def _callback(self, fn, supplier, callee):
        """A callable argument, as a span of the layer that supplied it."""
        counts = self.counts

        if callee == "integrate_oscillatory":
            def hook(args):
                if getattr(args[0], "ndim", 0) == 2:
                    counts["quadrature.tail_chunks"] += 1
        elif callee == "root_bisect":
            def hook(args):
                counts["quadrature.root_steps"] += 1
        elif callee == "integrate":           # measure.integrate
            def hook(args):
                counts["measure.integrand_points"] += _size(args[0])
        else:
            hook = None

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            t0 = self._enter(supplier)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(t0)
        return wrapper

    def _function(self, fn, layer, namespace):
        counts = self.counts
        name = fn.__name__          # the binding may be an alias
        key = f"{layer}.{name}"
        kernel = layer == "gammafn" and name in _GAMMA_KERNELS
        wrap_args = namespace != layer or name in ("integrate_oscillatory",
                                                   "root_bisect", "integrate")

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if kernel and self.caller_layer() != "gammafn":
                counts["gammafn.calls"] += 1
                counts["gammafn.elements"] += _size(args[0]) if args else 1
            if wrap_args and args:
                args = tuple(self._callback(a, namespace, name)
                             if callable(a) and not isinstance(a, type)
                             and not getattr(a, "_bench_traced", False)
                             else a for a in args)
            if name == "energy_oracle":
                self.oracle_depth += 1
            elif name == "_radial_integral" and self.oracle_depth:
                counts["deltawell.oracle_g_evals"] += 1
            t0 = self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self._exit(t0)
                if name == "energy_oracle":
                    self.oracle_depth -= 1
                if name in _INCLUSIVE:
                    self.inclusive_s[name] += dt
            if name == "eval_auto" and getattr(out, "method", "") == "series":
                counts["hfox.series_accepted"] += 1
            return out
        wrapper._bench_traced = True
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _check(self, fn):
        name = fn.__name__.replace("check_", "", 1)

        def wrapper():
            t0 = self._enter("checks")
            try:
                return fn()
            finally:
                self.check_s[name] += self._exit(t0)
        wrapper.__name__ = fn.__name__
        return wrapper

    # --- patching ----------------------------------------------------------

    def _set(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self):
        prefix = self.pkg.__name__ + "."
        for ns_layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if not (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith(prefix)):
                    continue
                layer = obj.__module__[len(prefix):]
                if layer not in self.modules:
                    continue
                if name in _PRIVATE.get(ns_layer, ()) and layer == ns_layer:
                    if name == "_panel":
                        self._set(module, name,
                                  self._counter(obj, "quadrature.panels"))
                    else:
                        self._set(module, name,
                                  self._function(obj, layer, ns_layer))
                elif layer != ns_layer or not name.startswith("_"):
                    self._set(module, name,
                              self._function(obj, layer, ns_layer))
        checks = self.modules["checks"]
        self._set(checks, "_ALL", tuple(self._check(f) for f in checks._ALL))

    def uninstall(self):
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    def check_names(self):
        return [f.__name__.replace("check_", "", 1)
                for f in self.modules["checks"]._ALL]
