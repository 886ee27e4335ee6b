"""Per-layer counters for the traced run, taken from outside the program.

``Tracer.install`` wraps every public function of the layer modules (and
``AnnulusQuadrature.build``) in each ``vortexw`` module namespace that
holds it, so calls made through any import path are seen. A wrapper counts
calls and normal returns, and times the call; a layer's self time is its
duration minus the time spent in wrapped callees. Nothing is written
while the program runs: the counters stay in memory and ``per_layer``
reads them at the end.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "vortexw"
# the layers; _calculus (Wirtinger helpers) and errors are not layers and
# stay unwrapped, so their time counts as their callers' self time
LAYERS = ("cli", "core", "critpoint", "disc_energy", "transport", "ndcheck", "harmonic", "expansion", "_kernels")


class Stat:
    __slots__ = ("calls", "returned", "total_s", "self_s", "points", "bytes", "iterations")

    def __init__(self):
        self.calls = self.returned = self.points = self.bytes = self.iterations = 0
        self.total_s = self.self_s = 0.0


def _kernel_extra(stat, args, result):
    stat.points += int(np.size(args[0]))
    stat.bytes += sum(np.asarray(a).nbytes for a in args) + result.nbytes


def _newton_extra(stat, args, result):
    stat.iterations += result.iterations


_EXTRA = {
    "kernels.grad_phi_field": _kernel_extra,
    "critpoint.find_critical_hat_w": _newton_extra,
    "critpoint.find_critical_w": _newton_extra,
}


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        extra = _EXTRA.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - inner
                if returned:
                    stat.returned += 1
                    if extra is not None:
                        extra(stat, args, result)

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer.lstrip('_')}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        quad = sys.modules[f"{PACKAGE}.harmonic"].AnnulusQuadrature
        quad.build = classmethod(self._wrap("harmonic.AnnulusQuadrature.build", quad.__dict__["build"].__func__))

    def per_layer(self, passes: int) -> dict:
        """Counters and times per pass, named as in BENCHMARK.json."""

        def st(name):
            return self.stats.get(name, Stat())

        def layer_self(layer):
            return sum(s.self_s for n, s in self.stats.items() if n.startswith(layer + "."))

        m = {}

        def put(name, value, unit):
            m[name] = {"value": value / passes if unit in ("count", "s", "B") else value, "unit": unit}

        for fn in ("cli.run", "ndcheck.check_nd1", "ndcheck.assemble_du_matrix",
                   "critpoint.find_max_hat_w", "critpoint.find_critical_w",
                   "expansion.punctured_energy"):
            put(f"{fn}.calls", st(fn).calls, "count")
            put(f"{fn}.self_s", st(fn).self_s, "s")
        hat = st("critpoint.find_critical_hat_w")
        put("critpoint.find_critical_hat_w.calls", hat.calls, "count")
        put("critpoint.find_critical_hat_w.ok_ratio", hat.returned / hat.calls if hat.calls else 0.0, "ratio")
        put("critpoint.newton_iterations", hat.iterations + st("critpoint.find_critical_w").iterations, "count")
        for fn in ("transport.transport_hat_w", "transport.transport_w_grad", "transport.transport_w_hess",
                   "disc_energy.hat_w", "disc_energy.w_disc_hess", "disc_energy.n_disc",
                   "core.validate_configuration", "core.validate_map", "harmonic.AnnulusQuadrature.build"):
            put(f"{fn}.calls", st(fn).calls, "count")
        for layer in ("transport", "disc_energy", "harmonic"):
            put(f"{layer}.self_s", layer_self(layer), "s")
        put("core.validate_configuration.s", st("core.validate_configuration").total_s, "s")
        k = st("kernels.grad_phi_field")
        put("kernels.grad_phi_field.calls", k.calls, "count")
        put("kernels.grad_phi_field.points", k.points, "count")
        put("kernels.grad_phi_field.s", k.total_s, "s")
        put("kernels.grad_phi_field.points_per_s", k.points / k.total_s if k.total_s else 0.0, "1/s")
        put("kernels.grad_phi_field.bytes_computed", k.bytes, "B")
        return m
