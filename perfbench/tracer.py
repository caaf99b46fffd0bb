"""Spans around the calls into casimir's public functions, recorded from outside.

``Tracer.install`` wraps every public module-level function of the traced
modules and puts the wrapper at every name in the package that refers to
the original, so a call made through ``from .quadrature import integrate``
is caught as well as one made through ``kernels.drude_eps_iw``.  The
integrand handed to a quadrature routine gets a span of its own, named
after the module that defined it (``force.integrand``), so that the
quadrature's self time is its own bookkeeping.  Spans (name, start, end,
parent, points) are kept in flat arrays in memory and written out at the
end; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("cli", "force", "quadrature", "reflection", "dielectric", "kernels", "spectrum")
# functions whose arguments are recorded so that repeated work can be counted
_DISTINCT_ARG = {"dielectric.permittivity_from_table": 1}
# functions whose first argument is an integrand callback
_CALLBACK_ARG = {"quadrature.integrate", "quadrature.integrate_semi_infinite",
                 "quadrature.panel_results", "quadrature.fixed_panels"}


def _points(result):
    """Size of the first array in a function's result (1 for scalars)."""
    for item in (result if isinstance(result, tuple) else (result,)):
        if isinstance(item, np.ndarray):
            return item.size
    return 1


class Tracer:
    def __init__(self, package="casimir"):
        self.package = package
        self.names = []
        self._originals = {}      # name -> function
        self._patches = []        # (module, attribute, original)
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_points = array("q")
        self.arguments = {name: [] for name in _DISTINCT_ARG}
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        arg_index = _DISTINCT_ARG.get(name)
        callback = name in _CALLBACK_ARG
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if callback and args:
                short = getattr(args[0], "__module__", "").rpartition(".")[2] or "unknown"
                args = (self._wrap(f"{short}.integrand", args[0]),) + args[1:]
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1])
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_points.append(0)
            if arg_index is not None:
                self.arguments[name].append(float(args[arg_index]))
            self._stack.append(idx)
            self.span_start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self._stack.pop()
            self.span_points[idx] = _points(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public function; returns the traced names."""
        mods = {m: importlib.import_module(f"{self.package}.{m}") for m in MODULES}
        if not self._originals:
            for short, mod in mods.items():
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == mod.__name__):
                        self._originals[f"{short}.{attr}"] = obj
            self._wrappers = {id(fn): self._wrap(name, fn)
                              for name, fn in self._originals.items()}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return sorted(self._originals)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, "i4"),
                 parent=np.frombuffer(self.span_parent, "i4"),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
                 points=np.frombuffer(self.span_points, "i8"))

    def summary(self):
        """Per function: calls, points, total and self time; plus distinct args."""
        name = np.frombuffer(self.span_name, "i4")
        parent = np.frombuffer(self.span_parent, "i4")
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        points = np.frombuffer(self.span_points, "i8").astype(float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_time = dur - covered
        n = len(self.names)
        out = {}
        calls = np.bincount(name, minlength=n)
        pts = np.bincount(name, weights=points, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        for i, fn in enumerate(self.names):
            out[fn] = {"calls": int(calls[i]), "points": float(pts[i]),
                       "total_s": float(total[i]), "self_s": float(own[i])}
        for fn, args in self.arguments.items():
            if fn in out:
                out[fn]["distinct_args"] = len(set(args))
        return out
