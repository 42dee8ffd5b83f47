"""Span tracing of `geomean` from outside its source.

`Tracer.install()` wraps every public function of the layer modules, and
every public method of the classes they define, at every name that binds
it: `from .kernels import sn` makes `stepsize.sn` and `manifolds.sn` the
same function as `kernels.sn`, so all three names get the one wrapper, and
replacing `Sphere.log` in the class also catches `RealProjective.log`
calling `Sphere.log(self, ...)` directly.  A span is named
`<layer>.<function>`, where the layer is the module that defines it.

Spans are kept in memory as parallel arrays (name, start, end, parent,
op id) and analysed or written out only after the traced phase.
"""

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("kernels", "manifolds", "frechet", "stepsize", "solver",
          "geocheck", "experiments", "emit", "cli")

# spans that also record their data size (points) or the bytes they wrote
_POINT_SPANS = ("frechet.cost", "frechet.gradient")
_FILE_SPANS = ("emit.write_csv", "emit.write_svg")


class Tracer:
    def __init__(self):
        self.names = []           # span-name table; arrays hold indices
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.points = {n: 0 for n in _POINT_SPANS}
        self.bytes_written = 0
        self._stack = [-1]
        self._installed = False

    # -- installation ---------------------------------------------------------
    def install(self):
        """Wrap the layer functions of the imported `geomean` package."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = {layer: sys.modules[f"geomean.{layer}"] for layer in LAYERS}
        wrappers = {}   # id(original function) -> wrapper
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        # rebind at every module-level name that holds a wrapped function
        for mod in [sys.modules["geomean"], *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        self._installed = True

    def _wrap_class(self, layer, cls):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, name, staticmethod(
                    self._wrap(f"{layer}.{name}", obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, name, self._wrap(f"{layer}.{name}", obj))

    def _name_id(self, span_name):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._name_ids[span_name]

    def _wrap(self, span_name, fn):
        nid = self._name_id(span_name)
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op
        clock = time.perf_counter
        counts_points = span_name in _POINT_SPANS
        counts_bytes = span_name in _FILE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if counts_points:
                    self.points[span_name] += len(args[0].points)
                elif counts_bytes:
                    self.bytes_written += os.path.getsize(args[0])

        return traced

    # -- analysis ---------------------------------------------------------------
    def arrays(self):
        """Spans as numpy arrays: name, start, end, parent, op, self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name, "start": start, "end": end, "parent": parent,
                "op": op, "dur": dur, "self": dur - child}

    def save(self, path):
        """Write the raw spans (self time is derived from them)."""
        a = self.arrays()
        np.savez(path, span_names=np.array(self.names),
                 **{k: a[k] for k in ("name", "start", "end", "parent", "op")})

