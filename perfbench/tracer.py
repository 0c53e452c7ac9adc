"""Call tracing for the benchmark's traced run.

The tracer wraps the public functions, and the public methods of the
classes, that each layer module defines, and rebinds every reference to
them found in the package's modules.  Nothing in the package source is
edited; `uninstall` restores the originals.

Per wrapped function it keeps a call count, the summed wall time and the
self time (wall time minus the time of traced callees).  Spans (name,
start, end, parent) are kept in memory for the first `span_cap` calls of
each function and written out when the run ends, so a hot per-scalar
method costs a counter update per call, not a span.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time


class Tracer:
    def __init__(self, package: str, layers, span_cap: int = 1000):
        self.package = package
        self.layers = tuple(layers)
        self.span_cap = span_cap
        self.stats: dict[str, list] = {}     # key -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.values: dict[str, float] = {}   # last observed value, not summed
        self.spans: list[tuple] = []         # (id, parent id, key, start, end, op)
        self.op = 0
        self._stack: list[list] = []         # per active call: [callee time, span id]
        self._ids = itertools.count()
        self._observers: dict = {}
        self._undo: list[tuple] = []

    # -- observers -------------------------------------------------------------

    def observe(self, key: str, fn) -> None:
        """Call fn(tracer, result, args, kwargs) after each call of `key`."""
        self._observers[key] = fn

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def record(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        cap = self.span_cap
        clock = time.perf_counter
        observer = self._observers.get(key)
        ids = self._ids
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if stats[0] <= cap:
                    spans.append((frame[1], parent, key, t0, t1, tracer.op))
            if observer is not None:
                try:
                    observer(tracer, result, args, kwargs)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # an API change the observer does not know: leave its
                    # counters unobserved rather than fail the run
                    pass
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _targets(self, module):
        """(key, owner, attribute name, function) for each public callable."""
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{name}", module, name, obj
            elif inspect.isclass(obj):
                for mname, member in sorted(vars(obj).items()):
                    if not mname.startswith("_") and inspect.isfunction(member):
                        yield f"{layer}.{name}.{mname}", obj, mname, member

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        wrappers = {}
        for layer in self.layers:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for key, owner, name, fn in self._targets(module):
                wrapper = self._wrap(key, fn)
                wrappers[id(fn)] = (fn, wrapper)
                self._undo.append((owner, name, fn))
                setattr(owner, name, wrapper)
        # rebind names that other modules imported with `from .x import f`
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "functions": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "values": dict(sorted(self.values.items())),
            "span_cap": self.span_cap,
            "spans": [{"id": i, "parent": p, "name": k, "start": a, "end": b, "op": op}
                      for (i, p, k, a, b, op) in self.spans],
        }
