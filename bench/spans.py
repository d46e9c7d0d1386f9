"""Span tracing of logseries layers, installed from outside the package.

`Tracer.install` replaces every public function of the named modules,
plus a few named methods, by a wrapper that records one span per call:
(job, span id, parent span id, name, start, end, nested). A function
imported into another module by name is the same object there, so every
module-level reference to it is replaced too, including the values of
module-level dicts such as dispatch tables, and intra-module calls go
through the wrapper. `uninstall` puts the originals back. Nothing under
the package's own files changes.

A span is nested when a span of the same name is already open above it
(recursion); inclusive time counts only the outermost one.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict


def _short(module_name):
    return module_name.rpartition(".")[2]


class Tracer:
    def __init__(self, observers=None):
        self.spans = []
        self.job = -1
        self.counters = Counter()
        # name -> observer(counters, bound_arguments, result)
        self.observers = dict(observers or {})
        self._stack = []
        self._open = Counter()
        self._restore = []

    # ------------------------------------------------------------------
    #  wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, open_names = self.spans, self._stack, self._open
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            nested = open_names[name] > 0
            open_names[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_names[name] -= 1
                stack.pop()
                spans[sid] = (self.job, sid, parent, name, start, end, nested)
            if observe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(self.counters, bound.arguments, result)
                except Exception:
                    # a renamed argument or result field must not fail
                    # the program's call; the count shows it instead
                    self.counters["trace.observer_errors"] += 1
            return result

        return traced

    def install(self, modules, methods=()):
        """Wrap the public functions of `modules` and the dotted
        `Class.method` names in `methods` ("module.Class.method")."""
        by_name = {_short(m.__name__): m for m in modules}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapper = self._wrap(f"{_short(module.__name__)}.{attr}", obj)
                for other in modules:
                    self._replace(vars(other), obj, wrapper)
        for dotted in methods:
            module_name, cls_name, meth = dotted.split(".")
            cls = getattr(by_name[module_name], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(dotted, raw.__func__))
            else:
                wrapped = self._wrap(dotted, raw)
            setattr(cls, meth, wrapped)
            self._restore.append(functools.partial(setattr, cls, meth, raw))

    def _replace(self, namespace, obj, wrapper):
        """Point every name in a module namespace, and every value of a
        module-level dict (such as a dispatch table), at the wrapper."""
        tables = [namespace] + [value for key, value in namespace.items()
                                if isinstance(value, dict)
                                and not key.startswith("__")]
        for table in tables:
            for key, value in list(table.items()):
                if value is obj:
                    table[key] = wrapper
                    self._restore.append(
                        functools.partial(table.__setitem__, key, obj))

    def uninstall(self):
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # ------------------------------------------------------------------
    #  aggregation
    # ------------------------------------------------------------------

    def totals(self):
        """name -> {"calls", "s" (outermost inclusive), "self_s"}."""
        child_time = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _, sid, _, name, start, end, nested in self.spans:
            entry = out[name]
            entry["calls"] += 1
            if not nested:
                entry["s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return dict(out)
