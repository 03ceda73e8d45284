"""Span tracer for the benchmark's traced run.

The tracer wraps functions in place, in module namespaces, on classes or in
dicts, and records one span per call. Per span name it aggregates the number
of calls, the total time and the self time. Self time is the span's duration
minus the time covered by the wrapped spans it caused. Optional counters add
a measure of the work each call was given, such as matrix elements.
``remove`` puts every original object back, so untraced code runs unchanged.
"""

import functools
import time


class Tracer:
    def __init__(self):
        self.spans = {}      # span name -> [calls, total_s, self_s]
        self.counts = {}     # counter name -> accumulated work
        self._open = []      # child time accumulated by each open span
        self._patches = []   # (owner, key, original) in patching order

    def reset(self):
        """Drop the aggregates, e.g. between iterations."""
        self.spans = {}
        self.counts = {}

    def wrap(self, name, fn, counters=()):
        """Return ``fn`` recording a span per call.

        ``name`` is the span name, or a callable that takes the call's
        arguments and returns it. Each ``(counter, measure)`` in
        ``counters`` adds ``measure(*args, **kwargs)`` to ``counter``.
        """
        def traced(*args, **kwargs):
            key = name(*args, **kwargs) if callable(name) else name
            for counter, measure in counters:
                self.counts[counter] = (self.counts.get(counter, 0)
                                        + measure(*args, **kwargs))
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                rec = self.spans.setdefault(key, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - child

        functools.update_wrapper(traced, fn)
        traced.__traced__ = fn
        return traced

    def patch_function(self, modules, module, attr, name, counters=()):
        """Wrap ``module.attr`` and every binding of the same function
        object in ``modules``, so that ``from m import f`` copies are
        traced as well."""
        original = vars(module)[attr]
        wrapper = self.wrap(name, original, counters)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr, name, counters=()):
        """Wrap a plain function defined on ``cls`` itself."""
        original = vars(cls)[attr]
        if not callable(original) or isinstance(original, (staticmethod,
                                                           classmethod)):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        self._set(cls, attr, self.wrap(name, original, counters))

    def patch_item(self, mapping, key, name):
        self._set(mapping, key, self.wrap(name, mapping[key]))

    def _set(self, owner, key, wrapper):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, wrapper)

    def remove(self):
        """Restore every patched binding, last patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
