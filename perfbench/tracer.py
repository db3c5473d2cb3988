"""Outside-in tracer for the anticyclo benchmark.

The program is not instrumented.  ``Tracer.install`` replaces every
public function of the traced modules with a wrapper, in every
``anticyclo`` namespace that binds it: ``int_det`` is bound in
``anticyclo.snf``, ``anticyclo.linalg`` and ``anticyclo.iwasawa``, and a
call through a binding left unpatched would be missed.  ``uninstall``
puts the originals back, so untraced repetitions run the bare program.

Each wrapped call records one span: (function id, start, end, parent span
index, outermost).  Spans stay in memory until the caller writes them
out; ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter
from time import perf_counter

PACKAGE = "anticyclo"

#: Traced layers, one per module of the package.
LAYERS = ("cli", "metacyclic", "linalg", "snf", "padic", "iwasawa", "cohomology", "records")

#: Methods traced besides module-level functions.  The group arithmetic
#: (``mul``, ``power``) runs millions of times per search and is left to
#: the self time of these spans.
METHODS = {
    "metacyclic": ("MetacyclicGroup", ("hom_check", "find_inverting_automorphism", "enumerate_automorphisms")),
}

#: Calls whose result is counted as a useful outcome, for the ratio metrics.
OUTCOMES = {
    "metacyclic.hom_check": lambda result: result.accepted,
    "linalg.intertwiner_solve": lambda result: result.status in ("witness", "none"),
}


def traced_functions():
    """[(span name, owner object, attribute, original function)] for every
    public function defined in a traced module, plus METHODS."""
    targets = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in sorted(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                targets.append((f"{layer}.{attr}", module, attr, obj))
        if layer in METHODS:
            cls_name, methods = METHODS[layer]
            cls = getattr(module, cls_name)
            for attr in methods:
                targets.append((f"{layer}.{attr}", cls, attr, vars(cls)[attr]))
    return targets


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.outcomes: Counter = Counter()
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = traced_functions()
        self.names = [name for name, *_ in targets]
        self._active = [0] * len(targets)
        wrappers = {}
        for fid, (name, owner, attr, fn) in enumerate(targets):
            wrapper = self._wrap(fid, fn, OUTCOMES.get(name))
            wrappers[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.outcomes.clear()

    def _wrap(self, fid, fn, outcome):
        spans, stack, active, outcomes = self.spans, self._stack, self._active, self.outcomes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = active[fid] == 0
            active[fid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[fid] -= 1
                stack.pop()
                spans[idx] = (fid, start, end, parent, outer)
            if outcome is not None and outcome(result):
                outcomes[fid] += 1
            return result

        return wrapper

    def summarize(self) -> dict:
        """Per-function calls and inclusive seconds, per-layer self seconds,
        and the useful-outcome counts, from the spans recorded so far.

        Inclusive time counts only the outermost span of a function, so a
        recursive call is not counted twice.  Self time is a span's
        duration minus its direct child spans; parents precede their
        children in ``spans``, so one backward pass collects both.
        """
        names = self.names
        calls = Counter()
        inclusive = Counter()
        self_s = Counter()
        child_calls = Counter()
        child_time = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            fid, start, end, parent, outer = self.spans[idx]
            duration = end - start
            name = names[fid]
            calls[name] += 1
            if outer:
                inclusive[name] += duration
            self_s[name.split(".", 1)[0]] += duration - child_time[idx]
            if parent >= 0:
                child_time[parent] += duration
                child_calls[(names[self.spans[parent][0]], name)] += 1
        return {
            "calls": calls,
            "inclusive_s": inclusive,
            "self_s": self_s,
            "child_calls": child_calls,
            "outcomes": Counter({names[fid]: n for fid, n in self.outcomes.items()}),
        }

    def dump(self) -> dict:
        """The recorded spans in a JSON-ready form, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "fields": ["name_index", "start_s", "end_s", "parent", "outermost"],
            "spans": [[fid, round(s - t0, 9), round(e - t0, 9), parent, int(outer)]
                      for fid, s, e, parent, outer in self.spans],
        }
