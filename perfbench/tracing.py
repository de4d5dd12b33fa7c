"""Outside-in tracer: spans around calls into the optdesign modules.

Nothing under ``src/`` is edited.  Each traced name ``"<module>.<attr>"`` is
looked up in ``optdesign.<module>``; the wrapper replaces the function in
*every* optdesign module namespace that holds it, because ``bayes``,
``maximin`` and ``io`` bind kernels with ``from .local import ...`` and a
patch of ``optdesign.local`` alone would miss their calls.  Methods
(``"models.Model.score_matrix"``) are wrapped on the class.  A name that no
longer exists is recorded as absent instead of raising, so deleting a
private stage never breaks the benchmark.

A span is ``[name, start, end, parent_index, op_id, child_seconds]``; spans
stay in memory until the run ends.  Leaf kernels are called millions of
times (``score_matrix`` 2.5 million times in one ``maximin-scalar`` pass), so
a name installed as a *leaf* keeps no spans: its calls and seconds are summed
per op and charged to the enclosing span as child time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

_CHILD = 5


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # open frames: (span list, its index or None)
        self.op_id = -1
        self.absent: set = set()
        self.counters = defaultdict(float)
        self.leaf_calls = defaultdict(int)  # (name, op_id) -> calls
        self.leaf_seconds = defaultdict(float)  # (name, op_id) -> seconds
        self._patches: list = []  # (owner, attr, original)

    # -- installation ------------------------------------------------------

    def install(self, names, observers=None, leaves=()) -> None:
        """Wrap every name in ``names``.  ``observers`` maps a name to a
        callback ``(tracer, bound_arguments, result)`` for extra counters;
        names in ``leaves`` are summed instead of kept as spans."""
        observers = observers or {}
        for name in names:
            self._wrap(name, observers.get(name), name in leaves)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _resolve(self, name: str):
        """(owner object, attribute, current value) or None when absent."""
        parts = name.split(".")
        try:
            owner = importlib.import_module("optdesign." + parts[0])
        except ImportError:
            return None
        for attr in parts[1:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        value = inspect.getattr_static(owner, parts[-1], None)
        if value is None or not callable(value):
            return None
        return owner, parts[-1], value

    def _wrap(self, name: str, observer, leaf: bool) -> None:
        found = self._resolve(name)
        if found is None:
            self.absent.add(name)
            return
        owner, attr, original = found
        wrapper = self._make_wrapper(name, original, observer, leaf)
        if inspect.isclass(owner):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "optdesign"
                                   or mod_name.startswith("optdesign.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _make_wrapper(self, name: str, original, observer, leaf: bool):
        tracer = self
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = [name, time.perf_counter(), None,
                    parent[1] if parent else None, tracer.op_id, 0.0]
            index = None
            if not leaf:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append((span, index))
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
                seconds = span[2] - span[1]
                if parent is not None:
                    parent[0][_CHILD] += seconds
                if leaf:
                    key = (name, span[4])
                    tracer.leaf_calls[key] += 1
                    tracer.leaf_seconds[key] += seconds - span[_CHILD]
            if observer is not None and signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:
                    tracer.absent.add(name + ":observer")
                else:
                    bound.apply_defaults()
                    observer(tracer, bound.arguments, result)
            return result

        # keep cache_info() / cache_clear() of lru_cache'd functions reachable
        for attr in ("cache_info", "cache_clear"):
            if hasattr(original, attr):
                setattr(wrapper, attr, getattr(original, attr))
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its duration minus the time its direct
        children, spans and leaves, cover (children never overlap)."""
        return [end - start - child
                for _, start, end, _, _, child in self.spans]

    def to_records(self) -> dict:
        leaves = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, op), calls in self.leaf_calls.items():
            leaves[name]["calls"] += calls
            leaves[name]["self_s"] += self.leaf_seconds[(name, op)]
        return {
            "absent": sorted(self.absent),
            "leaves": dict(leaves),
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o,
                       "self_s": e - s - c}
                      for n, s, e, p, o, c in self.spans],
        }
