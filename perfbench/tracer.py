"""Outside-in tracer: wraps library functions from the benchmark's own code.

The library is not modified.  For each traced function the tracer replaces
every binding of the same object in the ``resoplus`` module namespaces, so
top-level ``from .x import f`` copies and aliases such as ``pdt.dtf_sample``
are caught; function-local imports resolve at call time and therefore see
the patched defining module.  Methods are patched on their class.

Each call records one span: name, start, end, parent span and item id.
Spans are kept in flat arrays in memory and written out when the run ends.
Stats read from arguments and results (rows passed in, points produced,
...) are accumulated per function by small probe callables.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

NO_PARENT = -1
NO_ITEM = -1  # spans outside a timed item are not counted
PACKAGE = "resoplus"


class Tracer:
    """Span recorder plus the patch table that installs and removes wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_of = array("i")
        self.error = array("i")  # 0, or 1 + index into error_types
        self.error_types: list[type] = []
        self.counts: dict[str, int] = defaultdict(int)  # count-only wrappers
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.item = NO_ITEM
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _error_code(self, exc: BaseException) -> int:
        kind = type(exc)
        if kind not in self.error_types:
            self.error_types.append(kind)
        return 1 + self.error_types.index(kind)

    def span_wrapper(self, name: str, fn, probe=None):
        """A transparent wrapper recording one span per call of fn."""
        nid = self._intern(name)
        stats = self.stats[name]
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
            self.item_of.append(self.item)
            self.end.append(0.0)
            self.error.append(0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[sid] = clock()
                self._stack.pop()
                self.error[sid] = self._error_code(exc)
                if probe is not None and self.item >= 0:
                    probe(stats, args, kwargs, None, exc)
                raise
            self.end[sid] = clock()
            self._stack.pop()
            if probe is not None and self.item >= 0:
                probe(stats, args, kwargs, result, None)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def count_wrapper(self, name: str, fn):
        """A transparent wrapper that only counts calls made by timed items."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.item >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped_by_tracer__ = True
        return counted

    # -- patching ---------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every target: (name, owner, attribute, probe, count_only).

        owner is a module (function targets) or a class (method targets).
        """
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, owner, attr, probe, count_only in targets:
            original = inspect.getattr_static(owner, attr)
            wrapper = self.count_wrapper(name, original) if count_only else self.span_wrapper(name, original, probe)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.start)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p != NO_PARENT:
                child[p] += self.end[sid] - self.start[sid]
        return [self.end[s] - self.start[s] - child[s] for s in range(len(self.start))]

    def dump(self, path) -> None:
        """Write all spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item_of, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int32),
            error_types=np.array([t.__name__ for t in self.error_types] or [""], dtype=str),
        )


def aggregate(tracer: Tracer, layer_of, declared=()) -> tuple[dict, dict]:
    """Per function and per layer: calls, self seconds and escaped errors.

    Only spans of timed items (item id >= 0) count.  An error counts for a
    layer when an exception other than a declared outcome leaves the layer:
    the span raised and its parent belongs to another layer or is absent.
    """
    self_t = tracer.self_times()
    per_fn: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    per_layer: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
    declared = tuple(declared)
    for sid in range(len(tracer.start)):
        if tracer.item_of[sid] < 0:
            continue
        name = tracer.names[tracer.name_id[sid]]
        layer = layer_of(name)
        per_fn[name]["calls"] += 1
        per_fn[name]["self_s"] += self_t[sid]
        per_layer[layer]["calls"] += 1
        per_layer[layer]["self_s"] += self_t[sid]
        code = tracer.error[sid]
        if code and not issubclass(tracer.error_types[code - 1], declared):
            p = tracer.parent[sid]
            if p == NO_PARENT or layer_of(tracer.names[tracer.name_id[p]]) != layer:
                per_layer[layer]["errors"] += 1
    return per_fn, per_layer
