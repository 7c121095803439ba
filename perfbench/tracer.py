"""In-memory span tracer that wraps public functions of the program.

A target is named ``"module:Attr.path"``, for example
``"risnoma.channel:EpisodeChannel.slot_parts"``.  Installing the tracer
replaces each target attribute with a wrapper that records one span
``[name, start, end, parent]`` per call, or, for a counter target, only
bumps a count.  A target that cannot be resolved (its module, class or
attribute was renamed or removed) is listed in ``absent`` and skipped, so
the run goes on.  ``remove`` puts every original attribute back; use
``installed()`` so that it happens in a ``finally``.

Spans nest by call order on one thread: the parent of a span is the span
open when it started.  A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

_MISSING = object()


def resolve(target: str):
    """Return ``(owner, attribute name)`` for ``"module:A.b"``, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, _MISSING)
        if owner is _MISSING:
            return None
    if getattr(owner, attr, _MISSING) is _MISSING:
        return None
    return owner, attr


class Tracer:
    """Spans and counts recorded around wrapped targets.

    ``spans`` maps span name to target; ``counters`` maps count name to a
    target whose calls are only counted (for hot, tiny calls such as a
    constructor, where a span per call would cost more than the call).
    """

    def __init__(self, spans: dict, counters: dict | None = None,
                 clock=time.perf_counter):
        self.span_targets = dict(spans)
        self.counter_targets = dict(counters or {})
        self.clock = clock
        self.spans: list = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: list = []
        self._stack: list = []
        self._saved: list = []         # (owner, attr, original or _MISSING)

    # -- installing and restoring -------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        self.absent = []
        for name, target in self.span_targets.items():
            self._patch(name, target, self._span_wrapper)
        for name, target in self.counter_targets.items():
            self._patch(name, target, self._count_wrapper)

    def _patch(self, name, target, make_wrapper) -> None:
        found = resolve(target)
        if found is None:
            self.absent.append(name)
            return
        owner, attr = found
        # the owner's own entry, so an inherited attribute is deleted, not
        # shadowed, on restore
        own = vars(owner).get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr)
        current = getattr(owner, attr)
        if not callable(current) or isinstance(own, (staticmethod, classmethod)):
            self.absent.append(name)
            return
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make_wrapper(name, current))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- wrappers --------------------------------------------------------------
    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- analysis ----------------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: total and self seconds and the number of calls."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
               for name in self.span_targets}
        for index, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
            row["calls"] += 1
        return out

    def outermost_total(self, names) -> dict:
        """Seconds in spans of ``names`` that have no ancestor in ``names``."""
        names = set(names)
        covered = []                  # per span: inside a span of ``names``
        out = dict.fromkeys(names, 0.0)
        for name, start, end, parent in self.spans:
            inside = parent >= 0 and (covered[parent]
                                      or self.spans[parent][0] in names)
            covered.append(inside)
            if name in names and not inside:
                out[name] += end - start
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
