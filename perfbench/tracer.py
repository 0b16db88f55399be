"""In-memory span recorder installed around the ``repro`` layer entry points.

The wrappers are installed from outside the program: each one replaces a
function or method attribute with a closure that records a span (layer
name, start, end, parent span) and calls the original. Spans are kept in
flat arrays while the run is in progress and folded into per-layer self
times when it ends. A span's self time is its duration minus the time its
direct child spans cover; calls are strictly nested in one thread, so the
children of a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import time
from array import array


class Tracer:
    """Records nested spans of named layers."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start_of = array("d")
        self.end_of = array("d")
        self.counts: dict[str, int] = {}
        self._open = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def span(self, name: str, func):
        """``func`` wrapped so each call records one ``name`` span."""
        ident = self._name_id(name)
        name_of, parent_of = self.name_of, self.parent_of
        start_of, end_of = self.start_of, self.end_of
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(name_of)
            name_of.append(ident)
            parent_of.append(self._open)
            start_of.append(clock())
            end_of.append(0.0)
            self._open, parent = index, self._open
            try:
                return func(*args, **kwargs)
            finally:
                end_of[index] = clock()
                self._open = parent

        return traced

    def counter(self, name: str, func):
        """``func`` wrapped so each call bumps ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(func)
        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)``; undone by
        :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def dump(self) -> dict:
        """The recorded spans as plain data (for writing out at the end)."""
        return {"names": list(self.names),
                "name": self.name_of.tolist(),
                "parent": self.parent_of.tolist(),
                "start": self.start_of.tolist(),
                "end": self.end_of.tolist(),
                "counts": dict(self.counts)}


def fold_self_times(spans: dict) -> dict[str, float]:
    """Self time per layer name over the first recorded span (the root)
    and the spans nested in it, from :meth:`Tracer.dump` data.

    Spans are stored in start order, so every child comes after its
    parent and the root's subtree is the run of spans before the next
    top-level one.
    """
    names, name_of, parent_of = spans["names"], spans["name"], spans["parent"]
    start_of, end_of = spans["start"], spans["end"]
    end = next((index for index in range(1, len(name_of))
                if parent_of[index] < 0), len(name_of))
    child_time = [0.0] * end
    for index in range(1, end):
        child_time[parent_of[index]] += end_of[index] - start_of[index]
    out: dict[str, float] = {}
    for index in range(end):
        name = names[name_of[index]]
        own = end_of[index] - start_of[index] - child_time[index]
        out[name] = out.get(name, 0.0) + own
    return out
