"""Span tracer that wraps the program's functions from outside.

A span is (name, start, end, parent).  Spans are held in memory for the
duration of a traced run and aggregated at the end.  Wrappers are installed
by rebinding module-level names (and ``Tape`` methods) and every binding is
put back by :meth:`Tracer.restore`, so code measured after a traced run is
the unpatched program.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "self_times", "NO_PARENT"]

NO_PARENT = -1


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p != NO_PARENT:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted((max(starts[c], lo), min(ends[c], hi))
                           for c in children.get(i, ())):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


class Tracer:
    """Records spans around wrapped callables; one tracer per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args)`` sees each
        return value, for counts taken where the work happens."""
        names, starts, ends, parents, stack = (self.names, self.starts,
                                               self.ends, self.parents,
                                               self._stack)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Rebind ``owner.attr``; the original is put back by ``restore``."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> list[str]:
        """Undo every patch, newest first; returns bindings still not original."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                if o.__dict__[a] is not orig]
        self._patches.clear()
        return left

    @property
    def num_spans(self) -> int:
        return len(self.names)

    def totals(self):
        """Per span name: inclusive seconds, self seconds and calls; then the
        root spans' total seconds and the sum of all self times, which equal
        each other when children nest inside their parents without overlap."""
        selfs = self_times(self.starts, self.ends, self.parents)
        incl: dict[str, float] = defaultdict(float)
        excl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, s, e, x in zip(self.names, self.starts, self.ends, selfs):
            incl[name] += e - s
            excl[name] += x
            calls[name] += 1
        roots = sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents)
                    if p == NO_PARENT)
        return incl, excl, calls, roots, sum(selfs)
