"""Outside-in tracer for the reinsure_dp package.

The tracer wraps every public function of the package's eight modules in
memory and records one span per call: name, start, end, the span that was
open when it started (its parent) and the root span of the operation it
belongs to. The modules import each other's functions by name (``from .dp
import solve_finite`` in cli and sim), so a wrapper replaces the function in
its defining module and at every import site in the package. Two methods the
solver calls per candidate, ``ValueFunction.__call__`` and
``Treaty.retained``, are patched on their classes. Nothing inside the
program changes; uninstalling restores every original object.

Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

PACKAGE = "reinsure_dp"
MODULES = ("distributions", "risk", "treaties", "premiums", "dp", "oracles", "sim", "cli")
# (module, class, method, span name)
METHODS = (
    ("dp", "ValueFunction", "__call__", "dp.value_interp"),
    ("treaties", "Treaty", "retained", "treaties.retained"),
)


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    root: int
    name: str
    start: float
    end: float


class Stat(NamedTuple):
    calls: int
    s: float  # inclusive time
    self_s: float  # time not covered by child spans


class Tracer:
    """Records spans for wrapped calls while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int, int, str, float]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        if self._stack:
            parent, root = self._stack[-1][0], self._stack[-1][2]
        else:
            parent, root = -1, sid
        self._stack.append((sid, parent, root, name, self.clock()))

    def _exit(self) -> None:
        end = self.clock()
        sid, parent, root, name, start = self._stack.pop()
        self.spans.append(Span(sid, parent, root, name, start, end))

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def install(self) -> None:
        """Patch the package's public functions and the two hot methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        sites = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, Stat]:
    """Calls, inclusive time and self time per span name.

    Self time is a span's duration minus the part of its interval that its
    direct child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    for sp in spans:
        dur = sp.end - sp.start
        kids = children.get(sp.id)
        self_s = dur - covered(sp.start, sp.end, kids) if kids else dur
        calls[sp.name] = calls.get(sp.name, 0) + 1
        incl[sp.name] = incl.get(sp.name, 0.0) + dur
        own[sp.name] = own.get(sp.name, 0.0) + self_s
    return {name: Stat(calls[name], incl[name], own[name]) for name in calls}


def count_children(spans, parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
    names = {sp.id: sp.name for sp in spans}
    return sum(
        1 for sp in spans if sp.name == child_name and names.get(sp.parent) == parent_name
    )
