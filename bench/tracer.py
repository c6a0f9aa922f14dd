"""Tracing that lives in the benchmark: spans and layer attribution.

Two instruments, both used only in a ``--trace 1`` run and only around
one extra repetition, never around a timed one:

* :class:`Spans` records (name, start, end, parent, repetition) around
  the calls the benchmark itself makes — repetition → build / run /
  report, each campaign cell, each live request — keeps them in memory
  and writes them out when the run ends.
* :func:`profile_layers` runs that repetition under ``cProfile`` and
  credits every function's self time to the *layer* owning its module.
  C, stdlib and numpy functions belong to no layer: their self time goes
  to the layer that called them, through however many such frames.
"""

from __future__ import annotations

import cProfile
import contextlib
import json
import pstats
from time import perf_counter

#: module prefix (under ``repro.``) -> layer, first match wins
_REPRO_LAYERS = (
    ("sims", "sims"),
    ("parallel", "parallel"),
    ("des.sched", "des.sched"),
    ("des.resources", "des.resources"),
    ("des", "des.core"),
    ("steering", "steering"),
    ("visit", "steering"),
    ("ogsa", "ogsa"),
    ("wire", "wire"),
    ("net", "net"),
    ("workloads", "net"),  # link profiles and the venue fabric
    ("unicore", "unicore"),
    ("fleet", "fleet"),
    ("load", "load"),
    ("chaos", "chaos"),
    ("campaign.store", "campaign.store"),
    ("campaign.matrix", "campaign.matrix"),
    ("campaign", "campaign.runner"),
    ("live.http", "live.http"),
    ("live.client", "live.http"),
    ("live.trace", "live.trace"),
    ("live.pacing", "live.pacing"),
    ("live", "live.server"),
    ("obs", "obs"),
)
_REPRO_DEFAULT = "util"  # repro.util, repro.perf, repro.errors, ...

LAYERS = tuple(dict.fromkeys(layer for _, layer in _REPRO_LAYERS)) + (
    _REPRO_DEFAULT,
    "host.asyncio",
    "host.other",
)


class Spans:
    """In-memory span recorder; a disabled one records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.rows = [] if enabled else None
        self._stack: list = []

    def _current(self):
        return self._stack[-1] if self._stack else None

    def add(self, name: str, start: float, end: float, rep: int) -> None:
        """A finished span, child of the innermost open one."""
        if self.rows is not None:
            self.rows.append([name, start, end, self._current(), rep])

    @contextlib.contextmanager
    def span(self, name: str, rep: int):
        if self.rows is None:
            yield
            return
        row = [name, perf_counter(), None, self._current(), rep]
        self.rows.append(row)
        self._stack.append(len(self.rows) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            row[2] = perf_counter()

    def self_times(self) -> dict:
        """Span name -> duration minus the part its child spans cover, ms
        (children may overlap: two live connections are in flight at once)."""
        children: dict = {}
        for _, start, end, parent, _ in self.rows:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.rows):
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(i, ())):
                if hi > reach:
                    covered += hi - max(lo, reach)
                    reach = hi
            key = name.split(":")[0]
            out[key] = out.get(key, 0.0) + (end - start - covered) * 1e3
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rep) in enumerate(self.rows):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "rep": rep}
                    )
                    + "\n"
                )


def layer_of(filename: str):
    """The layer owning a profiled function's file; None for code that
    belongs to no layer (C, stdlib, numpy) and is charged to its caller."""
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        module = path.rsplit("/repro/", 1)[1].removesuffix(".py").replace("/", ".")
        for prefix, layer in _REPRO_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return _REPRO_DEFAULT
    if "/asyncio/" in path or path.endswith("/selectors.py"):
        return "host.asyncio"
    if "/bench/" in path:
        return "host.other"  # the harness itself
    return None


def attribute(stats: dict) -> tuple[dict, dict]:
    """``pstats`` table -> (layer -> self ms, layer -> calls).

    Calls count only functions a layer owns, so they repeat exactly;
    self time includes the ownerless functions it called.
    """
    memo: dict = {}

    def shares(func, seen: frozenset) -> dict:
        """Layer -> fraction of an ownerless function's self time."""
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        weights = {c: edge[2] for c, edge in callers.items() if c not in seen}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(callers[c][1]) for c in weights}
        total = sum(weights.values())
        out: dict = {}
        if total <= 0.0:
            out["host.other"] = 1.0  # a root frame: nobody called it
        else:
            inner = seen | {func}
            for caller, weight in weights.items():
                for layer, frac in shares(caller, inner).items():
                    out[layer] = out.get(layer, 0.0) + frac * weight / total
        if not seen:
            memo[func] = out
        return out

    self_ms = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_, ncalls, tottime, _, _) in stats.items():
        own = layer_of(func[0])
        if own is not None:
            calls[own] += ncalls
        for layer, frac in shares(func, frozenset()).items():
            self_ms[layer] += tottime * frac * 1e3
    return self_ms, calls


def profile_layers(fn):
    """Run ``fn()`` under cProfile; returns (result, wall s, self ms, calls)."""
    profiler = cProfile.Profile()
    t0 = perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = perf_counter() - t0
    self_ms, calls = attribute(pstats.Stats(profiler).stats)
    return result, wall, self_ms, calls
