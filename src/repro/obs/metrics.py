"""A lightweight Prometheus-style metrics registry.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — registered on a :class:`MetricsRegistry` that
renders the Prometheus text exposition format (``# HELP`` / ``# TYPE``,
cumulative ``_bucket{le=...}`` series) for ``GET /metricsz`` and a
JSON-able :meth:`MetricsRegistry.snapshot` for batch runs.

A count is pulled from the ledger that keeps it (fleet and queue
telemetry, :class:`~repro.live.pacing.PacedRunner`) by *collectors* run
at exposition time: attribute reads per scrape, not per event.  A push
(``observe()``, ``inc()``) happens only inside a ledger's record method,
or where no ledger exists (viz frames), and unconditionally: to
:data:`NULL_REGISTRY`'s dropping instruments when metrics are off.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from repro.errors import ObsError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: every histogram's bucket upper bounds, in (sim) seconds
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _fmt(value: float) -> str:
    """Prometheus sample formatting: integers without the trailing .0."""
    if isinstance(value, bool):
        return "1" if value else "0"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Family:
    """One metric family: a name, a kind, and labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]) -> None:
        if not _NAME_RE.match(name):
            raise ObsError(f"bad metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ObsError(f"bad label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._label_set = frozenset(label_names)
        #: label-value tuple -> series state
        self.series: dict[tuple, object] = {}

    def _key(self, labels: dict) -> tuple:
        # Hot path: pushes happen per steering op / viz frame, so the
        # label check must not allocate when it passes.
        if not labels:
            if not self.label_names:
                return ()
        elif labels.keys() == self._label_set:
            return tuple(str(labels[k]) for k in self.label_names)
        raise ObsError(
            f"metric {self.name!r} takes labels {list(self.label_names)}, "
            f"got {sorted(labels)}"
        )

    def _labels_str(self, key: tuple, extra: str = "") -> str:
        parts = [f'{k}="{_escape(v)}"' for k, v in zip(self.label_names, key)]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def expose(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self.series):
            lines.extend(self._expose_series(key))
        return lines

    def _expose_series(self, key: tuple) -> list[str]:
        raise NotImplementedError

    def snapshot_series(self, key: tuple):
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {
                    "labels": dict(zip(self.label_names, key)),
                    "value": self.snapshot_series(key),
                }
                for key in sorted(self.series)
            ],
        }


class Counter(_Family):
    """Monotone counter; collectors may sync it to an external total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def set_total(self, total: float, **labels) -> None:
        """Pull-collector hook: adopt a monotone total kept elsewhere."""
        key = self._key(labels)
        current = self.series.get(key, 0.0)
        if total < current:
            raise ObsError(
                f"counter {self.name!r} would decrease ({current} -> {total})"
            )
        self.series[key] = float(total)

    def value(self, **labels) -> float:
        return float(self.series.get(self._key(labels), 0.0))

    def _expose_series(self, key: tuple) -> list[str]:
        return [f"{self.name}{self._labels_str(key)} {_fmt(self.series[key])}"]

    def snapshot_series(self, key: tuple) -> float:
        return float(self.series[key])


class Gauge(_Family):
    """A value that goes up and down (depths, states, pressure)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self.series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def dec(self, **labels) -> None:
        self.inc(-1.0, **labels)

    def value(self, **labels) -> float:
        return float(self.series.get(self._key(labels), 0.0))

    def _expose_series(self, key: tuple) -> list[str]:
        return [f"{self.name}{self._labels_str(key)} {_fmt(self.series[key])}"]

    def snapshot_series(self, key: tuple) -> float:
        return float(self.series[key])


class Histogram(_Family):
    """Cumulative-bucket histogram in the Prometheus layout."""

    kind = "histogram"
    buckets = LATENCY_BUCKETS

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        state = self.series.get(key)
        if state is None:
            state = [[0] * len(self.buckets), 0.0, 0]  # per-bucket, sum, count
            self.series[key] = state
        counts, _, _ = state
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        state[1] += value
        state[2] += 1

    def _expose_series(self, key: tuple) -> list[str]:
        counts, total, n = self.series[key]
        lines = []
        cumulative = 0
        for bound, c in zip(self.buckets, counts):
            cumulative += c
            le = 'le="' + _fmt(bound) + '"'
            lines.append(f"{self.name}_bucket{self._labels_str(key, extra=le)} {cumulative}")
        inf = 'le="+Inf"'
        lines.append(f"{self.name}_bucket{self._labels_str(key, extra=inf)} {n}")
        lines.append(f"{self.name}_sum{self._labels_str(key)} {_fmt(total)}")
        lines.append(f"{self.name}_count{self._labels_str(key)} {n}")
        return lines

    def snapshot_series(self, key: tuple) -> dict:
        counts, total, n = self.series[key]
        return {
            "buckets": {_fmt(b): c for b, c in zip(self.buckets, counts)},
            "sum": total,
            "count": n,
        }


class MetricsRegistry:
    """Registration, pull collectors, and exposition."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family) or existing.label_names != family.label_names:
                raise ObsError(
                    f"metric {family.name!r} re-registered with a different shape"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter(name, help, tuple(labels)))

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge(name, help, tuple(labels)))

    def histogram(self, name: str, help: str = "") -> Histogram:
        """An unlabelled histogram: every one the fabric observes is a
        whole-run latency."""
        return self._register(Histogram(name, help, ()))

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a pull hook run before every exposition/snapshot."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn()

    def render(self) -> str:
        """The Prometheus text exposition (runs the collectors first)."""
        self.collect()
        lines: list[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].expose())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-able dump of every family — the batch-run artifact."""
        self.collect()
        return {name: self._families[name].snapshot() for name in sorted(self._families)}


class _NullInstrument:
    """Every family of a :class:`NullRegistry`: each push is dropped."""

    def _drop(self, *args, **labels) -> None:
        return None

    inc = dec = set = set_total = observe = _drop


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The registry of a fabric built with metrics off (one stateless
    instance, :data:`NULL_REGISTRY`): every family is the shared
    :data:`NULL_INSTRUMENT`, and collectors are dropped unrun."""

    def _family(self, *args, **kwargs) -> _NullInstrument:
        return NULL_INSTRUMENT

    counter = gauge = histogram = _family

    def add_collector(self, fn: Callable[[], None]) -> None:
        return None


NULL_REGISTRY = NullRegistry()
