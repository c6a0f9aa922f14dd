"""Unified bench emission: every BENCH_*.json shares one envelope.

PR-over-PR perf comparability requires every bench to record the same
vitals the same way.  :func:`write_bench` wraps a bench's own payload in
a uniform envelope::

    {
      "schema": "repro.perf/bench-v1",
      "bench": "fleet_scaling",
      "results": {...bench-specific payload...},
      "perf": {
        "wall_seconds": 5.93,
        "events": 164107,
        "events_per_sec": 27672.0,
        "peak_rss_bytes": 123456789
      }
    }

so the perf trajectory of the whole suite is diffable with one schema,
and the CI gate (:mod:`repro.perf.gate`) can read any bench's baseline.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Optional

from repro.errors import ReproError
from repro.util import journal

BENCH_SCHEMA = "repro.perf/bench-v1"


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return int(rss) * (1 if sys.platform == "darwin" else 1024)


def bench_envelope(
    name: str,
    results: Any,
    wall_seconds: Optional[float] = None,
    events: Optional[int] = None,
) -> dict:
    """The uniform document written for one bench."""
    perf: dict[str, Any] = {"peak_rss_bytes": peak_rss_bytes()}
    if wall_seconds is not None:
        perf["wall_seconds"] = wall_seconds
        if events is not None:
            perf["events"] = events
            perf["events_per_sec"] = events / wall_seconds if wall_seconds > 0 else 0.0
    elif events is not None:
        perf["events"] = events
    return {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "results": results,
        "perf": perf,
    }


def write_bench(
    path: pathlib.Path | str,
    name: str,
    results: Any,
    wall_seconds: Optional[float] = None,
    events: Optional[int] = None,
) -> pathlib.Path:
    """Write one bench's uniform BENCH_*.json document.

    Atomically (:func:`repro.util.journal.replace`), so an interrupted
    bench run can never leave a truncated baseline for the CI perf gate
    to misread — the committed JSON is always either the old document or
    the new one.
    """
    doc = bench_envelope(name, results, wall_seconds=wall_seconds, events=events)
    return journal.replace(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_bench(path: pathlib.Path | str) -> dict:
    """Load a BENCH_*.json envelope; anything else is refused."""
    doc = json.loads(pathlib.Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ReproError(f"{path}: not a {BENCH_SCHEMA} bench envelope")
    return doc
