"""Shared benchmark infrastructure.

Every bench prints its table through the ``reporter`` fixture, which also
appends to ``benchmarks/results.txt`` so the series survive pytest's
output capture, and writes its ``BENCH_*.json`` envelope through
:func:`write_json`.  The paper's own claims are not benches, nor are the
fabric's open-loop, chaos and campaign thresholds: tier-1's
``tests/test_paper_table.py`` and ``tests/test_behaviour_table.py``
assert and pin them.
"""

from __future__ import annotations

import pathlib
from typing import Optional

import pytest

from repro.perf.bench import write_bench

RESULTS_PATH = pathlib.Path(__file__).parent / "results.txt"


def write_json(
    name: str,
    payload,
    wall_seconds: Optional[float] = None,
    events: Optional[int] = None,
) -> pathlib.Path:
    """Persist machine-readable bench results (BENCH_*.json) next to the
    benches; these are committed so the perf trajectory is diffable
    across PRs.

    Every bench registers with the unified :mod:`repro.perf` runner
    through this single entry point: the payload lands under
    ``results`` inside the uniform envelope (wall seconds, events,
    events/sec, peak RSS), so one schema covers the whole suite.  The
    write is atomic (tmp + ``os.replace`` inside ``write_bench``), so a
    bench run interrupted mid-write cannot truncate a committed baseline
    the perf gate would later misread.
    """
    path = pathlib.Path(__file__).parent / name
    bench_name = name.removeprefix("BENCH_").removesuffix(".json")
    return write_bench(
        path, bench_name, payload, wall_seconds=wall_seconds, events=events
    )


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    RESULTS_PATH.write_text("")
    yield


class Reporter:
    def __init__(self) -> None:
        self._chunks: list[str] = []

    def table(self, title: str, header: list[str], rows: list[list]) -> str:
        widths = [
            max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows
            else len(str(header[i]))
            for i in range(len(header))
        ]

        def fmt(cells):
            return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))

        lines = [f"== {title} ==", fmt(header),
                 "-+-".join("-" * w for w in widths)]
        lines += [fmt(r) for r in rows]
        text = "\n".join(lines) + "\n"
        self._chunks.append(text)
        return text

    def note(self, text: str) -> None:
        self._chunks.append(text + "\n")

    def flush(self) -> None:
        blob = "\n".join(self._chunks) + "\n"
        print("\n" + blob)
        with RESULTS_PATH.open("a") as fh:
            fh.write(blob)
        self._chunks.clear()


@pytest.fixture
def reporter():
    rep = Reporter()
    yield rep
    rep.flush()


def run_once(benchmark, fn):
    """Run a whole-scenario function exactly once under pytest-benchmark.

    Scenario benches measure virtual-time quantities themselves; the
    benchmark fixture is still exercised so ``--benchmark-only`` keeps
    them, and the wall time it records is the scenario cost.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
