"""Both HTML dashboards, pinned byte for byte.

``tests/golden/campaign_dashboards.json`` holds the sha256 of the grid
page and of the search page rendered from the hand-written inputs
below.  The inputs are literals — no simulation runs, so neither the
sim numerics nor a python/numpy fingerprint can move the digests; only
a change to what :mod:`repro.campaign.dashboard` (or the pure
aggregation in :mod:`repro.campaign.matrix`) writes can.  The golden was
generated at the PR 21 tree, before the PR 22 plot-frame/table/page
collapse, by running this file as a script::

    PYTHONPATH=src python tests/test_campaign_dashboard.py

The grid digest was re-pinned when the baseline drift table went: it is
now the page without a baseline, whose digest the tree before that
deletion renders identically.
"""

import hashlib
import json
import math
import pathlib

from repro.campaign import (
    AxisPoint,
    CampaignSpec,
    Evaluation,
    MatrixReport,
    SearchArchive,
    search_preset,
)
from repro.campaign.dashboard import render_html, render_search_html

GOLDEN = pathlib.Path(__file__).parent / "golden" / "campaign_dashboards.json"


def _spec(arrivals):
    return CampaignSpec(
        name="pinned <grid>",
        seed=7,
        scenarios=[AxisPoint("paper")],
        arrivals=[AxisPoint(name) for name in arrivals],
        faults=[AxisPoint(name)
                for name in ("baseline", "outage&crash", "random-3")],
        policies=[AxisPoint("ll")],
    )


def _cell(arrival, faults, completed, steer_ms, waits):
    """One literal cell record: 8 sessions, the given latency samples."""
    steer = [ms / 1e3 for ms in steer_ms]

    def series(samples):
        mean = sum(samples) / len(samples) if samples else 0.0
        return {
            "stats": {
                "n": len(samples), "mean": mean,
                "m2": sum((x - mean) ** 2 for x in samples),
                "min": min(samples, default=None),
                "max": max(samples, default=None),
            },
            "sample": samples,
        }

    return {
        "kind": "cell",
        "cell_id": f"paper/{arrival}/{faults}/ll",
        "index": 0,
        "seed": 1,
        "coords": {"scenario": "paper", "arrival": arrival,
                   "faults": faults, "policy": "ll"},
        "report": {
            "sessions": 8, "completed": completed, "failed": 8 - completed,
            "ops": 16 * len(steer), "timeouts": 0, "errors": 8 - completed,
            "steer_p90_ms": max(steer_ms, default=math.nan),
            "load": {"wait_p90_s": max(waits, default=math.nan)},
        },
        "verdict": {
            "invariant_violations": 0 if completed == 8 else 2,
            "faults_applied": 0 if faults == "baseline" else 3,
            "recovery": {"recovered": completed // 2, "impacted": 4},
        },
        "mergeable": {"steer": series(steer), "wait": series(waits)},
    }


def grid_pages_input():
    """A 2 x 3 grid with every hole the panel can name."""
    spec = _spec(["poisson", "flash<2x"])
    records = [
        # the first and third are the pareto front, the second is dominated
        _cell("poisson", "baseline", 8, [1.5, 2.25, 4.0, 12.5], [0.25, 0.5]),
        _cell("poisson", "outage&crash", 5, [3.0, 9.75, 30.0], [1.5, 2.75]),
        _cell("poisson", "random-3", 7, [0.75, 6.0], [0.125]),
        # steered and queued nothing: NaN latencies, not plotted
        _cell("flash<2x", "baseline", 6, [], []),
    ]
    quarantined = [{
        "kind": "quarantine", "cell_id": "paper/flash<2x/outage&crash/ll",
        "index": 4, "seed": 4, "reason": "timeout", "attempts": 3,
        "coords": {"scenario": "paper", "arrival": "flash<2x",
                   "faults": "outage&crash", "policy": "ll"},
        "failures": [],
    }]
    matrix = MatrixReport.from_records(
        records, spec=spec, quarantined=quarantined
    )
    assert matrix.missing == ["paper/flash<2x/random-3/ll"]
    return matrix


def search_archive_input():
    """cliff-smoke over three generations: one poisoned proposal in the
    first, the whole second quarantined, a real third."""
    spec = search_preset("cliff-smoke")
    spec.generations = 3
    rows = [
        (0, 1.25, 2, 0.625, False),
        (0, 4.5, 4, 1.0e9, True),
        (0, 5.75, 1, 0.875, False),
        (1, 2.0, 3, 1.0e9, True),
        (1, 3.5, 5, 1.0e9, True),
        (2, 5.25, 4, 0.375, False),
        (2, 0.75, 2, 1.0, False),
    ]
    return SearchArchive(spec, [
        Evaluation(
            generation=gen,
            assignment={"arrival.rate": rate, "faults.random.n_faults": n},
            cell_id=f"paper-mix@{i:02d}/poisson@{i:02d}/random@{i:02d}/ll@{i:02d}",
            seed=1000 + i,
            score=score,
            quarantined=poisoned,
        )
        for i, (gen, rate, n, score, poisoned) in enumerate(rows)
    ])


def _digests() -> dict:
    pages = {
        "grid": render_html(grid_pages_input()),
        "search": render_search_html(search_archive_input()),
    }
    return {
        name: hashlib.sha256(page.encode("utf-8")).hexdigest()
        for name, page in pages.items()
    }


def test_dashboards_match_the_pinned_bytes():
    page = render_html(grid_pages_input())
    # the inputs still reach every branch the golden is there to guard
    for needle in ("grid holes (2)", "never ran", "are not plotted", "<polyline",
                   "flash&lt;2x"):
        assert needle in page, needle
    search = render_search_html(search_archive_input())
    assert 'stroke="#b00020"' in search and "<polyline" in search
    assert _digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
