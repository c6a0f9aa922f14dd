"""The fabric's behaviour under load and faults, as one byte-pinned table.

The paper's showcase is steering that keeps working for remote
audiences.  Here that is three claims about the fabric, each a *row*
registered on a :class:`pinned.Table`:

* **OPEN-LOOP** — Poisson arrivals against fixed capacity: below
  saturation nothing is shed and admission waits stay bounded; at 2x
  the controller sheds explicitly and its queue never passes its bound;
  the reactive autoscaler at the same overload pays for itself.
* **CHAOS** — one seeded 2x-overload stream against a 3-site fabric,
  once per fault schedule: zero invariant violations in every cell,
  goodput retained, impacted sessions recovered.
* **CAMPAIGN** — the ``smoke`` preset through the experiment engine on
  2 worker processes: a complete, violation-free grid whose merged
  ``MatrixReport`` is pinned by digest.

Every row asserts its thresholds on every environment and returns only
deterministic figures — virtual seconds, counts, digests.  They are
compared as canonical JSON text with ``tests/golden/behaviour_table.json``
under the fingerprint policy of ``tests/pinned.py``, and DESIGN.md's
"Measured behaviour" sections render them, one section per group.  A
world runs once per session: rows that read the same world (the 2x
open-loop world, the compound chaos cell) share it through a cache, and
a determinism rerun calls the function behind the cache.

Re-record (only when a change is *meant* to move a figure), then paste
each printed section into DESIGN.md:
``PYTHONPATH=src python tests/test_behaviour_table.py``
The re-record then runs the smoke grid serially and fails unless it
merges to the digest the 2-worker run just recorded.
"""

import functools
import hashlib
import json
import pathlib
import tempfile

import pytest

from pinned import Table, canon
from repro.campaign import CampaignRunner, ResultStore, preset
from repro.chaos import (
    ChaosHarness,
    ContainerCrash,
    FaultSchedule,
    FirewallLockdown,
    RegistryShardLoss,
    SiteOutage,
    SlowNode,
    VBrokerCrash,
)
from repro.fleet import BrokerPool, FleetDriver
from repro.load import AdmissionController, PoissonArrivals, ReactiveAutoscaler

HERE = pathlib.Path(__file__).parent
TABLE = Table(HERE / "golden" / "behaviour_table.json", "world")
row = TABLE.row
GROUPS = ("OPEN-LOOP", "CHAOS", "CAMPAIGN")
#: the admission queue's bound in every open-loop and chaos world
QUEUE_LIMIT = 12


def _dump(report, verdict=None) -> str:
    return json.dumps({"report": report.to_dict(), "verdict": verdict}, sort_keys=True)


# -- OPEN-LOOP ----------------------------------------------------------------

RATES = (0.6, 1.2, 2.8)


@functools.cache
def open_loop(rate: float, autoscale: bool = False):
    # 2 sites x 3 slots; a session holds its slot ~4.4 virtual s (3 s of
    # steering + launch/teardown), so the service rate is ~1.35 sessions/s.
    driver = FleetDriver(n_sites=2, queue_slots=3)
    ctl = AdmissionController(driver, queue_limit=QUEUE_LIMIT)
    if autoscale:
        ReactiveAutoscaler(ctl, max_sites=6, high_depth=3, interval=1.0, cooldown=0.0)
    arrivals = PoissonArrivals(rate=rate, horizon=20.0, seed=7, duration=3.0, cadence=0.5)
    return ctl.run(arrivals)


@row("OPEN-LOOP", "2 sites × 3 slots (≈ 1.35 sessions/s), queue bound 12; "
     "Poisson arrivals over 20 s, seed 7",
     "offered, admitted, rejected; admission wait p99 (s); queue depth max "
     "at λ = 0.6 / 1.2 / 2.8 per s",
     "λ 0.6, 1.2: nothing rejected or abandoned, p99 < 2 s and < 6 s; every "
     "admitted session completes, no steering timeout; λ 2.8: > 15 % rejected, "
     "depth ≤ 12; a rerun at λ 0.6 is byte-identical",
     "offered", "admitted", "rejected", "wait_p99", "depth_max")
def open_loop_sweep():
    reports = [open_loop(rate) for rate in RATES]
    under, near, over = (rep.queue for rep in reports)
    for q in (under, near):
        assert q.rejected == 0 and q.abandoned == 0, q.render()
    assert under.admitted == under.offered > 0
    assert under.wait_p99 < 2.0, under.render()
    assert near.wait_p99 < 6.0, near.render()
    for rep in reports:
        assert rep.completed == rep.queue.admitted
        assert rep.timeouts == 0
    assert over.rejected > 0
    assert over.rejection_rate > 0.15
    assert over.depth_max <= QUEUE_LIMIT
    assert _dump(open_loop.__wrapped__(RATES[0])) == _dump(reports[0])
    queues = [rep.queue for rep in reports]
    return {
        "offered": [q.offered for q in queues],
        "admitted": [q.admitted for q in queues],
        "rejected": [q.rejected for q in queues],
        "wait_p50": [q.wait_p50 for q in queues],
        "wait_p99": [q.wait_p99 for q in queues],
        "depth_max": [q.depth_max for q in queues],
        "completed": [rep.completed for rep in reports],
    }


@row("OPEN-LOOP-AUTOSCALE", "the OPEN-LOOP world at λ = 2.8 per s, fixed vs a reactive "
     "autoscaler (≤ 6 sites, grows at depth 3)",
     "admission wait p99 (s), rejected, admitted; sites grown and drained",
     "the scaler grows and drains back; autoscaled p99 < 0.6 × fixed; fewer "
     "rejected, more admitted",
     "wait_p99", "rejected", "scale_ups", "scale_downs")
def open_loop_autoscale():
    fixed, elastic = open_loop(RATES[-1]).queue, open_loop(RATES[-1], True).queue
    assert elastic.scale_ups > 0
    assert elastic.wait_p99 < 0.6 * fixed.wait_p99, (elastic.wait_p99, fixed.wait_p99)
    assert elastic.rejected < fixed.rejected
    assert elastic.admitted > fixed.admitted
    assert elastic.scale_downs > 0
    both = {"fixed": fixed, "autoscaled": elastic}
    return {
        key: {name: getattr(q, key) for name, q in both.items()}
        for key in ("wait_p99", "rejected", "admitted", "scale_ups", "scale_downs")
    }


# -- CHAOS --------------------------------------------------------------------

#: one fault schedule per cell, each fault at t = 5 (the compound cell's
#: second at t = 6)
FAULTS = {
    "baseline": (),
    "site-outage": (SiteOutage(at=5.0, site=0, duration=20.0),),
    "container-crash": (ContainerCrash(at=5.0, site=0, duration=10.0),),
    "vbroker-crash": (VBrokerCrash(at=5.0, broker=0),),
    "shard-loss": (RegistryShardLoss(at=5.0, shard=0),),
    "lockdown": (FirewallLockdown(at=5.0, host="hpc-1", duration=8.0),),
    "limp-node": (SlowNode(at=5.0, site=1, factor=8.0, duration=8.0),),
    # The outage has already released broker 0's sessions when the
    # broker crash lands, so it crashes broker 1, on a site left up.
    "outage+vbroker": (
        SiteOutage(at=5.0, site=0, duration=20.0),
        VBrokerCrash(at=6.0, broker=1),
    ),
}
COMPOUND = "outage+vbroker"


@functools.cache
def chaos_cell(fault: str):
    driver = FleetDriver(n_sites=3, queue_slots=2)
    pool = BrokerPool.build(driver.net, [s.svc_name for s in driver.sites], port=7100)
    ctl = AdmissionController(driver, queue_limit=QUEUE_LIMIT)
    world = ChaosHarness(driver, ctl, pool=pool)
    world.install(FaultSchedule(FAULTS[fault]))
    # ~2x the fabric's service rate (6 slots / ~3.5 s per session)
    arrivals = PoissonArrivals(rate=3.4, horizon=12.0, seed=11,
                               duration=2.0, cadence=0.5, participants=1)
    report = ctl.run(arrivals, until=180.0)
    return report, world.verdict(report)


@row("CHAOS", "3 sites × 2 slots, queue bound 12; Poisson λ = 3.4 per s (2× load) "
     "over 12 s, seed 11; one fault schedule per cell",
     "sessions completed ÷ the baseline's, and sessions recovered, per fault cell",
     "every cell: 0 invariant violations, every session terminal, ≥ 70 % of the "
     "baseline's completions; a site-outage rerun is byte-identical",
     "goodput", "recovered")
def chaos():
    cells = {name: chaos_cell(name) for name in FAULTS}
    base = cells["baseline"][0].completed
    for name, (report, verdict) in cells.items():
        assert verdict["invariant_violations"] == 0, (name, verdict["violations"])
        assert report.completed + report.failed == report.n_sessions, name
        assert report.completed >= 0.7 * base, name
    assert _dump(*chaos_cell.__wrapped__("site-outage")) == _dump(*cells["site-outage"])
    completed = {name: report.completed for name, (report, _) in cells.items()}
    recovery = {name: verdict["recovery"] for name, (_, verdict) in cells.items()}
    return {
        "completed": completed,
        "goodput": {name: n / base for name, n in completed.items()},
        "impacted": {name: rec["impacted"] for name, rec in recovery.items()},
        "recovered": {name: rec["recovered"] for name, rec in recovery.items()},
        "abandoned": {name: rec["abandoned"] for name, rec in recovery.items()},
        "recovery_latency_mean_s": {
            name: rec["recovery_latency_s"]["mean"] for name, rec in recovery.items()
        },
    }


@row("CHAOS-COMPOUND", "the CHAOS world; site 0 down at t = 5 for 20 s, vbroker 1 "
     "crashes at t = 6",
     "sessions impacted and recovered; vbroker failovers; fresh load rejected",
     "≥ 2 impacted, ≥ 90 % recovered via migrate/retry, ≤ 10 % abandoned; "
     "failovers > 0; fresh load still rejected, depth ≤ 12; a rerun is "
     "byte-identical; report and verdict equal tests/golden/chaos_outage_vbroker.json "
     "on every environment",
     "impacted", "recovered", "broker_failovers", "rejected")
def chaos_compound():
    report, verdict = chaos_cell(COMPOUND)
    rec = verdict["recovery"]
    assert verdict["invariant_violations"] == 0, verdict["violations"]
    assert rec["impacted"] >= 2
    assert rec["recovered"] / rec["impacted"] >= 0.9, rec
    via = rec["recovered_via"]["retry"] + rec["recovered_via"]["migrate"]
    assert via / rec["impacted"] >= 0.9, rec
    assert rec["abandoned"] <= rec["impacted"] * 0.1
    assert rec["broker_failovers"] > 0
    assert report.queue.rejected > 0
    assert report.queue.depth_max <= QUEUE_LIMIT
    golden = json.loads((HERE / "golden" / "chaos_outage_vbroker.json").read_text())
    assert report.to_dict() == golden["report"]
    assert verdict == golden["verdict"]
    assert _dump(*chaos_cell.__wrapped__(COMPOUND)) == _dump(report, verdict)
    return {
        "impacted": rec["impacted"],
        "recovered": rec["recovered"],
        "recovered_via": rec["recovered_via"],
        "broker_failovers": rec["broker_failovers"],
        "recovery_latency_s": rec["recovery_latency_s"],
        "rejected": report.queue.rejected,
        "depth_max": report.queue.depth_max,
    }


# -- CAMPAIGN -----------------------------------------------------------------


def smoke_grid(workers: int):
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(pathlib.Path(tmp) / "smoke.jsonl", fsync=False)
        return CampaignRunner(preset("smoke"), store, workers=workers).run()


def matrix_sha256(matrix) -> str:
    return hashlib.sha256(canon(matrix.to_dict()).encode()).hexdigest()


@row("CAMPAIGN", "the smoke preset: 2 scenarios × 2 arrival shapes × 3 fault schedules, "
     "seed 11, on 2 worker processes",
     "cells, sessions, goodput; sha256 of the MatrixReport's canonical JSON",
     "the grid is complete, ≥ 12 cells; 0 violations; ≥ 70 % of sessions "
     "completed; a serial run merges to the same digest (checked when recording)",
     "cells", "sessions", "goodput", "matrix_sha256")
def campaign():
    matrix = smoke_grid(workers=2)
    totals = matrix.totals
    assert matrix.complete
    assert totals.cells >= 12
    assert matrix.violations == 0
    assert totals.completed / totals.sessions >= 0.7
    return {
        "cells": totals.cells,
        "sessions": totals.sessions,
        "completed": totals.completed,
        "goodput": totals.goodput,
        "matrix_sha256": matrix_sha256(matrix),
    }


# -- pinning ------------------------------------------------------------------


def _group(group: str) -> list:
    return [name for name in TABLE.rows if name.startswith(group)]


@pytest.mark.parametrize("name", TABLE.rows)
def test_behaviour_row(name):
    TABLE.check(name)


@pytest.mark.parametrize("group", GROUPS)
def test_design_md_shows_the_golden(group):
    TABLE.check_design(_group(group))


if __name__ == "__main__":
    doc = TABLE.record("figures of every row of tests/test_behaviour_table.py; "
                       "byte-compared on the python and numpy below, skipped elsewhere")
    assert matrix_sha256(smoke_grid(workers=1)) == doc["rows"]["CAMPAIGN"]["matrix_sha256"]
    for group in GROUPS:
        print(TABLE.design_section(doc, _group(group)))
