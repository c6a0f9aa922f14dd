"""Supervised campaigns: crash-, hang- and poison-cell tolerance.

Self-chaos for the experiment engine itself: the fault point in
``run_cell`` (:data:`repro.campaign.runner.FAULT_ENV`) SIGKILLs
workers mid-cell, hangs cells past the supervisor's deadline, and
raises deterministically — and the campaign must still converge.  The
invariant under every fault mode: the supervisor never changes *what* a
cell computes, so every cell that completes is byte-identical to the
serial unfaulted reference, and an unfaulted supervised run reproduces
the reference grid exactly.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    AxisPoint,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
)
from repro.campaign.cli import (
    EXIT_OK,
    EXIT_QUARANTINED,
    main as cli_main,
)
from repro.campaign.runner import FAULT_ENV, run_cell
from repro.errors import CampaignError
from repro.obs import MetricsRegistry


def tiny_campaign(seed=5):
    """4 cheap cells crossing arrivals x faults on a 2-site fabric."""
    return CampaignSpec(
        name="tiny",
        seed=seed,
        base={"n_sites": 2, "queue_slots": 2, "queue_limit": 8,
              "horizon": 3.0, "until": 40.0},
        scenarios=[AxisPoint("paper", {
            "suite": "paper", "duration": 1.0, "cadence": 0.5,
            "participants": 1,
        })],
        arrivals=[
            AxisPoint("trace", {"kind": "trace",
                                "instants": [0.0, 0.4, 1.1, 2.0]}),
            AxisPoint("poisson", {"kind": "poisson", "rate": 1.5}),
        ],
        faults=[
            AxisPoint("baseline"),
            AxisPoint("crash", {"faults": [
                {"kind": "container-crash", "at": 1.2, "site": 0,
                 "duration": 2.0},
            ]}),
        ],
        policies=[AxisPoint("ll", {"placement": "least-loaded"})],
    )


CELL_IDS = [c.cell_id for c in tiny_campaign().cells()]


def strip_perf(records):
    """The deterministic portion of cell records, keyed by cell id."""
    return {
        rec["cell_id"]: {k: v for k, v in rec.items() if k != "perf"}
        for rec in records
    }


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The serial, unsupervised, unfaulted run every mode must match."""
    store = ResultStore(tmp_path_factory.mktemp("ref") / "ref.jsonl")
    runner = CampaignRunner(tiny_campaign(), store, workers=1)
    matrix = runner.run()
    assert not runner.supervise
    return store, matrix


@pytest.fixture
def fault_env(tmp_path, monkeypatch):
    """Install a fault spec for the cells of this test's campaign.

    Spawn workers inherit the parent's environment, so setting the env
    var here reaches ``run_cell`` in every worker process.
    """

    def install(cells: dict) -> None:
        state = tmp_path / "fault-state"
        state.mkdir(exist_ok=True)
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(
            {"cells": cells, "state_dir": str(state)}
        ))
        monkeypatch.setenv(FAULT_ENV, str(path))

    return install


def test_supervised_unfaulted_matches_serial(reference, tmp_path):
    ref_store, ref_matrix = reference
    store = ResultStore(tmp_path / "sup.jsonl")
    runner = CampaignRunner(
        tiny_campaign(), store, workers=2,
        max_cell_seconds=60.0, max_cell_retries=2,
    )
    assert runner.supervise
    matrix = runner.run()
    assert runner.stats["completed"] == 4
    assert runner.stats["worker_restarts"] == 0
    assert runner.stats["quarantined"] == 0
    assert dumps(strip_perf(store.cell_records())) == \
        dumps(strip_perf(ref_store.cell_records()))
    assert dumps(matrix.to_dict()) == dumps(ref_matrix.to_dict())
    assert matrix.render(per_cell=True) == ref_matrix.render(per_cell=True)


def test_sigkill_mid_cell_is_retried_to_the_same_grid(
    reference, tmp_path, fault_env
):
    ref_store, ref_matrix = reference
    victim = CELL_IDS[1]
    fault_env({victim: {"action": "kill", "times": 1}})
    metrics = MetricsRegistry()
    store = ResultStore(tmp_path / "kill.jsonl")
    runner = CampaignRunner(
        tiny_campaign(), store, workers=2,
        max_cell_seconds=60.0, max_cell_retries=2, metrics=metrics,
    )
    matrix = runner.run()
    # The campaign survived the murdered worker and converged to the
    # byte-identical unfaulted grid.
    assert runner.stats["worker_restarts"] == 1
    assert runner.stats["cell_retries"] == 1
    assert runner.stats["quarantined"] == 0
    assert dumps(strip_perf(store.cell_records())) == \
        dumps(strip_perf(ref_store.cell_records()))
    assert dumps(matrix.to_dict()) == dumps(ref_matrix.to_dict())
    assert metrics.get("campaign_worker_restarts_total").series.get((), 0.0) == 1
    assert metrics.get("campaign_cell_retries_total").series.get((), 0.0) == 1
    assert metrics.get("campaign_cells_quarantined_total").series.get((), 0.0) == 0
    assert metrics.get("campaign_cells_inflight").series.get((), 0.0) == 0


def test_hung_cell_is_killed_quarantined_and_skipped_on_resume(
    reference, tmp_path, fault_env, monkeypatch
):
    ref_store, ref_matrix = reference
    victim = CELL_IDS[2]
    fault_env({victim: {"action": "hang", "times": -1, "seconds": 60.0}})
    store_path = tmp_path / "hang.jsonl"
    runner = CampaignRunner(
        tiny_campaign(), ResultStore(store_path), workers=2,
        max_cell_seconds=2.0, max_cell_retries=1, retry_backoff=0.01,
    )
    matrix = runner.run()
    # Both attempts hit the deadline; the cell is quarantined, the
    # other three completed byte-identically.
    assert runner.stats["quarantined"] == 1
    assert runner.stats["worker_restarts"] == 2
    store = ResultStore(store_path)
    assert store.quarantined_ids() == {victim}
    [q] = store.quarantine_records()
    assert q["reason"] == "timeout" and q["attempts"] == 2
    assert [f["reason"] for f in q["failures"]] == ["timeout", "timeout"]
    ref_cells = strip_perf(ref_store.cell_records())
    assert strip_perf(store.cell_records()) == {
        cid: rec for cid, rec in ref_cells.items() if cid != victim
    }
    assert not matrix.complete and matrix.holes == 1
    assert matrix.quarantined[0]["cell_id"] == victim
    assert "quarantined cell(s)" in matrix.render()
    assert matrix.to_dict()["quarantined"][0]["reason"] == "timeout"

    # Resume skips the poison cell even with the fault still armed:
    # nothing re-executes, the quarantine round-trips through the store.
    resumed = CampaignRunner(
        tiny_campaign(), ResultStore(store_path), workers=2,
        max_cell_seconds=2.0, max_cell_retries=1,
    )
    matrix2 = resumed.run()
    assert resumed.executed == []
    assert resumed.stats["worker_restarts"] == 0
    assert dumps(matrix2.to_dict()) == dumps(matrix.to_dict())

    # The dashboard names the hole.
    from repro.campaign.dashboard import render_html
    page = render_html(matrix)
    assert "grid holes" in page and "quarantined" in page


def test_poison_raise_quarantines_with_error_detail(tmp_path, fault_env):
    victim = CELL_IDS[0]
    fault_env({victim: {"action": "raise", "times": -1}})
    store = ResultStore(tmp_path / "poison.jsonl")
    runner = CampaignRunner(
        tiny_campaign(), store, workers=1, supervise=True,
        max_cell_retries=1, retry_backoff=0.01,
    )
    matrix = runner.run()
    # The worker survives a raising cell — no respawn, two attempts.
    assert runner.stats["worker_restarts"] == 0
    assert runner.stats["quarantined"] == 1
    [q] = store.quarantine_records()
    assert q["reason"] == "error" and q["attempts"] == 2
    assert "injected fault" in q["failures"][-1]["detail"]["message"]
    assert q["failures"][-1]["detail"]["error"] == "RuntimeError"
    assert matrix.holes == 1 and len(store.cell_records()) == 3


@pytest.mark.parametrize("entry", [
    {"action": "explode", "times": 1},
    {"times": 1},
    {"action": "raise", "times": "two"},
], ids=["unknown-action", "no-action", "times-not-int"])
def test_malformed_fault_file_is_refused_before_any_marker(entry, fault_env, tmp_path):
    fault_env({CELL_IDS[0]: entry})
    with pytest.raises(CampaignError, match=FAULT_ENV):
        run_cell(tiny_campaign().cells()[0])
    assert list((tmp_path / "fault-state").iterdir()) == []


def test_transient_raise_is_retried_to_success(
    reference, tmp_path, fault_env
):
    ref_store, ref_matrix = reference
    victim = CELL_IDS[3]
    fault_env({victim: {"action": "raise", "times": 2}})
    store = ResultStore(tmp_path / "flaky.jsonl")
    runner = CampaignRunner(
        tiny_campaign(), store, workers=2,
        max_cell_retries=2, retry_backoff=0.01,
    )
    matrix = runner.run()
    assert runner.stats["cell_retries"] == 2
    assert runner.stats["quarantined"] == 0
    assert dumps(strip_perf(store.cell_records())) == \
        dumps(strip_perf(ref_store.cell_records()))
    assert dumps(matrix.to_dict()) == dumps(ref_matrix.to_dict())


def test_programmatic_drain_flushes_and_resumes(reference, tmp_path):
    ref_store, ref_matrix = reference
    store_path = tmp_path / "drain.jsonl"
    runner = CampaignRunner(
        tiny_campaign(), ResultStore(store_path), workers=2,
    )

    def stop_after_first(record):
        runner.supervisor.request_drain()

    matrix = runner.run(progress=stop_after_first)
    done = ResultStore(store_path)
    # At least the record that triggered the drain was flushed; the
    # grid is (very likely) incomplete but the store is consistent.
    assert 1 <= len(done) <= 4
    assert done.dropped_lines == 0
    assert matrix.totals.cells == len(done)
    # Resume completes the remainder to the byte-identical grid.
    resumed = CampaignRunner(tiny_campaign(), ResultStore(store_path),
                             workers=1)
    matrix2 = resumed.run()
    assert dumps(matrix2.to_dict()) == dumps(ref_matrix.to_dict())


def test_cli_supervised_exit_codes_and_summary(
    reference, tmp_path, fault_env, capsys
):
    victim = CELL_IDS[1]
    fault_env({victim: {"action": "raise", "times": -1}})
    spec_path = tmp_path / "tiny.json"
    spec_path.write_text(json.dumps(tiny_campaign().to_dict()))
    store = tmp_path / "cli.jsonl"
    code = cli_main([
        "run", "--spec", str(spec_path), "--store", str(store),
        "--workers", "2", "--max-cell-retries", "1",
        "--fail-on-violations",
    ])
    out = capsys.readouterr()
    assert code == EXIT_QUARANTINED
    assert "QUARANTINED" in out.out
    assert "supervisor:" in out.out
    assert "quarantined cell(s)" in out.err
    # resume still refuses to call the grid healthy (the quarantine
    # persists) but re-executes nothing.
    assert cli_main([
        "resume", "--store", str(store), "--fail-on-violations",
    ]) == EXIT_QUARANTINED
    out = capsys.readouterr().out
    assert "1 quarantined (skipped)" in out
    assert "0 to run" in out
    # without the gate the exit is clean even with the hole reported.
    assert cli_main(["resume", "--store", str(store)]) == EXIT_OK


def test_sigterm_drain_in_subprocess_leaves_resumable_store(
    reference, tmp_path
):
    """End-to-end: SIGTERM a running supervised campaign; the store is
    flushed and consistent, the exit code is the drain code, and a
    resume converges to the byte-identical reference grid."""
    ref_store, ref_matrix = reference
    spec_path = tmp_path / "tiny.json"
    spec_path.write_text(json.dumps(tiny_campaign().to_dict()))
    store_path = tmp_path / "sig.jsonl"
    state = tmp_path / "fault-state"
    state.mkdir()
    faults = tmp_path / "faults.json"
    # One cell hangs (no timeout configured) so the campaign is still
    # running when the SIGTERM lands.
    faults.write_text(json.dumps({
        "cells": {CELL_IDS[0]: {"action": "hang", "times": -1,
                                "seconds": 30.0}},
        "state_dir": str(state),
    }))
    env = dict(os.environ, PYTHONPATH="src", **{FAULT_ENV: str(faults)})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.campaign", "run",
         "--spec", str(spec_path), "--store", str(store_path),
         "--workers", "2"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    # Give the campaign time to start and finish a few cells.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if store_path.exists() and len(ResultStore(store_path)) >= 1:
            break
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=30.0)
    assert proc.returncode == 130, (stdout, stderr)
    assert "store is consistent" in stderr
    # The store survived the drain: header intact, no torn lines, and
    # every flushed record byte-identical to the reference.
    store = ResultStore(store_path)
    assert store.dropped_lines == 0
    ref_cells = strip_perf(ref_store.cell_records())
    for cid, rec in strip_perf(store.cell_records()).items():
        assert rec == ref_cells[cid]
    # Resume (fault cleared) finishes the grid exactly.
    resumed = CampaignRunner(tiny_campaign(), ResultStore(store_path),
                             workers=1)
    matrix = resumed.run()
    assert dumps(matrix.to_dict()) == dumps(ref_matrix.to_dict())
