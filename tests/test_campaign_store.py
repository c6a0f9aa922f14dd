"""The resumable JSONL results store: atomicity, resume, damage modes."""

import json

import pytest

from repro.campaign import AxisPoint, CampaignSpec, ResultStore
from repro.errors import CampaignError


def tiny_spec(seed=3, name="t"):
    return CampaignSpec(
        name=name, seed=seed,
        scenarios=[AxisPoint("s")], arrivals=[AxisPoint("a")],
        faults=[AxisPoint("f")], policies=[AxisPoint("p")],
    )


def cell_record(cell_id, completed=1):
    return {
        "kind": "cell", "cell_id": cell_id, "index": 0, "seed": 1,
        "coords": {"scenario": "s", "arrival": "a", "faults": "f",
                   "policy": "p"},
        "report": {"sessions": 1, "completed": completed, "failed": 0,
                   "ops": 2, "timeouts": 0, "errors": 0,
                   "steer_p90_ms": 1.0},
        "verdict": {"invariant_violations": 0, "faults_applied": 0,
                    "recovery": {"recovered": 0, "impacted": 0}},
        "mergeable": {"steer": {"stats": {"n": 0, "mean": 0.0, "m2": 0.0,
                                          "min": None, "max": None},
                                "sample": []}},
        "perf": {"wall_seconds": 0.1},
    }


def test_header_then_cells_atomic_no_tmp_left(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.ensure_header(tiny_spec())
    store.append(cell_record("s/a/f/p"))
    assert not list(tmp_path.glob("*.tmp"))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    head = json.loads(lines[0])
    assert head["kind"] == "header" and head["campaign"] == "t"
    assert json.loads(lines[1])["cell_id"] == "s/a/f/p"
    # Reload sees the same state.
    again = ResultStore(path)
    assert {rec["cell_id"] for rec in again.cell_records()} == {"s/a/f/p"}
    assert again.spec().to_dict() == tiny_spec().to_dict()


def test_append_requires_header_and_refuses_duplicates(tmp_path):
    store = ResultStore(tmp_path / "c.jsonl")
    with pytest.raises(CampaignError):
        store.append(cell_record("x"))
    store.ensure_header(tiny_spec())
    store.append(cell_record("x"))
    with pytest.raises(CampaignError):
        store.append(cell_record("x"))
    with pytest.raises(CampaignError):
        store.append({"kind": "cell"})  # no cell_id


def test_torn_trailing_line_is_dropped_and_rerunnable(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.ensure_header(tiny_spec())
    store.append(cell_record("one"))
    store.append(cell_record("two"))
    # Simulate a kill mid-write by an interrupted (non-atomic) writer.
    path.write_text(path.read_text() + '{"kind": "cell", "cell_id": "thr')
    survivor = ResultStore(path)
    assert survivor.dropped_lines == 1
    assert {rec["cell_id"] for rec in survivor.cell_records()} == {"one", "two"}
    # The store stays writable: the torn cell simply reruns.
    survivor.append(cell_record("three"))
    assert {rec["cell_id"] for rec in ResultStore(path).cell_records()} == {"one", "two", "three"}


def test_corrupt_interior_line_is_refused(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.ensure_header(tiny_spec())
    store.append(cell_record("one"))
    store.append(cell_record("two"))
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:10]  # damage a *non*-trailing record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CampaignError, match="non-trailing"):
        ResultStore(path)


def test_header_mismatch_is_refused(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.ensure_header(tiny_spec(seed=3))
    with pytest.raises(CampaignError, match="refusing to mix"):
        ResultStore(path).ensure_header(tiny_spec(seed=4))
    with pytest.raises(CampaignError, match="refusing to mix"):
        ResultStore(path).ensure_header(tiny_spec(name="other"))
    # Matching spec resumes fine.
    ResultStore(path).ensure_header(tiny_spec(seed=3))


def test_headerless_file_is_refused(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(cell_record("x")) + "\n")
    with pytest.raises(CampaignError, match="header"):
        ResultStore(path)


def quarantine_record(cell_id):
    return {
        "kind": "quarantine", "cell_id": cell_id, "index": 0, "seed": 1,
        "coords": {"scenario": "s", "arrival": "a", "faults": "f",
                   "policy": "p"},
        "reason": "timeout", "attempts": 3,
        "failures": [{"attempt": i, "reason": "timeout",
                      "detail": {"max_cell_seconds": 1.0}}
                     for i in (1, 2, 3)],
    }


def test_quarantine_records_round_trip_and_settle(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.ensure_header(tiny_spec())
    store.append(cell_record("good"))
    store.append_quarantine(quarantine_record("poison"))
    assert {rec["cell_id"] for rec in store.cell_records()} == {"good"}
    assert store.quarantined_ids() == {"poison"}
    assert store.settled_ids() == {"good", "poison"}
    assert len(store) == 1  # quarantines are not results
    # Round trip through disk.
    again = ResultStore(path)
    assert again.settled_ids() == {"good", "poison"}
    [q] = again.quarantine_records()
    assert q["reason"] == "timeout" and len(q["failures"]) == 3
    # A quarantined cell can never be double-settled, in either kind.
    with pytest.raises(CampaignError, match="duplicate"):
        again.append(cell_record("poison"))
    with pytest.raises(CampaignError, match="duplicate"):
        again.append_quarantine(quarantine_record("good"))
    # Kind mismatches are refused.
    with pytest.raises(CampaignError, match="kind"):
        again.append(quarantine_record("other"))
    with pytest.raises(CampaignError, match="kind"):
        again.append_quarantine(cell_record("other"))


def test_unknown_record_kind_is_refused_on_load(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.ensure_header(tiny_spec())
    path.write_text(
        path.read_text()
        + json.dumps({"kind": "mystery", "cell_id": "x"}) + "\n"
    )
    with pytest.raises(CampaignError, match="neither a"):
        ResultStore(path)


def test_fsync_escape_hatch_writes_identical_bytes(tmp_path):
    durable = ResultStore(tmp_path / "durable.jsonl")
    fast = ResultStore(tmp_path / "fast.jsonl", fsync=False)
    assert durable.fsync and not fast.fsync
    for store in (durable, fast):
        store.ensure_header(tiny_spec())
        store.append(cell_record("one"))
        store.append_quarantine(quarantine_record("two"))
    assert (tmp_path / "durable.jsonl").read_text() == \
        (tmp_path / "fast.jsonl").read_text()
    assert not list(tmp_path.glob("*.tmp"))
