"""Trace capture and load: atomicity, validation, campaign lifting."""

import json

import pytest

from repro.campaign.runner import DEFAULT_BASE, FABRIC_DEFAULTS, cell_config
from repro.errors import LiveError
from repro.fleet.spec import ScenarioSpec
from repro.campaign.axes import build_policy
from repro.live.server import DEFAULT_CONFIG, LiveServer
from repro.live.trace import (
    TRACE_SCHEMA,
    TraceRecorder,
    load_trace,
    replay_campaign,
    trace_campaign,
)
from repro.load import RecordedArrivals


def _spec(name, **kw):
    return ScenarioSpec(name=name, sim="building", participants=1, **kw)


def _record(path, n=3, config=None):
    rec = TraceRecorder(path, config or {"n_sites": 2, "seed": 7})
    for i in range(n):
        rec.record_arrival(
            _spec(f"s{i}", seed=i), sim=float(i), wall=100.0 + i, cls="batch", outcome="queued"
        )
    return rec


def test_spec_fields_roundtrip_exactly(tmp_path):
    spec = _spec("a", seed=9, duration=3.0, sim_args={"grid": 16})
    path = tmp_path / "t.jsonl"
    TraceRecorder(path, {}).record_arrival(spec, sim=0.0, wall=1.0, cls="batch", outcome="queued")
    ((_, again),) = load_trace(path).entries()
    assert again == spec
    assert again.steps == spec.steps  # explicit, not re-derived
    header, record = [json.loads(line) for line in path.read_text().splitlines()]

    def entries(spec_doc):
        lines = (header, {**record, "spec": spec_doc})
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return load_trace(path).entries()

    with pytest.raises(LiveError, match="unknown fields"):
        entries({**record["spec"], "bogus": 1})
    with pytest.raises(LiveError, match="missing required field 'name'"):
        entries({})  # no name: the spec cannot be rebuilt


def test_recorder_writes_header_immediately_and_appends(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = TraceRecorder(path, {"seed": 1})
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    head = json.loads(lines[0])
    assert head["kind"] == "header" and head["schema"] == TRACE_SCHEMA
    rec.record_arrival(_spec("a"), sim=0.5, wall=1.0, cls="interactive", outcome="queued")
    rec.record_arrival(_spec("b"), sim=1.5, wall=2.0, cls="batch", outcome="rejected")
    rec.record_event("admit", sim=0.6, wall=1.1, name="a", site=0)
    rec.close(sim=9.0, wall=3.0)
    rec.close(sim=99.0, wall=9.0)  # idempotent: second call is a no-op
    records = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [r["kind"] for r in records]
    assert kinds == ["header", "arrival", "arrival", "event", "end"]
    assert [r["index"] for r in records if r["kind"] == "arrival"] == [0, 1]
    assert records[-1]["sim"] == 9.0
    with pytest.raises(LiveError, match="already closed"):
        rec.record_event("late", sim=10.0, wall=4.0)


def test_recorder_rejects_bad_outcome(tmp_path):
    rec = TraceRecorder(tmp_path / "t.jsonl", {})
    with pytest.raises(LiveError, match="queued|rejected"):
        rec.record_arrival(_spec("a"), sim=0.0, wall=0.0, cls="batch", outcome="lost")


def test_load_roundtrip_and_arrival_process(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = _record(path, n=3)
    rec.close(sim=12.0, wall=200.0)
    trace = load_trace(path)
    assert trace.sealed and trace.config["n_sites"] == 2
    assert [s.name for _, s in trace.entries()] == ["s0", "s1", "s2"]
    assert trace.horizon == 12.0
    proc = trace.arrival_process()
    assert isinstance(proc, RecordedArrivals)
    assert list(proc.times()) == [0.0, 1.0, 2.0]


def test_unsealed_trace_horizon_hugs_the_last_arrival(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path, n=2)  # killed server: no end record
    trace = load_trace(path)
    assert not trace.sealed
    assert trace.horizon == pytest.approx(1.0, abs=1e-6)


def test_torn_trailing_line_is_dropped(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path, n=2)
    with path.open("a") as fh:
        fh.write('{"kind": "arrival", "index": 2, "tor')  # kill -9 mid-write
    trace = load_trace(path)
    assert trace.dropped_lines == 1
    assert len(trace.arrivals) == 2


def test_corrupt_interior_line_is_refused(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path, n=2)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LiveError, match="non-trailing"):
        load_trace(path)


def test_load_rejects_structural_damage(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(LiveError, match="empty trace"):
        load_trace(empty)
    with pytest.raises(LiveError, match="cannot read"):
        load_trace(tmp_path / "missing.jsonl")

    noheader = tmp_path / "noheader.jsonl"
    noheader.write_text('{"kind": "arrival", "index": 0}\n')
    with pytest.raises(LiveError, match="header"):
        load_trace(noheader)

    path = tmp_path / "t.jsonl"
    _record(path, n=2)
    records = [json.loads(line) for line in path.read_text().splitlines()]

    def damaged(recs):
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        return path

    with pytest.raises(LiveError, match="out of order"):
        load_trace(damaged(records[:1] + records[1:][::-1]))

    surprise = dict(records[1], kind="surprise")
    with pytest.raises(LiveError, match="unknown trace record kind"):
        load_trace(damaged([records[0], surprise, records[2]]))

    ends = [{"kind": "end", "sim": sim, "wall": sim, "arrivals": 2} for sim in (5.0, 6.0)]
    assert load_trace(damaged(records + ends[:1])).sealed
    with pytest.raises(LiveError, match="duplicate end"):
        load_trace(damaged(records + ends))


def test_empty_trace_has_no_replay_horizon(tmp_path):
    path = tmp_path / "t.jsonl"
    TraceRecorder(path, {}).close(sim=0.0, wall=0.0)
    with pytest.raises(LiveError, match="no arrivals"):
        trace_campaign(path)


def test_trace_campaign_lifts_config_and_horizon(tmp_path):
    path = tmp_path / "incident.jsonl"
    rec = _record(
        path,
        n=3,
        config={
            "n_sites": 4,
            "queue_slots": 1,
            "queue_limit": 3,
            "registry_shards": 2,
            "broker_port": 7100,
            "placement": "p2c",
            "autoscale": None,
            "rate": 5.0,
            "seed": 42,
        },
    )
    rec.close(sim=30.0, wall=300.0)
    spec = trace_campaign(path)
    assert spec.name == "replay-incident"
    assert spec.seed == 42
    assert spec.base["n_sites"] == 4 and spec.base["horizon"] == 30.0
    assert "rate" not in spec.base  # pacing is a live-only knob
    assert spec.n_cells == 1
    (arrival,) = spec.arrivals
    assert arrival.name == "trace:incident"
    assert arrival.params == {"kind": "trace-file", "path": str(path)}
    (policy,) = spec.policies
    assert policy.name == "p2c" and policy.params["placement"] == "p2c"
    assert trace_campaign(path, name="custom").name == "custom"
    # one definition of the fabric: a default-config server's trace lowers
    # to a cell on exactly the fabric an unconfigured campaign cell gets
    _record(path, config=dict(DEFAULT_CONFIG)).close(sim=1.0, wall=1.0)
    config = cell_config(trace_campaign(path).cells()[0])
    assert {k: config[k] for k in FABRIC_DEFAULTS} == {k: DEFAULT_BASE[k] for k in FABRIC_DEFAULTS}


@pytest.mark.parametrize(
    "autoscale, kwargs",
    [({}, {}), (True, {}), ({"max_sites": 5}, {"max_sites": 5}), (None, None), (False, None)],
)
def test_live_and_replay_agree_on_whether_to_autoscale(tmp_path, monkeypatch, autoscale, kwargs):
    # One rule on both sides: any value but None/False autoscales, and
    # {} or True mean the scaler's defaults.
    built = []
    monkeypatch.setattr(
        "repro.live.server.ReactiveAutoscaler", lambda controller, **kw: built.append(kw)
    )
    server = LiveServer(config={"autoscale": autoscale, "rate": None})
    assert built == ([] if kwargs is None else [kwargs])
    cell = replay_campaign(server.config, tmp_path / "t.jsonl").cells()[0]
    assert build_policy(cell.policy, seed=0)[1] == kwargs


def test_a_traced_p2c_server_seeds_placement_as_its_replay_cell(tmp_path):
    # The live server derives its placement seed before the trace exists;
    # replay derives it from the finished trace.  Both must land on one
    # cell id, or p2c places differently live and replayed.
    config = {"placement": "p2c", "seed": 11, "rate": None}
    path = tmp_path / "incident.jsonl"
    server = LiveServer(config=config, trace_path=path)
    server.recorder.record_arrival(_spec("s0"), sim=0.5, wall=1.0, cls="batch", outcome="queued")
    server.recorder.close(sim=1.0, wall=2.0)
    cell = trace_campaign(path).cells()[0]
    replayed, _ = build_policy(cell.policy, seed=cell.subseed("placement"))
    live = server.controller.placement._rng.getstate()
    assert live == replayed._rng.getstate()
    untraced = LiveServer(config=config).controller.placement._rng.getstate()
    assert untraced != live  # the trace's cell id is part of the seed
