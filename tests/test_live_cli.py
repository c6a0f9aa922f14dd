"""``python -m repro.live``: the parser and its handlers, in process."""

import pytest

from repro.live.cli import build_parser, cmd_replay, cmd_serve, cmd_stress, main
from repro.live.client import StressClient
from repro.live.trace import TraceRecorder, load_trace


def test_record_is_serve_with_a_required_trace():
    parser = build_parser()
    serve = parser.parse_args(["serve", "--turbo", "--n-sites", "2"])
    assert serve.func is cmd_serve and serve.trace is None
    record = parser.parse_args(["record", "--trace", "t.jsonl"])
    assert record.func is cmd_serve and record.trace == "t.jsonl"
    with pytest.raises(SystemExit):
        parser.parse_args(["record"])
    assert parser.parse_args(["replay", "t.jsonl"]).func is cmd_replay
    assert parser.parse_args(["stress", "--port", "1"]).func is cmd_stress


def test_record_serves_then_seals_its_trace(tmp_path, capsys):
    path = tmp_path / "idle.jsonl"
    argv = ["record", "--trace", str(path), "--turbo", "--seed", "5", "--duration", "0.05"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"tracing to {path}" in out and "served 0 requests" in out
    trace = load_trace(path)
    assert trace.sealed and trace.arrivals == []
    assert trace.config["seed"] == 5 and trace.config["rate"] is None
    # an idle trace has no horizon to replay to: a clean CLI error, not a crash
    assert main(["replay", str(path)]) == 2
    assert "live error" in capsys.readouterr().err


def test_replay_of_a_trace_with_a_mistyped_config_is_a_clean_error(tmp_path, capsys):
    # ``seed: "x"`` in the header config used to escape as a bare
    # ValueError from int("x"), a traceback and exit 1.
    path = tmp_path / "t.jsonl"
    TraceRecorder(path, config={"seed": "x"}).close(sim=1.0, wall=1.0)
    assert main(["replay", str(path)]) == 2
    assert "header config: seed must be an int" in capsys.readouterr().err


def test_stress_report_quantiles_interpolate_and_an_empty_run_reads_zero():
    client = StressClient("127.0.0.1", 1)
    empty = client.report(1.0)
    assert (empty["latency_p50"], empty["latency_p99"], empty["latency_max"]) == (0.0, 0.0, 0.0)
    client.results = [{"status": 202, "latency": t} for t in (0.4, 0.1, 0.3, 0.2)]
    report = client.report(1.0)
    assert report["latency_p50"] == pytest.approx(0.25)
    assert report["latency_p90"] == pytest.approx(0.37)
    assert report["latency_p99"] == pytest.approx(0.397)
    assert report["latency_max"] == 0.4
