"""Campaign determinism: cells are pure functions of their CellSpec.

The properties the experiment engine stands on:

* the same campaign seed produces byte-identical cell records and a
  byte-identical MatrixReport whether cells run inline or across N
  worker processes (wall-clock vitals under ``perf`` excepted);
* resume after a kill re-executes exactly the incomplete cells, and the
  resumed store equals the uninterrupted one.
"""

import json

import pytest

from repro.campaign import (
    AxisPoint,
    CampaignRunner,
    CampaignSpec,
    MatrixReport,
    ResultStore,
    run_cell,
)
from repro.campaign.cli import main as cli_main


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
    """One serial run of the tiny campaign, shared by the tests."""
    store = ResultStore(tmp_path_factory.mktemp("ref") / "ref.jsonl")
    runner = CampaignRunner(tiny_campaign(), store, workers=1)
    matrix = runner.run()
    return store, matrix


def test_cells_execute_and_aggregate(reference):
    store, matrix = reference
    assert len(store) == 4
    assert matrix.complete
    assert matrix.totals.cells == 4
    assert matrix.totals.sessions == sum(
        row["sessions"] for row in matrix.cells
    )
    assert matrix.totals.sessions > 0
    assert matrix.totals.completed > 0
    assert matrix.violations == 0
    # Marginals partition the grid: each fault point covers 2 cells.
    assert matrix.marginals["faults"]["baseline"].cells == 2
    assert matrix.marginals["faults"]["crash"].cells == 2
    # The crash cells actually saw their fault.
    assert matrix.marginals["faults"]["crash"].faults_applied == 2
    assert matrix.pareto()


def test_single_cell_rerun_is_byte_identical(reference):
    store, _ = reference
    cell = tiny_campaign().cells()[2]
    again = run_cell(cell)
    [original] = [r for r in store.cell_records()
                  if r["cell_id"] == cell.cell_id]
    assert dumps(strip_perf([again])) == dumps(strip_perf([original]))


def test_multiprocess_run_matches_serial_byte_for_byte(reference, tmp_path):
    ref_store, ref_matrix = reference
    store = ResultStore(tmp_path / "mp.jsonl")
    runner = CampaignRunner(tiny_campaign(), store, workers=2)
    matrix = runner.run()
    assert len(runner.executed) == 4
    assert dumps(strip_perf(store.cell_records())) == \
        dumps(strip_perf(ref_store.cell_records()))
    assert dumps(matrix.to_dict()) == dumps(ref_matrix.to_dict())
    assert matrix.render(per_cell=True) == ref_matrix.render(per_cell=True)


def test_resume_runs_exactly_the_incomplete_cells(reference, tmp_path):
    ref_store, ref_matrix = reference
    ref_lines = ref_store.path.read_text().splitlines()
    path = tmp_path / "killed.jsonl"
    # A killed run: header + 2 completed cells + one torn record.
    path.write_text("\n".join(ref_lines[:3]) + "\n" + ref_lines[3][:25])
    store = ResultStore(path)
    assert store.dropped_lines == 1
    done = {rec["cell_id"] for rec in store.cell_records()}
    assert len(done) == 2
    runner = CampaignRunner(tiny_campaign(), store, workers=1)
    matrix = runner.run()
    # Exactly the two missing cells re-executed, nothing else.
    all_ids = {c.cell_id for c in tiny_campaign().cells()}
    assert set(runner.executed) == all_ids - done
    assert dumps(strip_perf(store.cell_records())) == \
        dumps(strip_perf(ref_store.cell_records()))
    assert dumps(matrix.to_dict()) == dumps(ref_matrix.to_dict())
    # A second resume has nothing left to do and changes nothing.
    again = CampaignRunner(tiny_campaign(), store, workers=1)
    matrix2 = again.run()
    assert again.executed == []
    assert dumps(matrix2.to_dict()) == dumps(matrix.to_dict())


def test_resume_refuses_a_different_campaign(reference, tmp_path):
    ref_store, _ = reference
    path = tmp_path / "other.jsonl"
    path.write_text(ref_store.path.read_text())
    from repro.errors import CampaignError
    with pytest.raises(CampaignError, match="refusing to mix"):
        CampaignRunner(tiny_campaign(seed=6), ResultStore(path)).run()


def test_matrix_diff_flags_outcome_drift(reference):
    _, matrix = reference
    same = matrix.diff(matrix)
    assert same["identical"] == 4
    assert not same["changed"] and not same["only_self"]
    # Perturb one cell's outcome and diff again.
    other = MatrixReport(
        campaign=matrix.campaign, seed=matrix.seed,
        expected_cells=matrix.expected_cells,
        cells=[dict(row) for row in matrix.cells],
        totals=matrix.totals, marginals=matrix.marginals,
    )
    other.cells[0] = dict(other.cells[0], completed=0, violations=3)
    drift = matrix.diff(other)
    assert len(drift["changed"]) == 1
    assert set(drift["changed"][0]["delta"]) == {"completed", "violations"}


def test_cli_run_report_diff_round_trip(reference, tmp_path, capsys):
    spec_path = tmp_path / "tiny.json"
    spec_path.write_text(json.dumps(tiny_campaign().to_dict()))
    store = tmp_path / "cli.jsonl"
    bench = tmp_path / "BENCH_campaign_tiny.json"
    assert cli_main([
        "run", "--spec", str(spec_path), "--store", str(store),
        "--workers", "1", "--fail-on-violations", "--per-cell",
        "--bench-out", str(bench),
    ]) == 0
    out = capsys.readouterr().out
    assert "4/4 cells" in out
    doc = json.loads(bench.read_text())
    assert doc["bench"] == "campaign_tiny"
    assert doc["results"]["complete"] is True
    assert cli_main(["report", "--store", str(store), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    ref_matrix = reference[1]
    assert dumps(report) == dumps(json.loads(dumps(ref_matrix.to_dict())))
    # diff against the reference store: identical grids exit 0.
    assert cli_main([
        "diff", str(store), str(reference[0].path),
    ]) == 0
    # resume on a complete store is a no-op exit 0.
    assert cli_main(["resume", "--store", str(store)]) == 0
    # unknown preset is a clean CampaignError exit, not a traceback.
    assert cli_main(["run", "--preset", "smoke", "--store", str(store),
                     ]) == 2


def test_html_dashboard_renders_and_is_deterministic(reference, tmp_path,
                                                     capsys):
    from repro.campaign.dashboard import render_html

    store, matrix = reference
    page = render_html(matrix)
    assert page.startswith("<!DOCTYPE html>")
    assert "<script" not in page  # fully static artifact
    assert "<svg" in page
    for cell in matrix.cells:
        assert cell["cell_id"] in page
    assert render_html(matrix) == page  # byte-stable

    out_path = tmp_path / "dash.html"
    assert cli_main([
        "report", "--store", str(store.path), "--html", str(out_path),
    ]) == 0
    assert "dashboard written" in capsys.readouterr().out
    assert out_path.read_text() == page
