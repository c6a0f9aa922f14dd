"""Adaptive scenario search: determinism, resume, quarantine, export.

The properties under test mirror the grid campaign's contract, lifted
to the search loop:

* the proposal sequence is a pure function of (seed, strategy, space) —
  1 worker and N supervised workers write **byte-identical** archives;
* killing the search mid-generation loses nothing: re-running against
  the half-filled store replays the strategy, skips settled cells and
  converges to the byte-identical final archive;
* quarantined proposals score worst-case, are never re-executed and
  never re-proposed;
* an exported cliff cell is a frozen single-cell grid spec that replays
  byte-identically through the ordinary :class:`CampaignRunner`.
"""

import json
import os
import random
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
    derive_seed,
)
from repro.campaign.cli import EXIT_OK, EXIT_QUARANTINED, main as cli_main
from repro.campaign.runner import FAULT_ENV
from repro.campaign.search import (
    WORST_SCORE,
    Constraint,
    EvolutionaryStrategy,
    Objective,
    SearchArchive,
    SearchRunner,
    SearchSpec,
    default_archive_path,
    make_strategy,
)
from repro.campaign.space import (
    ParamRange,
    ParamSpace,
    assignment_digest,
    validate_path,
)
from repro.errors import CampaignError
from repro.obs import MetricsRegistry


def tiny_space():
    return ParamSpace(
        name="tiny-search",
        scenario=AxisPoint("paper", {
            "suite": "paper", "duration": 1.0, "cadence": 0.5,
            "participants": 1,
        }),
        arrival=AxisPoint("poisson", {"kind": "poisson", "rate": 1.0}),
        faults=AxisPoint("random", {"random": {}}),
        policy=AxisPoint("ll", {"placement": "least-loaded"}),
        ranges=[
            ParamRange("arrival.rate", 0.5, 3.0),
            ParamRange("faults.random.n_faults", 1, 3, kind="int"),
        ],
        base={"n_sites": 2, "queue_slots": 2, "queue_limit": 8,
              "horizon": 3.0, "until": 40.0},
    )


def tiny_search(seed=13):
    """2 generations x 2: 4 cheap evaluations, evolutionary strategy."""
    return SearchSpec(
        name="tiny-search",
        space=tiny_space(),
        strategy=EvolutionaryStrategy(elites=2),
        objective=Objective(metric="goodput", goal="min"),
        generations=2,
        population=2,
        seed=seed,
    )


def strip_perf(records):
    return {
        rec["cell_id"]: {k: v for k, v in rec.items() if k != "perf"}
        for rec in records
    }


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The serial, unsupervised search every other mode must match."""
    store = ResultStore(tmp_path_factory.mktemp("ref") / "ref.jsonl")
    runner = SearchRunner(tiny_search(), store, workers=1)
    archive = runner.run()
    assert not runner.supervise
    assert len(archive.evaluations) == 4
    return store, archive, runner.archive_path.read_text()


# -- the space ----------------------------------------------------------------


def test_param_paths_are_validated():
    assert validate_path("faults.random.window") == \
        ("faults", "random", "window")
    for bad in ("rate", "arrival.", "nope.rate", "faults.window",
                "faults.explicit.window", "arrival.rate.extra", ""):
        with pytest.raises(CampaignError):
            validate_path(bad)
    with pytest.raises(CampaignError):
        ParamRange("arrival.rate", 2.0, 1.0)
    with pytest.raises(CampaignError):
        ParamRange("arrival.rate", 1.0, 2.0, kind="str")
    with pytest.raises(CampaignError):
        ParamRange("arrival.rate", 0.0, 2.0, log=True)


def test_int_ranges_stay_integers_everywhere():
    r = ParamRange("faults.random.n_faults", 1, 5, kind="int")
    rng = random.Random(3)
    for _ in range(20):
        v = r.sample(rng)
        assert isinstance(v, int) and 1 <= v <= 5
        m = r.mutate(v, rng, 0.3)
        assert isinstance(m, int) and 1 <= m <= 5
    assert r.coerce(3.7) == 4
    assert r.coerce(99.0) == 5


def test_clamp_coerces_declared_and_passes_unknown_paths():
    space = tiny_space()
    out = space.clamp({
        "arrival.rate": 99.0,
        "faults.random.n_faults": 2.4,
        "base.horizon": 8.0,  # not a declared range: passes through
    })
    assert out["arrival.rate"] == 3.0
    assert out["faults.random.n_faults"] == 2
    assert out["base.horizon"] == 8.0
    with pytest.raises(CampaignError):
        space.clamp({"arrival.rate": True})
    with pytest.raises(CampaignError):
        space.clamp({"bogus.rate": 1.0})


def test_lowering_is_a_pure_function_of_the_assignment():
    space = tiny_space()
    assignment = {"arrival.rate": 2.25, "faults.random.n_faults": 2}
    digest = assignment_digest(space.clamp(assignment))
    cell = space.lower(assignment, seed=13)
    # every coordinate carries the digest suffix, so cell id and seed
    # are pure functions of the assignment
    assert cell.cell_id == (
        f"paper@{digest}/poisson@{digest}/random@{digest}/ll@{digest}"
    )
    assert cell.seed == derive_seed(13, cell.cell_id)
    assert cell.arrival.params["rate"] == 2.25
    assert cell.faults.params["random"]["n_faults"] == 2
    # the campaign name does not feed the seed: exported fragments may
    # rename freely and still replay identically
    renamed = space.lower(assignment, seed=13, name="export-1")
    assert renamed.cell_id == cell.cell_id and renamed.seed == cell.seed
    # base.* rides the policy point and reaches the cell's base config
    cell2 = space.lower({**assignment, "base.horizon": 9.0}, seed=13)
    assert cell2.base["horizon"] == 9.0
    assert cell2.cell_id != cell.cell_id and cell2.seed != cell.seed


def test_space_round_trip_and_version_gate():
    space = tiny_space()
    clone = ParamSpace.from_dict(space.to_dict())
    assert clone.to_dict() == space.to_dict()
    doc = space.to_dict()
    doc["version"] = 99
    with pytest.raises(CampaignError, match="version"):
        ParamSpace.from_dict(doc)


# -- objective + strategies ---------------------------------------------------


def test_objective_scores_and_constraints():
    obj = Objective(metric="goodput", goal="min",
                    constraints=(Constraint("sessions", lo=4.0, weight=2.0),))
    row = {"goodput": 0.5, "sessions": 1}
    assert obj.score(row) == pytest.approx(0.5 + 2.0 * 3.0)
    assert obj.score({"goodput": 0.5, "sessions": 10}) == pytest.approx(0.5)
    assert Objective(metric="goodput", goal="max").score(
        {"goodput": 0.5}) == pytest.approx(-0.5)
    assert obj.score({"goodput": float("nan"), "sessions": 9}) == WORST_SCORE
    with pytest.raises(CampaignError):
        obj.score({"sessions": 9})
    with pytest.raises(CampaignError):
        Objective(goal="sideways")
    assert Objective.from_dict(obj.to_dict()).to_dict() == obj.to_dict()


def test_strategies_are_deterministic_pure_functions():
    space = tiny_space()
    strategy = EvolutionaryStrategy(elites=2)
    a = strategy.propose(space, (), random.Random(99), 4)
    b = strategy.propose(space, (), random.Random(99), 4)
    assert a == b and len(a) == 4
    assert make_strategy(strategy.to_dict()).to_dict() == strategy.to_dict()
    # any kind but evolutionary is unknown
    for kind in ("gradient-descent", "random", "halving"):
        with pytest.raises(CampaignError):
            make_strategy({"kind": kind})
    with pytest.raises(CampaignError):
        make_strategy({"kind": "evolutionary", "bogus": 1})


def test_quarantined_assignments_are_never_reproposed():
    from repro.campaign.search import Evaluation

    # A 2-point space: with one point quarantined, every proposal must
    # land on the other one (the resample loop has nowhere else to go).
    space = ParamSpace(
        name="binary",
        scenario=AxisPoint("paper", {"suite": "paper"}),
        arrival=AxisPoint("poisson", {"kind": "poisson"}),
        faults=AxisPoint("random", {"random": {}}),
        policy=AxisPoint("ll", {"placement": "least-loaded"}),
        ranges=[ParamRange("faults.random.n_faults", 1, 2, kind="int")],
    )
    poison = {"faults.random.n_faults": 1}
    history = (Evaluation(generation=0, assignment=poison, cell_id="p",
                          seed=0, score=WORST_SCORE, quarantined=True),)
    proposals = EvolutionaryStrategy(elites=1).propose(space, history, random.Random(5), 8)
    assert len(proposals) == 8
    assert all(assignment_digest(a) != assignment_digest(poison) for a in proposals)


# -- the search loop ----------------------------------------------------------


def test_search_spec_round_trip_and_version_gate():
    spec = tiny_search()
    clone = SearchSpec.from_dict(spec.to_dict())
    assert clone.to_dict() == spec.to_dict()
    doc = spec.to_dict()
    doc["version"] = 99
    with pytest.raises(CampaignError, match="version"):
        SearchSpec.from_dict(doc)
    doc = spec.to_dict()
    doc["schema"] = "repro.campaign/spec-v1"
    with pytest.raises(CampaignError, match="schema"):
        SearchSpec.from_dict(doc)


def test_supervised_parallel_search_is_byte_identical(reference, tmp_path):
    ref_store, ref_archive, ref_text = reference
    store = ResultStore(tmp_path / "par.jsonl")
    metrics = MetricsRegistry()
    runner = SearchRunner(
        tiny_search(), store, workers=2,
        max_cell_seconds=60.0, max_cell_retries=2, metrics=metrics,
    )
    assert runner.supervise
    archive = runner.run()
    # the archive file, the evaluation sequence and the exported cliffs
    # are all byte-identical to the serial run
    assert runner.archive_path.read_text() == ref_text
    assert dumps(archive.to_dict()) == dumps(ref_archive.to_dict())
    assert dumps(archive.export(top=2)) == dumps(ref_archive.export(top=2))
    assert dumps(strip_perf(store.cell_records())) == \
        dumps(strip_perf(ref_store.cell_records()))
    assert metrics.get("campaign_search_generations_total").series.get((), 0.0) == 2
    assert metrics.get("campaign_search_evaluations_total").series.get((), 0.0) == 4
    assert metrics.get("campaign_search_best_objective").series.get((), 0.0) == \
        archive.best(1)[0].score


def test_resume_mid_generation_replays_to_identical_archive(
    reference, tmp_path
):
    ref_store, ref_archive, ref_text = reference
    # Simulate a death after the very first cell of generation 0: a
    # fresh store pre-seeded with only that record (any prefix of the
    # settled set is a state an interrupted run can leave behind).
    first = ref_store.cell_records()[0]
    store = ResultStore(tmp_path / "half.jsonl")
    store.ensure_header(tiny_search())
    store.append(first)
    # a stale archive from the interrupted run must be overwritten
    stale = default_archive_path(store.path)
    stale.write_text("{}")
    runner = SearchRunner(tiny_search(), store, workers=1)
    archive = runner.run()
    assert first["cell_id"] not in runner.executed
    assert len(runner.executed) == 3
    assert runner.archive_path == stale
    assert runner.archive_path.read_text() == ref_text
    assert dumps(strip_perf(store.cell_records())) == \
        dumps(strip_perf(ref_store.cell_records()))
    # load() round-trips the written archive
    assert SearchArchive.load(runner.archive_path).dumps() == \
        archive.dumps() == ref_text


def test_sigkill_mid_search_resumes_to_identical_archive(
    reference, tmp_path
):
    """End-to-end: SIGKILL the search process mid-generation; the store
    is consistent and a resume converges to the byte-identical final
    archive."""
    ref_store, ref_archive, ref_text = reference
    spec = tiny_search()
    spec_path = tmp_path / "search.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    store_path = tmp_path / "kill.jsonl"
    # The second gen-0 proposal hangs (replayed here from the pure
    # strategy function), so the process is alive mid-generation when
    # the SIGKILL lands.
    rng = random.Random(derive_seed(spec.seed, "search-gen", 0))
    proposals = spec.strategy.propose(spec.space, (), rng, spec.population)
    victim = spec.cell_for(spec.space.clamp(proposals[1])).cell_id
    state = tmp_path / "fault-state"
    state.mkdir()
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({
        "cells": {victim: {"action": "hang", "times": -1,
                           "seconds": 60.0}},
        "state_dir": str(state),
    }))
    env = dict(os.environ, PYTHONPATH="src", **{FAULT_ENV: str(faults)})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.campaign", "search", "run",
         "--spec", str(spec_path), "--store", str(store_path)],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if store_path.exists() and len(ResultStore(store_path)) >= 1:
            break
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    proc.send_signal(signal.SIGKILL)
    proc.communicate(timeout=30.0)
    assert proc.returncode == -signal.SIGKILL
    store = ResultStore(store_path)
    assert store.dropped_lines == 0
    assert 1 <= len(store) < 4
    # Resume (fault cleared) from the store alone — the header carries
    # the search spec — and converge to the byte-identical archive.
    code = cli_main(["search", "resume", "--store", str(store_path)])
    assert code == EXIT_OK
    assert default_archive_path(store_path).read_text() == ref_text
    assert dumps(strip_perf(ResultStore(store_path).cell_records())) == \
        dumps(strip_perf(ref_store.cell_records()))


def test_poison_cell_scores_worst_case_and_is_skipped_on_resume(
    tmp_path, monkeypatch
):
    spec = tiny_search()
    rng = random.Random(derive_seed(spec.seed, "search-gen", 0))
    proposals = spec.strategy.propose(spec.space, (), rng, spec.population)
    victim = spec.cell_for(spec.space.clamp(proposals[0])).cell_id
    state = tmp_path / "fault-state"
    state.mkdir()
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({
        "cells": {victim: {"action": "raise", "times": -1}},
        "state_dir": str(state),
    }))
    monkeypatch.setenv(FAULT_ENV, str(faults))
    store = ResultStore(tmp_path / "poison.jsonl")
    runner = SearchRunner(
        spec, store, workers=1, supervise=True,
        max_cell_retries=1, retry_backoff=0.01,
    )
    archive = runner.run()
    assert store.quarantined_ids() == {victim}
    poisoned = [ev for ev in archive.evaluations if ev.quarantined]
    assert [ev.cell_id for ev in poisoned] == [victim]
    assert poisoned[0].score == WORST_SCORE
    # worst-case score: the poison cell never appears in best() or the
    # cliff export
    assert victim not in {ev.cell_id for ev in archive.best(10)}
    assert victim not in {
        c["cell_id"] for c in archive.export(top=10)["cells"]
    }
    # resume (fault still armed): the quarantine is settled state — the
    # poison cell is not re-executed and the archive is reproduced
    resumed = SearchRunner(tiny_search(), ResultStore(store.path),
                           workers=1, supervise=True, max_cell_retries=1)
    archive2 = resumed.run()
    assert resumed.executed == []
    assert dumps(archive2.to_dict()) == dumps(archive.to_dict())


def test_exported_cliff_replays_byte_identically_via_grid_runner(
    reference, tmp_path
):
    ref_store, ref_archive, _ = reference
    export = ref_archive.export(top=1)
    frag = export["cells"][0]
    spec = CampaignSpec.from_dict(frag["spec"])
    assert spec.n_cells == 1
    assert spec.cells()[0].cell_id == frag["cell_id"]
    assert spec.cells()[0].seed == frag["seed"]
    # the frozen fragment round-trips through its own wire format
    assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
    store = ResultStore(tmp_path / "replay.jsonl")
    CampaignRunner(spec, store, workers=1).run()
    replayed = strip_perf(store.cell_records())[frag["cell_id"]]
    original = strip_perf(ref_store.cell_records())[frag["cell_id"]]
    assert replayed == original


def test_cli_search_run_export_report(reference, tmp_path, capsys):
    ref_store, ref_archive, ref_text = reference
    spec_path = tmp_path / "search.json"
    spec_path.write_text(json.dumps(tiny_search().to_dict()))
    store = tmp_path / "cli.jsonl"
    code = cli_main([
        "search", "run", "--spec", str(spec_path), "--store", str(store),
        "--workers", "2", "--max-cell-retries", "2",
        "--fail-on-violations",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "generation 0:" in out and "top" in out
    assert default_archive_path(store).read_text() == ref_text
    # resume is a no-op replay
    assert cli_main(["search", "resume", "--store", str(store)]) == EXIT_OK
    assert "0 cells" in capsys.readouterr().out.split("ran ", 1)[1]
    # export writes the cliffs document
    cliffs = tmp_path / "cliffs.json"
    assert cli_main([
        "search", "export", "--store", str(store),
        "--top", "2", "--out", str(cliffs),
    ]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(cliffs.read_text())
    assert doc["schema"] == "repro.campaign/cliffs-v1"
    assert dumps(doc) == dumps(ref_archive.export(top=2))
    # the dashboard renders with the search panels
    html = tmp_path / "dash.html"
    assert cli_main([
        "search", "report", "--store", str(store), "--html", str(html),
    ]) == EXIT_OK
    capsys.readouterr()
    page = html.read_text()
    assert "objective vs. generation" in page
    assert "all proposals" in page and "top cells" in page
    # a grid resume pointed at a search store is redirected, not mangled
    assert cli_main(["resume", "--store", str(store)]) == 2
    assert "search resume" in capsys.readouterr().err


def test_cli_search_gates_on_quarantine(tmp_path, monkeypatch, capsys):
    spec = tiny_search()
    rng = random.Random(derive_seed(spec.seed, "search-gen", 0))
    proposals = spec.strategy.propose(spec.space, (), rng, spec.population)
    victim = spec.cell_for(spec.space.clamp(proposals[0])).cell_id
    state = tmp_path / "fault-state"
    state.mkdir()
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({
        "cells": {victim: {"action": "raise", "times": -1}},
        "state_dir": str(state),
    }))
    monkeypatch.setenv(FAULT_ENV, str(faults))
    spec_path = tmp_path / "search.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    store = tmp_path / "gate.jsonl"
    code = cli_main([
        "search", "run", "--spec", str(spec_path), "--store", str(store),
        "--max-cell-retries", "1", "--fail-on-violations",
    ])
    err = capsys.readouterr().err
    assert code == EXIT_QUARANTINED
    assert "quarantined" in err
