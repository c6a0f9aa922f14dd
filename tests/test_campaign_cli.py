"""The CLI's exit-code contract, every code through every executor.

``run`` / ``resume`` / ``search run`` / ``search resume`` are one flow
(:func:`repro.campaign.cli.cmd_execute`), and the nightly workflow gates
on what it returns::

    0 ok   1 violations   2 usage/spec error   3 quarantined
    4 incomplete grid     130 interrupted

Each case drives the *run* form and then the *resume* form against the
same store, so both must agree on the verdict.  Code 4 is only reachable
for grids, and only through a drain nobody signalled (an API call, here
a patched supervisor): a search that drains with a proposal unsettled
has no archive to return and refuses with a usage error (2) instead —
and its resume, with one proposal left, simply finishes (0).
"""

import json
import random
import signal

import pytest

from repro.campaign import (
    AxisPoint,
    CampaignSpec,
    EvolutionaryStrategy,
    ParamRange,
    ParamSpace,
    ResultStore,
    SearchSpec,
    Supervisor,
    derive_seed,
)
from repro.campaign import runner as runner_mod
from repro.campaign.cli import main as cli_main
from repro.campaign.runner import FAULT_ENV
from repro.errors import CampaignError

_SCENARIO = AxisPoint("paper", {
    "suite": "paper", "duration": 0.5, "cadence": 0.25, "participants": 1,
})
_BASE = {"n_sites": 2, "queue_slots": 2, "queue_limit": 4,
         "horizon": 1.0, "until": 20.0}


def _trace(name, *instants):
    return AxisPoint(name, {"kind": "trace", "instants": list(instants)})


def grid_spec():
    """Three one-session cells: enough for two drains to both leave holes."""
    return CampaignSpec(
        name="codes", seed=3, base=_BASE, scenarios=[_SCENARIO],
        arrivals=[_trace("t0", 0.0), _trace("t1", 0.1), _trace("t2", 0.2)],
        faults=[AxisPoint("baseline")],
        policies=[AxisPoint("ll", {"placement": "least-loaded"})],
    )


def search_spec():
    """One generation of two proposals."""
    return SearchSpec(
        name="codes-search", seed=3, generations=1, population=2,
        strategy=EvolutionaryStrategy(),
        space=ParamSpace(
            name="codes-search", scenario=_SCENARIO,
            arrival=AxisPoint("poisson", {"kind": "poisson", "rate": 2.0}),
            faults=AxisPoint("baseline"),
            policy=AxisPoint("ll", {"placement": "least-loaded"}),
            ranges=[ParamRange("arrival.rate", 1.0, 3.0)], base=_BASE,
        ),
    )


def _first_cell_id(kind):
    if kind == "grid":
        return grid_spec().cells()[0].cell_id
    spec = search_spec()
    rng = random.Random(derive_seed(spec.seed, "search-gen", 0))
    first = spec.strategy.propose(spec.space, (), rng, spec.population)[0]
    return spec.cell_for(spec.space.clamp(first)).cell_id


def _violating(monkeypatch):
    real = runner_mod.run_cell

    def run_cell(cell):
        record = real(cell)
        record["verdict"]["invariant_violations"] = 1
        return record

    monkeypatch.setattr(runner_mod, "run_cell", run_cell)


def _draining(monkeypatch, signum=None):
    """Every supervisor stops dispatching after its first settled cell:
    by request (returns normally, leaves holes) or as if signalled."""

    class Draining(Supervisor):
        def run(self, cells, progress=None):
            def stop(record):
                progress(record)
                if signum is None:
                    self.request_drain()
                else:
                    self._on_signal(signum, None)

            return super().run(cells, progress=stop)

    monkeypatch.setattr(runner_mod, "Supervisor", Draining)


# exit code -> (extra flags, the stderr line that goes with the code)
CASES = {
    0: ([], ""),
    1: ([], "FAIL: "),
    3: (["--max-cell-retries", "0"], "FAIL: "),
    4: (["--max-cell-retries", "0"], "FAIL: grid incomplete"),
    130: (["--max-cell-retries", "0"], "interrupted"),
}


@pytest.mark.parametrize("kind", ["grid", "search"])
@pytest.mark.parametrize("code", sorted(CASES))
def test_exit_codes_run_then_resume(kind, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    prefix = [] if kind == "grid" else ["search"]
    spec = grid_spec() if kind == "grid" else search_spec()
    (tmp_path / "spec.json").write_text(json.dumps(spec.to_dict()))
    flags, line = CASES[code]
    expected = [(code, line), (code, line)]  # run form, resume form
    if code == 1:
        _violating(monkeypatch)
    elif code == 3:
        faults = {"cells": {_first_cell_id(kind): {"action": "raise", "times": -1}}}
        (tmp_path / "faults.json").write_text(json.dumps(faults))
        monkeypatch.setenv(FAULT_ENV, str(tmp_path / "faults.json"))
    elif code == 4:
        _draining(monkeypatch)
        if kind == "search":
            # unreachable for a search: no archive without every proposal
            expected = [(2, "error: "), (0, "")]
    elif code == 130:
        _draining(monkeypatch, signal.SIGTERM)

    # run without --store: the default path is the one the hints name
    store = f"campaign-results/{spec.name}.jsonl"
    forms = (["run", "--spec", "spec.json"], ["resume", "--store", store])
    for form, (want, line) in zip(forms, expected):
        got = cli_main([*prefix, *form, "--fail-on-violations", *flags])
        err = capsys.readouterr().err
        assert got == want, (form, err)
        assert line in err and (line or not err), (form, err)
        if want == 130:
            verb = " ".join([*prefix, "resume"])
            assert f"resume with: python -m repro.campaign {verb} --store {store}" in err


@pytest.mark.parametrize("kind", ["grid", "search"])
def test_usage_and_spec_errors_exit_2(kind, tmp_path, capsys):
    prefix = [] if kind == "grid" else ["search"]
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    # a store of the *other* kind: resume must redirect, not mangle it
    other = search_spec() if kind == "grid" else grid_spec()
    ResultStore(tmp_path / "other.jsonl").ensure_header(other)
    # a wrong-typed field: a search range's "lo" used to exit 1 with a
    # traceback, a grid's numeric name used to run
    wrong = grid_spec().to_dict() if kind == "grid" else search_spec().to_dict()
    if kind == "grid":
        wrong["name"] = 7
    else:
        wrong["space"]["ranges"][0]["lo"] = "x"
    (tmp_path / "wrong.json").write_text(json.dumps(wrong))
    for argv in (
        ["run", "--spec", str(tmp_path / "missing.json")],
        ["run", "--spec", str(tmp_path / "bad.json")],
        ["run", "--spec", str(tmp_path / "list.json")],
        ["run", "--spec", str(tmp_path / "wrong.json")],
        ["resume"],
        ["resume", "--store", str(tmp_path / "other.jsonl")],
    ):
        assert cli_main([*prefix, *argv, "--fail-on-violations"]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


#: fault declarations a spec may carry that no fault can be built from
BAD_FAULTS = [
    {"kind": "site-outage", "at": 1.0, "site": 0, "bogus": 1},
    {"kind": "site-outage", "at": 1.0},
    {"kind": "site-outage", "at": 1.0, "site": 0.5},
    {"kind": "site-outage", "at": 1.0, "site": True},
    {"kind": "site-outage", "at": 1.0, "site": 7},
    {"kind": "site-outage", "at": float("nan"), "site": 0},
    {"kind": "site-outage", "at": 1.0, "site": 0, "duration": float("inf")},
    {"kind": "slow-node", "at": 1.0, "site": 0, "factor": float("nan")},
    {"kind": "partition", "at": 1.0, "a": ["x"], "b": "svc-0"},
    {"kind": "partition", "at": 1.0, "a": "hpc-0", "b": "nowhere"},
    {"kind": ["site-outage"], "at": 1.0},
]


@pytest.mark.parametrize("decl", BAD_FAULTS, ids=repr)
def test_malformed_fault_declaration_is_a_spec_error(decl, tmp_path, capsys):
    spec = CampaignSpec(
        name="bad-fault", seed=3, base=_BASE, scenarios=[_SCENARIO],
        arrivals=[_trace("t0", 0.0)],
        faults=[AxisPoint("bad", {"faults": [decl]})],
        policies=[AxisPoint("ll", {"placement": "least-loaded"})],
    )
    with pytest.raises(CampaignError, match="fault point 'bad'"):
        runner_mod.run_cell(spec.cells()[0])
    (tmp_path / "spec.json").write_text(json.dumps(spec.to_dict()))
    argv = ["run", "--spec", str(tmp_path / "spec.json"), "--store", str(tmp_path / "s.jsonl")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fault point 'bad'") and "Traceback" not in err
