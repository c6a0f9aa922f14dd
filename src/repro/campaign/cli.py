"""``python -m repro.campaign`` — grids, adaptive searches, reports.

Subcommands::

    run     --preset smoke | --spec FILE [shared flags]
            [--seed S] [--per-cell] [--bench-out PATH]
    resume  --store PATH [shared flags]
    report  --store PATH [--per-cell] [--json] [--html PATH]
    diff    STORE_A STORE_B
    search  run     --preset cliff-smoke | --spec FILE [shared flags]
                    [--seed S] [--archive PATH]
    search  resume  --store PATH [shared flags] [--archive PATH]
    search  export  --store PATH | --archive PATH [--top N] [--out FILE]
    search  report  --store PATH | --archive PATH [--top N] [--html PATH]

The shared flags — one argparse parent, identical across ``run``,
``resume`` and the ``search`` executors — are ``--store``, ``--workers``,
``--max-cell-seconds``, ``--max-cell-retries`` and
``--fail-on-violations``.

``run`` against an existing store resumes it (the header must match the
requested campaign — a different spec at the same path is refused).
``resume`` needs no spec at all: the store's header carries the full
campaign *or search*, so a cron job can restart whatever was
interrupted.  ``search export`` freezes the best discovered cells as
single-cell grid-spec fragments that ``run --spec`` replays
byte-identically.

Supervision: ``--workers > 1``, ``--max-cell-seconds`` or
``--max-cell-retries`` route execution through the crash-/hang-/poison-
tolerant :class:`~repro.campaign.supervise.Supervisor`; a SIGTERM or
Ctrl-C drains gracefully (in-flight completed records are flushed, the
store stays consistent, exit :data:`EXIT_INTERRUPTED`).

Exit codes — the contract the nightly workflow gates on::

    0    grid complete, no violations, nothing quarantined
    1    chaos invariant violation(s) somewhere in the grid
    2    usage / campaign error (bad spec, mixed store ...)
    3    quarantined cell(s): the retry budget died trying
    4    incomplete grid (cells missing without a quarantine verdict)
    130  interrupted (SIGTERM/SIGINT drain; resume to finish)

Violations outrank quarantines (a violation is a *wrong answer*, a
quarantine is a missing one), quarantines outrank bare incompleteness;
1/3/4 all require ``--fail-on-violations``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro.campaign.matrix import MatrixReport
from repro.campaign.presets import PRESETS, SEARCH_PRESETS, preset, search_preset
from repro.campaign.runner import CampaignRunner
from repro.campaign.search import (
    SearchArchive,
    SearchRunner,
    SearchSpec,
    default_archive_path,
)
from repro.campaign.spec import CampaignSpec, read_document
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.obs import MetricsRegistry
from repro.perf.bench import write_bench
from repro.util import journal

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2
EXIT_QUARANTINED = 3
EXIT_INCOMPLETE = 4
EXIT_INTERRUPTED = 130


def _load_spec(args: argparse.Namespace, spec_cls, lookup):
    """The spec ``run`` / ``search run`` was asked for: a ``--spec`` file
    read as ``spec_cls``, else the ``--preset`` that ``lookup`` names."""
    if args.spec is None:
        return lookup(args.preset, seed=args.seed)
    spec = spec_cls.from_dict(read_document(args.spec, "spec"))
    if args.seed is not None:
        spec.seed = args.seed
    return spec


def _default_store(spec) -> pathlib.Path:
    return pathlib.Path("campaign-results") / f"{spec.name}.jsonl"


def _progress(record: dict) -> None:
    if record["kind"] == "quarantine":
        print(
            f"  cell {record['cell_id']}: QUARANTINED "
            f"({record['reason']} after {record['attempts']} attempt(s))",
            flush=True,
        )
        return
    report = record["report"]
    verdict = record["verdict"]
    wall = record["perf"].get("wall_seconds", 0.0)
    flag = (
        f"  !! {verdict['invariant_violations']} violations"
        if verdict["invariant_violations"] else ""
    )
    print(
        f"  cell {record['cell_id']}: "
        f"{report['completed']}/{report['sessions']} completed, "
        f"wall {wall:.2f}s{flag}",
        flush=True,
    )


def _grid_outcome(matrix: MatrixReport, runner, args) -> tuple:
    """What a finished grid reports: its text, what it carried over, a
    tail for the "ran" line, and its exit gates in precedence order."""
    return (
        matrix.render(per_cell=args.per_cell),
        f"{matrix.totals.cells - runner.stats['completed']} resumed",
        "",
        (
            (matrix.violations, EXIT_VIOLATIONS,
             f"{matrix.violations} invariant violation(s) across the grid"),
            (matrix.quarantined, EXIT_QUARANTINED,
             f"{len(matrix.quarantined)} quarantined cell(s) — "
             "the grid has known-poison holes"),
            (not matrix.complete, EXIT_INCOMPLETE,
             f"grid incomplete "
             f"({matrix.totals.cells}/{matrix.expected_cells} cells)"),
        ),
    )


def _search_outcome(archive: SearchArchive, runner, args) -> tuple:
    """The same four for a finished search (no incompleteness gate: a
    search with an unsettled proposal does not return an archive)."""
    violations = sum(
        rec["verdict"]["invariant_violations"]
        for rec in runner.store.cell_records()
    )
    return (
        archive.render(),
        f"{len(archive.evaluations) - len(runner.executed)} replayed",
        f"; archive {runner.archive_path}",
        (
            (violations, EXIT_VIOLATIONS,
             f"{violations} invariant violation(s) across the "
             "evaluated cells"),
            (archive.quarantined, EXIT_QUARANTINED,
             f"{archive.quarantined} proposal(s) quarantined — the search "
             "found cells that kill workers"),
        ),
    )


def _finish(result, runner, wall: float, args: argparse.Namespace, outcome) -> int:
    text, carried, tail, gates = outcome(result, runner, args)
    print(text)
    print(
        f"ran {len(runner.executed)} cells "
        f"({carried} from {runner.store.path}), wall {wall:.1f}s, "
        f"{runner.workers} worker(s){tail}"
    )
    if runner.supervise:
        s = runner.stats
        print(
            f"supervisor: {s['worker_restarts']} worker restart(s), "
            f"{s['cell_retries']} cell retrie(s), "
            f"{s['quarantined']} quarantined"
        )
    if getattr(args, "bench_out", None):
        events = sum(
            rec["perf"].get("events", 0)
            for rec in runner.store.cell_records()
        )
        path = write_bench(
            pathlib.Path(args.bench_out),
            f"campaign_{result.campaign}",
            result.to_dict(),
            wall_seconds=wall,
            events=events,
        )
        print(f"bench envelope written to {path}")
    if args.fail_on_violations:
        for failed, code, message in gates:
            if failed:
                print(f"FAIL: {message}", file=sys.stderr)
                return code
    return EXIT_OK


def _execution(args: argparse.Namespace) -> dict:
    """The :class:`CellExecutor` keywords the shared flags map to; a
    flag left unset leaves the executor's own default in charge."""
    kwargs = {"workers": args.workers, "metrics": MetricsRegistry()}
    for flag in ("max_cell_seconds", "max_cell_retries"):
        if getattr(args, flag) is not None:
            kwargs[flag] = getattr(args, flag)
            kwargs["supervise"] = True
    return kwargs


#: everything that differs between executing a grid and a search: noun,
#: spec class, preset lookup, runner class, outcome summary, resume verb
_GRID = ("campaign", CampaignSpec, preset, CampaignRunner, _grid_outcome, "resume")
_SEARCH = (
    "search", SearchSpec, search_preset, SearchRunner, _search_outcome,
    "search resume",
)


def cmd_execute(args: argparse.Namespace) -> int:
    """``run`` / ``resume`` / ``search run`` / ``search resume``: load or
    recover the spec, refuse the other kind's store, build the runner,
    announce, time the run, report and gate."""
    search = args.command == "search"
    noun, spec_cls, lookup, runner_cls, outcome, _ = _SEARCH if search else _GRID
    if args.resuming:
        if args.store is None:
            raise CampaignError("resume needs --store (the interrupted run's "
                                "results path)")
        store = ResultStore(args.store)
        spec = store.spec()
        if not isinstance(spec, spec_cls):
            held, *_, verb = _GRID if search else _SEARCH
            raise CampaignError(
                f"{store.path} holds {held} {spec.name!r}; resume it with: "
                f"python -m repro.campaign {verb} --store {store.path}"
            )
    else:
        spec = _load_spec(args, spec_cls, lookup)
        if args.store is None:
            # recorded on args so an interrupt's resume hint can name it
            args.store = _default_store(spec)
        store = ResultStore(args.store)
    execution = _execution(args)
    if search:
        execution["archive_path"] = args.archive
    runner = runner_cls(spec, store, **execution)
    owed = "" if search else f"{len(runner.pending())} to run"
    if args.resuming:
        quarantined = len(store.quarantined_ids())
        print(
            f"resuming {noun} {spec.name!r} seed {spec.seed} from "
            f"{args.store}: {len(store)} cells done"
            + (f", {quarantined} quarantined (skipped)" if quarantined else "")
            + (f", {owed}" if owed else ""),
            flush=True,
        )
    else:
        plan = (
            f"{spec.generations} generation(s) x {spec.population}, "
            f"strategy {spec.strategy.kind}, "
            f"objective {spec.objective.goal} {spec.objective.metric}"
            if search else f"{spec.n_cells} cells ({owed})"
        )
        print(
            f"{noun} {spec.name!r} seed {spec.seed}: {plan}, "
            f"{args.workers} worker(s)"
            f"{' [supervised]' if runner.supervise else ''}, store {args.store}",
            flush=True,
        )
    callbacks = {"on_generation": _gen_progress} if search else {}
    t0 = time.perf_counter()
    result = runner.run(progress=_progress, **callbacks)
    return _finish(result, runner, time.perf_counter() - t0, args, outcome)


def _matrix_of(store: ResultStore) -> MatrixReport:
    return MatrixReport.from_records(
        store.cell_records(), spec=store.spec(),
        quarantined=store.quarantine_records(),
    )


def cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    matrix = _matrix_of(store)
    if args.html is not None:
        from repro.campaign.dashboard import write_html

        path = write_html(args.html, matrix)
        print(f"dashboard written to {path}")
    if args.json:
        print(json.dumps(matrix.to_dict(), indent=2, sort_keys=True))
    elif args.html is None:
        print(matrix.render(per_cell=args.per_cell))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    matrices = [
        _matrix_of(ResultStore(path))
        for path in (args.store_a, args.store_b)
    ]
    diff = matrices[0].diff(matrices[1])
    print(MatrixReport.render_diff(diff))
    failed = bool(diff["changed"] or diff["only_self"]
                  or diff["only_other"])
    return 1 if failed else 0


# -- search commands ----------------------------------------------------------


def _gen_progress(summary: dict) -> None:
    print(
        f"generation {summary['generation']}: "
        f"{summary['proposed']} proposed, {summary['executed']} executed, "
        f"best {summary['best']:g} (best so far {summary['best_so_far']:g})",
        flush=True,
    )


def _load_archive(args: argparse.Namespace) -> SearchArchive:
    if args.archive is not None:
        return SearchArchive.load(args.archive)
    if args.store is not None:
        return SearchArchive.load(default_archive_path(args.store))
    raise CampaignError("need --archive or --store to locate the search "
                        "archive")


def cmd_search_export(args: argparse.Namespace) -> int:
    archive = _load_archive(args)
    doc = archive.export(top=args.top)
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out is not None:
        journal.replace(args.out, text + "\n")
        print(
            f"{len(doc['cells'])} cliff cell(s) exported to {args.out} — "
            "replay one with: python -m repro.campaign run --spec "
            "<fragment.json>"
        )
    else:
        print(text)
    return EXIT_OK


def cmd_search_report(args: argparse.Namespace) -> int:
    archive = _load_archive(args)
    if args.html is not None:
        from repro.campaign.dashboard import write_search_html

        path = write_search_html(args.html, archive)
        print(f"search dashboard written to {path}")
        return EXIT_OK
    print(archive.render(top=args.top))
    return EXIT_OK


# -- the parser ---------------------------------------------------------------


def _exec_parent() -> argparse.ArgumentParser:
    """The shared executor flags: one parent, so ``run``, ``resume`` and
    the ``search`` executors cannot drift apart flag by flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--store", default=None,
                        help="results JSONL path (default "
                             "campaign-results/<name>.jsonl; required for "
                             "resume)")
    parent.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = inline unless a "
                             "supervision flag is given)")
    parent.add_argument("--max-cell-seconds", type=float, default=None,
                        help="per-cell wall-clock budget; a cell still "
                             "running past it is killed and retried "
                             "(implies supervised execution)")
    parent.add_argument("--max-cell-retries", type=int, default=None,
                        help="retries before a failing cell is quarantined "
                             "(default 2; implies supervised execution)")
    parent.add_argument("--fail-on-violations", action="store_true",
                        help="gate the exit code: 1 violations, "
                             "3 quarantined cells, 4 incomplete grid")
    return parent


def _add_executors(sub, parent, noun: str, what: str, presets: dict, default: str):
    """One kind's ``run`` and ``resume`` subcommands, built together so
    the grid's and the search's cannot drift apart either."""
    run = sub.add_parser("run", parents=[parent],
                         help=f"run (or resume) {what}")
    run.add_argument("--preset", choices=sorted(presets), default=default)
    run.add_argument("--spec", help=f"{noun} spec JSON file "
                                    "(overrides --preset)")
    run.add_argument("--seed", type=int, default=None,
                     help=f"override the {noun} seed")
    run.set_defaults(func=cmd_execute, resuming=False)
    resume = sub.add_parser(
        "resume", parents=[parent],
        help=f"finish an interrupted {noun} from its store",
    )
    resume.set_defaults(func=cmd_execute, resuming=True)
    return run, resume


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="parallel scenario-matrix campaigns and adaptive "
                    "scenario searches over the steering testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _exec_parent()

    for cmd in _add_executors(
        sub, parent, "campaign", "a campaign grid", PRESETS, "smoke"
    ):
        cmd.add_argument("--per-cell", action="store_true",
                         help="print the per-cell table")
        cmd.add_argument("--bench-out", default=None,
                         help="also write a BENCH_*.json envelope here")

    report = sub.add_parser("report", help="render a stored campaign")
    report.add_argument("--store", required=True)
    report.add_argument("--per-cell", action="store_true")
    report.add_argument("--json", action="store_true",
                        help="emit the MatrixReport as JSON")
    report.add_argument("--html", default=None,
                        help="write a self-contained HTML dashboard here")
    report.set_defaults(func=cmd_report)

    diff = sub.add_parser(
        "diff", help="compare two campaign stores cell by cell"
    )
    diff.add_argument("store_a")
    diff.add_argument("store_b")
    diff.set_defaults(func=cmd_diff)

    search = sub.add_parser(
        "search", help="adaptive scenario search over a parameter space"
    )
    ssub = search.add_subparsers(dest="search_command", required=True)

    for cmd in _add_executors(
        ssub, parent, "search", "an adaptive search", SEARCH_PRESETS, "cliff-smoke"
    ):
        cmd.add_argument("--archive", default=None,
                         help="archive JSON path (default <store>"
                              ".archive.json)")

    sexport = ssub.add_parser(
        "export", help="freeze the best cells as replayable grid specs"
    )
    sreport = ssub.add_parser(
        "report", help="render a stored search archive"
    )
    for cmd in (sexport, sreport):
        cmd.add_argument("--store", default=None,
                         help="search results store (archive path is "
                              "derived from it)")
        cmd.add_argument("--archive", default=None,
                         help="search archive JSON (overrides --store)")
    sexport.add_argument("--top", type=int, default=3,
                         help="how many cliff cells to export (default 3)")
    sexport.add_argument("--out", default=None,
                         help="write the cliffs document here instead of "
                              "stdout")
    sexport.set_defaults(func=cmd_search_export)
    sreport.add_argument("--top", type=int, default=5,
                         help="rows in the top-cell table (default 5)")
    sreport.add_argument("--html", default=None,
                         help="write the self-contained search dashboard "
                              "here")
    sreport.set_defaults(func=cmd_search_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        # A signal-initiated drain: the supervisor already flushed every
        # in-flight completed record and shut its workers down.
        store = getattr(args, "store", None)
        verb = (_SEARCH if args.command == "search" else _GRID)[-1]
        hint = (
            f"; resume with: python -m repro.campaign {verb} "
            f"--store {store}" if store else ""
        )
        print(f"interrupted — store is consistent{hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # The downstream consumer (head, less ...) closed the pipe; the
        # store is already consistent — every append was atomic.
        sys.stderr.close()
        return EXIT_OK
