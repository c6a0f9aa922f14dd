"""MatrixReport: the campaign-wide aggregate of per-cell fleet reports.

Cells are merged through the *mergeable* statistics machinery rather
than by averaging summary numbers: every cell record carries the exact
Welford state and reservoir sample of its latency series
(:meth:`repro.fleet.telemetry.FleetTelemetry.export_mergeable`), so the
campaign-wide moments come from :meth:`RunningStats.merge` — exactly the
statistics of the concatenated streams — and the campaign-wide
percentiles from a :class:`P2Quantile` fed the pooled reservoir samples
in deterministic (sorted-cell) order.

Everything in :meth:`to_dict` / :meth:`render` is a pure function of the
cell records' deterministic portion: two campaigns run at the same seed
— serial or across any number of worker processes, fresh or resumed —
render byte-identical reports.  Wall-clock vitals stay in the per-cell
``perf`` envelopes and are never read here.
"""

from __future__ import annotations

import math

from repro.campaign.spec import AXES, CampaignSpec
from repro.errors import CampaignError
from repro.fleet.report import _ms, _s
from repro.util.stats import P2Quantile, RunningStats


def _drift(metric: str, a: float, b: float) -> float:
    """Normalised drift between two marginal metric values.

    ``goodput`` is already a fraction, so its drift is the absolute
    difference; everything else (latencies, violation counts) compares
    relative to the *other* run's value.  NaN on both sides is no drift
    (no samples on either run); NaN on one side is infinite drift — a
    latency series appearing or vanishing is always worth flagging.
    """
    a_nan = isinstance(a, float) and math.isnan(a)
    b_nan = isinstance(b, float) and math.isnan(b)
    if a_nan and b_nan:
        return 0.0
    if a_nan or b_nan:
        return math.inf
    if metric == "goodput":
        return abs(a - b)
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1.0)


def _p2(samples: list, q: float) -> float:
    """Percentile of pooled reservoir samples via the streaming P²
    estimator (q in [0, 100]); NaN when no samples."""
    if not samples:
        return math.nan
    est = P2Quantile(q / 100.0)
    for x in samples:
        est.add(x)
    return est.value


def cell_row(rec: dict) -> dict:
    """One cell record's deterministic summary row.

    The per-cell rows :meth:`MatrixReport.from_records` tabulates and
    the metric namespace a search
    :class:`~repro.campaign.search.Objective` scores over — extracting
    it keeps the two views of a cell definitionally identical.
    """
    report = rec["report"]
    verdict = rec["verdict"]
    return {
        "cell_id": rec["cell_id"],
        "coords": dict(rec["coords"]),
        "seed": rec["seed"],
        "sessions": report["sessions"],
        "completed": report["completed"],
        "failed": report["failed"],
        "goodput": (
            report["completed"] / report["sessions"]
            if report["sessions"] else 0.0
        ),
        "ops": report["ops"],
        "violations": verdict["invariant_violations"],
        "faults_applied": verdict["faults_applied"],
        "recovered": verdict["recovery"]["recovered"],
        "impacted": verdict["recovery"]["impacted"],
        "steer_p90_ms": report["steer_p90_ms"],
        "wait_p90_s": report.get("load", {}).get(
            "wait_p90_s", math.nan
        ),
    }


class _Agg:
    """One aggregation bucket (the whole campaign, or one marginal)."""

    def __init__(self) -> None:
        self.cells = 0
        self.sessions = 0
        self.completed = 0
        self.failed = 0
        self.ops = 0
        self.timeouts = 0
        self.errors = 0
        self.violations = 0
        self.faults_applied = 0
        self.recovered = 0
        self.impacted = 0
        self.steer = RunningStats()
        self.steer_samples: list[float] = []
        self.wait = RunningStats()
        self.wait_samples: list[float] = []

    def add(self, record: dict) -> None:
        report = record["report"]
        verdict = record["verdict"]
        self.cells += 1
        self.sessions += report["sessions"]
        self.completed += report["completed"]
        self.failed += report["failed"]
        self.ops += report["ops"]
        self.timeouts += report["timeouts"]
        self.errors += report["errors"]
        self.violations += verdict["invariant_violations"]
        self.faults_applied += verdict["faults_applied"]
        recovery = verdict["recovery"]
        self.recovered += recovery["recovered"]
        self.impacted += recovery["impacted"]
        mergeable = record["mergeable"]
        self.steer.merge(RunningStats.from_state(mergeable["steer"]["stats"]))
        self.steer_samples.extend(mergeable["steer"]["sample"])
        if "wait" in mergeable:
            self.wait.merge(
                RunningStats.from_state(mergeable["wait"]["stats"])
            )
            self.wait_samples.extend(mergeable["wait"]["sample"])

    @property
    def goodput(self) -> float:
        return self.completed / self.sessions if self.sessions else 0.0

    def to_dict(self) -> dict:
        return {
            "cells": self.cells,
            "sessions": self.sessions,
            "completed": self.completed,
            "failed": self.failed,
            "goodput": self.goodput,
            "ops": self.ops,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "violations": self.violations,
            "faults_applied": self.faults_applied,
            "impacted": self.impacted,
            "recovered": self.recovered,
            "steer_mean_ms": self.steer.mean * 1e3,
            "steer_p50_ms": _p2(self.steer_samples, 50.0) * 1e3,
            "steer_p90_ms": _p2(self.steer_samples, 90.0) * 1e3,
            "steer_p99_ms": _p2(self.steer_samples, 99.0) * 1e3,
            "wait_mean_s": self.wait.mean,
            "wait_p90_s": _p2(self.wait_samples, 90.0),
        }


class MatrixReport:
    """The merged outcome of a campaign grid."""

    def __init__(
        self,
        campaign: str,
        seed: int,
        expected_cells: int,
        cells: list[dict],
        totals: _Agg,
        marginals: dict,
        quarantined: list[dict] | None = None,
        missing: list[str] | None = None,
    ) -> None:
        self.campaign = campaign
        self.seed = seed
        self.expected_cells = expected_cells
        #: per-cell summary rows, sorted by cell id
        self.cells = cells
        self.totals = totals
        #: axis -> point name -> _Agg
        self.marginals = marginals
        #: quarantine summaries (cell_id/coords/reason/attempts), sorted
        self.quarantined = quarantined or []
        #: cell ids of the spec that are neither run nor quarantined
        self.missing = missing or []

    @classmethod
    def from_records(
        cls,
        records: list[dict],
        spec: CampaignSpec | None = None,
        quarantined: list[dict] | None = None,
    ) -> "MatrixReport":
        if not records and spec is None:
            raise CampaignError("cannot aggregate an empty campaign")
        records = sorted(records, key=lambda rec: rec["cell_id"])
        quarantine_rows = sorted(
            (
                {
                    "cell_id": rec["cell_id"],
                    "coords": dict(rec["coords"]),
                    "reason": rec["reason"],
                    "attempts": rec["attempts"],
                }
                for rec in (quarantined or [])
            ),
            key=lambda row: row["cell_id"],
        )
        seen = [rec["cell_id"] for rec in records] + [
            row["cell_id"] for row in quarantine_rows
        ]
        if len(set(seen)) != len(seen):
            raise CampaignError("duplicate cell ids in campaign records")
        totals = _Agg()
        marginals: dict = {axis: {} for axis in AXES}
        if spec is not None:
            # Pre-seat marginals in declared axis order so the report
            # shows every point, run or not, in spec order.
            for axis, points in spec.axis_points().items():
                for point in points:
                    marginals[axis][point.name] = _Agg()
        cells = []
        for rec in records:
            totals.add(rec)
            for axis in AXES:
                name = rec["coords"][axis]
                agg = marginals[axis].get(name)
                if agg is None:
                    agg = marginals[axis][name] = _Agg()
                agg.add(rec)
            cells.append(cell_row(rec))
        missing: list[str] = []
        if spec is not None:
            settled = set(seen)
            missing = [
                cell.cell_id for cell in spec.iter_cells()
                if cell.cell_id not in settled
            ]
        return cls(
            campaign=spec.name if spec is not None else "",
            seed=spec.seed if spec is not None else 0,
            expected_cells=spec.n_cells if spec is not None else len(seen),
            cells=cells,
            totals=totals,
            marginals=marginals,
            quarantined=quarantine_rows,
            missing=missing,
        )

    # -- verdicts ------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """Every expected cell produced a result record — quarantined
        cells are settled, but they are still holes in the grid."""
        return self.totals.cells == self.expected_cells

    @property
    def holes(self) -> int:
        """Expected cells with no result record (quarantined or never
        run) — the grid's explicit, never-silent incompleteness."""
        return self.expected_cells - self.totals.cells

    @property
    def violations(self) -> int:
        return self.totals.violations

    def pareto(self) -> list[dict]:
        """The goodput/latency pareto front over cells: no other cell
        has both goodput >= and steer p90 <= (one strictly better).
        NaN latency (a cell that steered nothing) never makes the front
        unless it is alone."""

        def latency(row: dict) -> float:
            p90 = row["steer_p90_ms"]
            return math.inf if math.isnan(p90) else p90

        front = []
        for row in self.cells:
            dominated = any(
                other is not row
                and other["goodput"] >= row["goodput"]
                and latency(other) <= latency(row)
                and (
                    other["goodput"] > row["goodput"]
                    or latency(other) < latency(row)
                )
                for other in self.cells
            )
            if not dominated:
                front.append(row)
        return front

    # -- views ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": "repro.campaign/matrix-v1",
            "campaign": self.campaign,
            "seed": self.seed,
            "expected_cells": self.expected_cells,
            "complete": self.complete,
            "totals": self.totals.to_dict(),
            "marginals": {
                axis: {
                    name: agg.to_dict()
                    for name, agg in self.marginals[axis].items()
                }
                for axis in AXES
            },
            "pareto": [row["cell_id"] for row in self.pareto()],
            "holes": self.holes,
            "quarantined": self.quarantined,
            "missing": list(self.missing),
            "cells": self.cells,
        }

    def render(self, per_cell: bool = False) -> str:
        t = self.totals
        d = t.to_dict()
        lines = [
            f"campaign {self.campaign!r} seed {self.seed}: "
            f"{t.cells}/{self.expected_cells} cells, "
            f"{t.completed}/{t.sessions} sessions completed "
            f"({t.goodput:.0%} goodput), {t.ops} steering ops, "
            f"{t.faults_applied} faults applied, "
            f"{t.violations} invariant violations",
            f"merged steer latency ms: p50={_ms(d['steer_p50_ms'] / 1e3)} "
            f"p90={_ms(d['steer_p90_ms'] / 1e3)} "
            f"p99={_ms(d['steer_p99_ms'] / 1e3)} "
            f"mean={_ms(d['steer_mean_ms'] / 1e3)}   "
            f"admission wait s: p90={_s(d['wait_p90_s'])}",
        ]
        if t.impacted:
            lines.append(
                f"recovery: {t.recovered}/{t.impacted} impacted sessions "
                "recovered"
            )
        for axis in AXES:
            points = self.marginals[axis]
            if len(points) < 2:
                continue
            lines.append(f"-- by {axis} " + "-" * max(0, 58 - len(axis)))
            lines.append(
                f"{'point':<22} {'cells':>5} {'sess':>5} {'good':>5} "
                f"{'ops':>6} {'viol':>4} {'p90ms':>8} {'wait90s':>8}"
            )
            for name, agg in points.items():
                row = agg.to_dict()
                lines.append(
                    f"{name:<22} {agg.cells:>5} {agg.sessions:>5} "
                    f"{agg.goodput:>5.0%} {agg.ops:>6} "
                    f"{agg.violations:>4} "
                    f"{_ms(row['steer_p90_ms'] / 1e3):>8} "
                    f"{_s(row['wait_p90_s']):>8}"
                )
        front = self.pareto()
        lines.append(
            "pareto (max goodput, min steer p90): "
            + (", ".join(row["cell_id"] for row in front) if front else "-")
        )
        if self.quarantined:
            lines.append(
                f"!! {len(self.quarantined)} quarantined cell(s) — "
                "holes in the grid, excluded from every aggregate above:"
            )
            for row in self.quarantined:
                lines.append(
                    f"  {row['cell_id']}: {row['reason']} after "
                    f"{row['attempts']} attempt(s)"
                )
        if self.missing:
            lines.append(
                f"!! {len(self.missing)} cell(s) never ran: "
                + ", ".join(self.missing)
            )
        if per_cell:
            lines.append(
                f"{'cell':<52} {'sess':>5} {'good':>5} {'viol':>4} "
                f"{'p90ms':>8}"
            )
            for row in self.cells:
                lines.append(
                    f"{row['cell_id']:<52} {row['sessions']:>5} "
                    f"{row['goodput']:>5.0%} {row['violations']:>4} "
                    f"{_ms(row['steer_p90_ms'] / 1e3):>8}"
                )
        return "\n".join(lines)

    # -- comparison ----------------------------------------------------------

    def diff(self, other: "MatrixReport") -> dict:
        """Cell-by-cell comparison against another campaign run (e.g.
        last nightly vs this one).  Keys: ``only_self`` / ``only_other``
        (cell ids), ``changed`` (rows whose deterministic outcome
        moved), ``identical`` (count)."""
        mine = {row["cell_id"]: row for row in self.cells}
        theirs = {row["cell_id"]: row for row in other.cells}
        only_self = sorted(set(mine) - set(theirs))
        only_other = sorted(set(theirs) - set(mine))
        changed = []
        identical = 0
        watched = ("sessions", "completed", "failed", "ops", "violations",
                   "steer_p90_ms")

        def same(a, b):
            return a == b or (
                isinstance(a, float) and isinstance(b, float)
                and math.isnan(a) and math.isnan(b)
            )

        for cell_id in sorted(set(mine) & set(theirs)):
            a, b = mine[cell_id], theirs[cell_id]
            delta = {
                key: {"self": a[key], "other": b[key]}
                for key in watched
                if not same(a[key], b[key])
            }
            if delta:
                changed.append({"cell_id": cell_id, "delta": delta})
            else:
                identical += 1
        return {
            "only_self": only_self,
            "only_other": only_other,
            "changed": changed,
            "identical": identical,
        }

    #: marginal metrics gated by diff_marginals, with how each drift is
    #: normalised so one threshold applies across all of them:
    #: fractions compare absolutely, latencies and counts relatively
    MARGINAL_METRICS = ("goodput", "steer_p90_ms", "wait_p90_s", "violations")

    def diff_marginals(self, other: "MatrixReport",
                       threshold: float = 0.0) -> dict:
        """Per-axis **marginal drift** against another run.

        Cell-level :meth:`diff` catches any deterministic change, but a
        nightly that reruns a campaign with an intentionally different
        seed (or a grown axis) needs a softer question: did the *shape*
        of the results move?  For every axis point present in both
        reports this compares the marginal aggregates on
        :data:`MARGINAL_METRICS`, normalising each delta to a fraction —
        ``goodput`` absolutely (it already is one), latencies and
        violation counts relative to the other run — so a single
        ``threshold`` gates them all.  Entries whose drift exceeds the
        threshold land in ``exceeded``; points present on one side only
        land in ``missing`` (and should fail the gate too: a vanished
        marginal is the largest drift of all).
        """
        if threshold < 0:
            raise CampaignError(
                f"marginal drift threshold must be >= 0, got {threshold}"
            )
        entries = []
        missing = []
        for axis in AXES:
            mine = {n: agg.to_dict()
                    for n, agg in self.marginals[axis].items()}
            theirs = {n: agg.to_dict()
                      for n, agg in other.marginals[axis].items()}
            for name in sorted(set(mine) ^ set(theirs)):
                side = "self" if name in mine else "other"
                missing.append({"axis": axis, "point": name, "only": side})
            for name in sorted(set(mine) & set(theirs)):
                a, b = mine[name], theirs[name]
                for metric in self.MARGINAL_METRICS:
                    va, vb = a[metric], b[metric]
                    entries.append({
                        "axis": axis,
                        "point": name,
                        "metric": metric,
                        "self": va,
                        "other": vb,
                        "drift": _drift(metric, va, vb),
                    })
        exceeded = [e for e in entries if e["drift"] > threshold]
        return {
            "threshold": threshold,
            "entries": entries,
            "exceeded": exceeded,
            "missing": missing,
        }

    @staticmethod
    def render_marginals(drift: dict) -> str:
        lines = [
            f"marginal drift vs threshold {drift['threshold']:g}: "
            f"{len(drift['exceeded'])} exceeded, "
            f"{len(drift['missing'])} missing "
            f"({len(drift['entries'])} comparisons)"
        ]
        for m in drift["missing"]:
            lines.append(
                f"  {m['axis']}:{m['point']} only in "
                f"{'A' if m['only'] == 'self' else 'B'}"
            )
        for e in drift["exceeded"]:
            lines.append(
                f"  {e['axis']}:{e['point']} {e['metric']} "
                f"{e['other']:g} -> {e['self']:g} "
                f"(drift {e['drift']:.3f})"
            )
        return "\n".join(lines)

    @staticmethod
    def render_diff(diff: dict) -> str:
        lines = [
            f"{diff['identical']} cells identical, "
            f"{len(diff['changed'])} changed, "
            f"{len(diff['only_self'])} only in A, "
            f"{len(diff['only_other'])} only in B"
        ]
        for cell_id in diff["only_self"]:
            lines.append(f"  only in A: {cell_id}")
        for cell_id in diff["only_other"]:
            lines.append(f"  only in B: {cell_id}")
        for change in diff["changed"]:
            deltas = ", ".join(
                f"{key} {val['other']} -> {val['self']}"
                for key, val in change["delta"].items()
            )
            lines.append(f"  {change['cell_id']}: {deltas}")
        return "\n".join(lines)
