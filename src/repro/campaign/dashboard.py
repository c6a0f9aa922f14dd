"""Static HTML dashboard for a campaign's :class:`MatrixReport`.

``python -m repro.campaign report --store S --html out.html`` renders
one self-contained page — inline CSS, inline SVG, zero scripts, zero
external fetches — so the nightly workflow can publish it as an artifact
and anyone can open the file from disk:

* headline totals (cells, goodput, ops, faults, violations — plus a
  quarantine count whenever the supervisor gave up on any cell);
* a quarantine panel naming every grid hole (quarantined cells with
  their failure reason and attempt count, plus cells that never ran);
* a goodput vs. steer-p90 scatter of every cell with the pareto front
  drawn through the non-dominated ones;
* per-axis marginal tables (the same numbers ``render`` prints);
* when a baseline store is given, the marginal drift table from
  :meth:`MatrixReport.diff_marginals`, drifted rows highlighted.

Everything is a pure function of the deterministic ``MatrixReport``
content (plus the optional baseline), so two same-seed campaigns render
byte-identical dashboards — the artifact itself is diffable.
"""

from __future__ import annotations

import html
import math
from typing import Optional

from repro.campaign.matrix import MatrixReport
from repro.campaign.spec import AXES
from repro.util import journal

_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 72em; color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccd; padding: 0.25em 0.7em; text-align: right; }
th { background: #eef; } td.name { text-align: left; }
tr.pareto td { background: #e8f6e8; }
tr.drift td { background: #fde8e8; }
tr.quarantine td { background: #fdf3e0; }
.totals span { display: inline-block; margin-right: 1.6em; }
.totals b { font-size: 1.3em; }
.bad b { color: #b00020; }
svg { border: 1px solid #ccd; background: #fcfcff; }
.note { color: #667; font-size: 0.9em; }
"""


def _fmt(x, pct: bool = False) -> str:
    """Table cell text: '-' for NaN, percents for fractions, 'inf' for
    the drift of a latency series that appeared or vanished."""
    if isinstance(x, float):
        if math.isnan(x):
            return "-"
        if pct:
            return f"{x:.0%}"
        return f"{x:g}" if math.isinf(x) or x == int(x) else f"{x:.2f}"
    return str(x)


#: every plot is this wide with this margin; only the height varies
_WIDTH, _PAD = 640, 45


def _ytick(y: float, text: str) -> str:
    """A horizontal gridline with its label left of the y axis."""
    return (
        f'<line x1="{_PAD}" y1="{y:.1f}" x2="{_WIDTH - _PAD}" y2="{y:.1f}" '
        'stroke="#dde" />'
        f'<text x="{_PAD - 6}" y="{y + 4:.1f}" text-anchor="end" '
        f'font-size="11" fill="#667">{text}</text>'
    )


def _xtick(height: int, x: float, text) -> str:
    """A label under the x axis."""
    return (
        f'<text x="{x:.1f}" y="{height - _PAD + 16}" text-anchor="middle" '
        f'font-size="11" fill="#667">{text}</text>'
    )


def _frame(height, label, xlabel, ylabel, body, below="", above="") -> str:
    """One inline ``<svg>`` plot: the marks painted ``below`` the axes,
    both axes with their labels (``ylabel`` may be None), the marks
    ``above`` them, then the ``body``."""
    rotated = "" if ylabel is None else (
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>'
    )
    return (
        f'<svg width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}" role="img" aria-label="{label}">'
        f"{below}"
        f'<line x1="{_PAD}" y1="{height - _PAD}" x2="{_WIDTH - _PAD}" '
        f'y2="{height - _PAD}" stroke="#99a" />'
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{height - _PAD}" '
        'stroke="#99a" />'
        f'<text x="{_WIDTH / 2:.0f}" y="{height - 8}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>'
        f"{rotated}{above}{body}</svg>"
    )


def _polyline(points, colour: str, dashed: bool) -> str:
    """A 1.5 px line through ``(x, y)`` pixel points."""
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (
        f'<polyline points="{path}" fill="none" stroke="{colour}" '
        f'stroke-width="1.5"{dash} />'
    )


def _table(headers, rows, names=(0,)) -> str:
    """An HTML table.  ``rows`` are ``(css class or "", cells)``; the
    columns in ``names`` hold free text (escaped, left-aligned), the rest
    preformatted numbers.  A row shorter than the header ends in one
    plain cell spanning the remaining columns."""
    out = ["<table><tr>", *(f"<th>{h}</th>" for h in headers), "</tr>"]
    for cls, cells in rows:
        out.append(f'<tr class="{cls}">' if cls else "<tr>")
        span = len(headers) - len(cells) + 1
        for i, cell in enumerate(cells):
            if span > 1 and i == len(cells) - 1:
                out.append(f'<td colspan="{span}">{cell}</td>')
            elif i in names:
                out.append(f'<td class="name">{html.escape(cell)}</td>')
            else:
                out.append(f"<td>{cell}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def _page(title: str, sections) -> str:
    """The self-contained document around a dashboard's sections."""
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head>\n<body>\n"
        + "\n".join(s for s in [f"<h1>{html.escape(title)}</h1>", *sections] if s)
        + "\n</body></html>\n"
    )


def _scatter(cells: list[dict], front_ids: set) -> str:
    """Inline SVG: steer p90 (x) vs goodput (y), pareto front joined."""
    height = 360
    plotted = [c for c in cells if not math.isnan(c["steer_p90_ms"])]
    if not plotted:
        return '<p class="note">no cell produced steering latencies.</p>'
    xmax = max(c["steer_p90_ms"] for c in plotted) * 1.08 or 1.0

    def sx(ms: float) -> float:
        return _PAD + (_WIDTH - 2 * _PAD) * ms / xmax

    def sy(goodput: float) -> float:
        return height - _PAD - (height - 2 * _PAD) * goodput

    # gridlines at goodput quarters and four latency ticks
    ticks = "".join(
        _ytick(sy(frac), f"{frac:.0%}")
        + _xtick(height, sx(xmax * frac), f"{xmax * frac:.1f}")
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    parts = []
    front = sorted(
        (c for c in plotted if c["cell_id"] in front_ids),
        key=lambda c: c["steer_p90_ms"],
    )
    if len(front) > 1:
        parts.append(_polyline(
            ((sx(c["steer_p90_ms"]), sy(c["goodput"])) for c in front), "#2a7", True
        ))
    for cell in plotted:
        on_front = cell["cell_id"] in front_ids
        parts.append(
            f'<circle cx="{sx(cell["steer_p90_ms"]):.1f}" '
            f'cy="{sy(cell["goodput"]):.1f}" r="{5 if on_front else 3.5}" '
            f'fill="{"#2a7" if on_front else "#46c"}" fill-opacity="0.75">'
            f"<title>{html.escape(cell['cell_id'])}\n"
            f"goodput {cell['goodput']:.0%}, "
            f"p90 {cell['steer_p90_ms']:.2f} ms</title></circle>"
        )
    svg = _frame(
        height, "goodput vs steer p90 per cell", "steer p90 (ms)", "goodput",
        "".join(parts), below=ticks,
    )
    skipped = len(cells) - len(plotted)
    if skipped:
        svg += (
            f'<p class="note">{skipped} cell(s) without steering latencies '
            "are not plotted.</p>"
        )
    return svg


def _totals_block(matrix: MatrixReport) -> str:
    t = matrix.totals
    d = t.to_dict()
    bad = ' bad' if t.violations else ""
    quarantined = (
        f'<span class="bad"><b>{len(matrix.quarantined)}</b> '
        "quarantined</span>" if matrix.quarantined else ""
    )
    return (
        f'<p class="totals"><span><b>{t.cells}/{matrix.expected_cells}</b> '
        "cells</span>"
        f"<span><b>{_fmt(t.goodput, pct=True)}</b> goodput "
        f"({t.completed}/{t.sessions} sessions)</span>"
        f"<span><b>{t.ops}</b> steering ops</span>"
        f"<span><b>{t.faults_applied}</b> faults</span>"
        f'<span class="{bad.strip()}"><b>{t.violations}</b> violations</span>'
        f"{quarantined}"
        f"<span><b>{_fmt(d['steer_p90_ms'])}</b> ms steer p90</span>"
        f"<span><b>{_fmt(d['wait_p90_s'])}</b> s wait p90</span></p>"
    )


def _quarantine_panel(matrix: MatrixReport) -> str:
    """Grid holes, named: quarantined cells and never-run cells."""
    if not matrix.quarantined and not matrix.missing:
        return ""
    rows = [
        (q["cell_id"], "quarantined", q["reason"], q["attempts"])
        for q in matrix.quarantined
    ] + [(cell_id, "never ran", "-", "-") for cell_id in matrix.missing]
    return (
        f"<h2>grid holes ({matrix.holes})</h2>"
        '<p class="note">quarantined cells exhausted the supervisor\'s '
        "retry budget and are skipped on resume; every aggregate above "
        "excludes them.</p>"
        + _table(
            ("cell", "state", "reason", "attempts"),
            [("quarantine", row) for row in rows], names=(0, 2),
        )
    )


#: the summary columns the marginal and per-cell tables share:
#: (aggregate key, column header)
_COLUMNS = (
    ("sessions", "sess"), ("goodput", "goodput"), ("ops", "ops"),
    ("violations", "viol"), ("steer_p90_ms", "p90 ms"),
    ("wait_p90_s", "wait90 s"),
)


def _summary_cells(d: dict) -> list[str]:
    return [_fmt(d[key], pct=(key == "goodput")) for key, _ in _COLUMNS]


def _marginal_tables(matrix: MatrixReport) -> str:
    parts = []
    labels = [label for _, label in _COLUMNS]
    for axis in AXES:
        points = matrix.marginals[axis]
        if not points:
            continue
        rows = []
        for name, agg in points.items():
            d = agg.to_dict()
            rows.append(("", [name, d["cells"], *_summary_cells(d)]))
        parts.append(
            f"<h2>by {html.escape(axis)}</h2>"
            + _table(("point", "cells", *labels), rows)
        )
    return "".join(parts)


def _cells_table(matrix: MatrixReport, front_ids: set) -> str:
    rows = [
        ("pareto" if cell["cell_id"] in front_ids else "",
         [cell["cell_id"], *_summary_cells(cell)])
        for cell in matrix.cells
    ]
    return (
        "<h2>cells</h2>"
        '<p class="note">green rows are on the goodput/latency pareto '
        "front.</p>"
        + _table(("cell", *(label for _, label in _COLUMNS)), rows)
    )


def _drift_table(
    matrix: MatrixReport, baseline: MatrixReport, threshold: float
) -> str:
    drift = matrix.diff_marginals(baseline, threshold=threshold)
    rows = [
        ("drift", [
            f"{m['axis']}:{m['point']}",
            f"point only in {'this run' if m['only'] == 'self' else 'baseline'}",
        ])
        for m in drift["missing"]
    ]
    for e in drift["entries"]:
        flagged = e["drift"] > threshold or math.isinf(e["drift"])
        pct = e["metric"] == "goodput"
        rows.append(("drift" if flagged else "", [
            f"{e['axis']}:{e['point']}", e["metric"],
            _fmt(e["other"], pct=pct), _fmt(e["self"], pct=pct),
            _fmt(e["drift"]),
        ]))
    return (
        f"<h2>drift vs. baseline (threshold {threshold:g})</h2>"
        f'<p class="note">{len(drift["exceeded"])} exceeded, '
        f'{len(drift["missing"])} missing of {len(drift["entries"])} '
        "comparisons; red rows exceed the threshold.</p>"
        + _table(
            ("marginal", "metric", "baseline", "this run", "drift"), rows,
            names=(0, 1),
        )
    )


def render_html(
    matrix: MatrixReport,
    baseline: Optional[MatrixReport] = None,
    drift_threshold: float = 0.05,
) -> str:
    """The dashboard page as one HTML string."""
    front_ids = {row["cell_id"] for row in matrix.pareto()}
    sections = [
        _totals_block(matrix),
        _quarantine_panel(matrix),
        "<h2>goodput vs. steer p90</h2>",
        _scatter(matrix.cells, front_ids),
        _marginal_tables(matrix),
    ]
    if baseline is not None:
        sections.append(_drift_table(matrix, baseline, drift_threshold))
    sections.append(_cells_table(matrix, front_ids))
    return _page(f"campaign {matrix.campaign!r} seed {matrix.seed}", sections)


def write_html(path, matrix, baseline=None, drift_threshold: float = 0.05):
    """Render and write the dashboard; returns the path."""
    return journal.replace(
        path, render_html(matrix, baseline=baseline, drift_threshold=drift_threshold)
    )


# -- the search dashboard -----------------------------------------------------
#
# ``python -m repro.campaign search report --store S --html out.html``
# renders the adaptive-search counterpart: objective vs. generation
# (best-of-generation and best-so-far), a proposed-vs-evaluated scatter
# of every assignment the strategy ever tried, and the top-cell table.
# Same rules as the grid page: pure function of the archive, no scripts,
# byte-identical across same-seed runs.

_SEARCH_HEIGHT = 300


def _score_scale(evaluations):
    """Shared y-scale for the search plots: score -> pixel over the real
    (non-quarantined, finite) scores only — :data:`WORST_SCORE`
    sentinels would flatten every real cliff into one pixel.  Returns
    ``(lo, hi, sy)``, or None when nothing real was scored."""
    real = [ev for ev in evaluations if not ev.quarantined]
    scores = [ev.score for ev in real if math.isfinite(ev.score)]
    if not scores:
        return None
    lo, hi = min(scores), max(scores)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5

    def sy(score: float) -> float:
        score = min(max(score, lo), hi)
        return (
            _SEARCH_HEIGHT - _PAD
            - (_SEARCH_HEIGHT - 2 * _PAD) * (score - lo) / (hi - lo)
        )

    return lo, hi, sy


def _objective_curve(archive) -> str:
    """Inline SVG: best score per generation + cumulative best."""
    generations = archive.by_generation()
    scale = _score_scale(archive.evaluations)
    if scale is None or not generations:
        return '<p class="note">no scored evaluations to plot.</p>'
    lo, hi, sy = scale
    n = len(generations)

    def sx(gen: int) -> float:
        return _PAD + (_WIDTH - 2 * _PAD) * (gen + 0.5) / n

    ticks = "".join(
        _ytick(sy(value), f"{value:.3g}")
        for value in (lo + (hi - lo) * i / 4 for i in range(5))
    ) + "".join(_xtick(_SEARCH_HEIGHT, sx(gen), gen) for gen in range(n))
    gen_best, run_best = [], []
    best = math.inf
    for gen, evs in enumerate(generations):
        real = [ev.score for ev in evs
                if not ev.quarantined and math.isfinite(ev.score)]
        if not real:
            continue
        gbest = min(real)
        best = min(best, gbest)
        gen_best.append((gen, gbest))
        run_best.append((gen, best))
    parts = [
        _polyline(((sx(g), sy(s)) for g, s in series), colour, dashed)
        for series, colour, dashed in ((gen_best, "#46c", False), (run_best, "#2a7", True))
        if len(series) > 1
    ]
    for gen, score in gen_best:
        parts.append(
            f'<circle cx="{sx(gen):.1f}" cy="{sy(score):.1f}" r="4" '
            f'fill="#46c"><title>gen {gen}: best {score:.4g}</title></circle>'
        )
    return _frame(
        _SEARCH_HEIGHT, "objective vs generation", "generation",
        "objective (lower = worse for the fabric)", "".join(parts), below=ticks,
    ) + (
        '<p class="note">solid: best of each generation; dashed: best so '
        "far.</p>"
    )


def _search_scatter(archive) -> str:
    """Inline SVG: every proposal, generation (x) vs score (y);
    quarantined proposals drawn as red crosses pinned to the top edge."""
    scale = _score_scale(archive.evaluations)
    if scale is None:
        return ""
    sy = scale[2]
    height = _SEARCH_HEIGHT
    lane = (_WIDTH - 2 * _PAD) / archive.generations
    ticks, parts = [], []
    for gen, evs in enumerate(archive.by_generation()):
        ticks.append(_xtick(height, _PAD + lane * (gen + 0.5), gen))
        if gen:
            ticks.append(
                f'<line x1="{_PAD + lane * gen:.1f}" y1="{_PAD}" '
                f'x2="{_PAD + lane * gen:.1f}" y2="{height - _PAD}" '
                'stroke="#eef" />'
            )
        for slot, ev in enumerate(evs):
            x = _PAD + lane * gen + lane * (slot + 1) / (len(evs) + 1)
            label = html.escape(ev.cell_id)
            if ev.quarantined:
                parts.append(
                    f'<g stroke="#b00020" stroke-width="1.5">'
                    f'<line x1="{x - 4:.1f}" y1="{_PAD - 4}" x2="{x + 4:.1f}" '
                    f'y2="{_PAD + 4}" />'
                    f'<line x1="{x - 4:.1f}" y1="{_PAD + 4}" x2="{x + 4:.1f}" '
                    f'y2="{_PAD - 4}" />'
                    f"<title>{label}\nquarantined</title></g>"
                )
            else:
                parts.append(
                    f'<circle cx="{x:.1f}" cy="{sy(ev.score):.1f}" r="3.5" '
                    'fill="#46c" fill-opacity="0.75">'
                    f"<title>{label}\nscore {ev.score:.4g}</title></circle>"
                )
    svg = _frame(
        height, "every proposal by generation and score", "generation", None,
        "".join(parts), above="".join(ticks),
    )
    if archive.quarantined:
        svg += (
            f'<p class="note">{archive.quarantined} quarantined proposal(s) drawn '
            "as red crosses at the top edge (scored worst-case, excluded "
            "from the scale).</p>"
        )
    return svg


def _search_table(archive, top: int = 12) -> str:
    rows = [
        ("", [
            rank, ev.cell_id, ev.generation, _fmt(ev.score),
            "; ".join(
                f"{path}={_fmt(value)}"
                for path, value in sorted(ev.assignment.items())
            ),
        ])
        for rank, ev in enumerate(archive.best(top), start=1)
    ]
    if not rows:
        return ""
    return (
        "<h2>top cells</h2>"
        '<p class="note">lowest loss first; export them as frozen grid '
        "specs with <code>search export</code>.</p>"
        + _table(("#", "cell", "gen", "score", "assignment"), rows, names=(1, 4))
    )


def render_search_html(archive) -> str:
    """The search dashboard page as one HTML string."""
    spec = archive.spec
    quarantined = archive.quarantined
    bests = archive.best(1)
    best_txt = _fmt(bests[0].score) if bests else "-"
    bad = ' class="bad"' if quarantined else ""
    totals = (
        f'<p class="totals">'
        f"<span><b>{archive.generations}/{spec.generations}</b> "
        "generations</span>"
        f"<span><b>{len(archive.evaluations)}</b> evaluations</span>"
        f"<span{bad}><b>{quarantined}</b> quarantined</span>"
        f"<span><b>{best_txt}</b> best {html.escape(spec.objective.goal)} "
        f"{html.escape(spec.objective.metric)}</span>"
        f"<span><b>{html.escape(spec.strategy.kind)}</b> strategy</span></p>"
    )
    return _page(f"search {spec.name!r} seed {spec.seed}", [
        totals,
        "<h2>objective vs. generation</h2>",
        _objective_curve(archive),
        "<h2>all proposals</h2>",
        _search_scatter(archive),
        _search_table(archive),
    ])


def write_search_html(path, archive):
    """Render and write the search dashboard; returns the path."""
    return journal.replace(path, render_search_html(archive))
