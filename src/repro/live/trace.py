"""Arrival-trace capture and deterministic replay.

Every arrival the live front end offers — admitted *or* rejected — is
appended to a JSONL trace whose line 1 is a header carrying the server's
fabric configuration (sites, queue bounds, placement policy, pacing
rate).  An arrival record keeps both clocks (wall for forensics, sim
for replay), the SLO class, the offer outcome, and the **complete**
:class:`~repro.fleet.spec.ScenarioSpec` constructor fields — name, seed,
step budget, op mix — so replay re-offers the exact sessions, not
look-alikes minted from a suite.

That closes the loop with the campaign layer: :func:`trace_campaign`
turns a trace file into a one-cell
:class:`~repro.campaign.spec.CampaignSpec` whose arrival axis is the
``trace:`` builder (:func:`repro.campaign.axes.build_arrivals` kind
``"trace-file"``), so a production incident replays byte-identically
under ``python -m repro.campaign run`` — same fabric, same admission
decisions, same :class:`~repro.campaign.matrix.MatrixReport` — across
repeated replays and across worker counts.

The file is a :mod:`repro.util.journal`, as is the campaign
:class:`~repro.campaign.store.ResultStore`: the header is created by tmp
+ ``os.replace``, every record after it is one ``O_APPEND`` write of one
line, so a killed server never leaves a half-written record behind a
committed one; a torn *trailing* line is dropped on load, a corrupt
interior line is refused loudly.  Nothing is fsynced: a trace survives
the death of its process, not of its host.
"""

from __future__ import annotations

import pathlib
from dataclasses import asdict, dataclass, field, make_dataclass
from typing import Optional

from repro.campaign.runner import FABRIC_DEFAULTS
from repro.campaign.spec import AxisPoint, CampaignSpec
from repro.errors import LiveError
from repro.fleet.spec import ScenarioSpec
from repro.load.arrivals import RecordedArrivals
from repro.util import journal
from repro.wire.fields import decode_fields

TRACE_SCHEMA = "repro.live/trace-v1"

#: A live server's config, as :class:`~repro.live.server.LiveServer`
#: takes it and a trace header carries it: the campaign cell's fabric
#: knobs, so a recorded trace replays on the fabric it was captured on,
#: then the server's own.  Only the fabric keys, the placement, the
#: autoscaler and the seed reach the replay cell (:func:`replay_campaign`).
LiveConfig = make_dataclass(
    "LiveConfig",
    [(key, type(value).__name__, field(default=value)) for key, value in FABRIC_DEFAULTS.items()]
    + [
        ("placement", "str", field(default="least-loaded")),
        # ReactiveAutoscaler kwargs, True for defaults, or None/False = off
        ("autoscale", "Any", field(default=None)),
        # sim-seconds per wall-second; None = as fast as possible
        ("rate", "float | None", field(default=1.0)),
        ("seed", "int", field(default=0)),
        # observability (repro.obs): tracing is False, True, or a path the
        # span JSONL is written to on shutdown; breakers is True for the
        # default broker+registry set, a dict of name -> kwargs, or False;
        # quota is a per-tenant inflight cap (None = unlimited)
        ("tracing", "Any", field(default=False)),
        ("metrics", "bool", field(default=True)),
        ("breakers", "Any", field(default=True)),
        ("quota", "int | None", field(default=None)),
    ],
)


def live_config(doc, what: str) -> dict:
    """``doc`` over :class:`LiveConfig`'s defaults, or :class:`LiveError`."""
    return vars(decode_fields(LiveConfig, doc, LiveError, what))


@dataclass
class _Arrival:
    """A record replay reads, as the recorder writes and :func:`load_trace` decodes it."""

    index: int
    wall: float
    sim: float
    cls: str
    outcome: str
    #: the spec's fields, rebuilt by :meth:`Trace.entries`; ``steps`` rides
    #: along, so replay never re-derives a budget whose rule has changed
    spec: dict
    kind: str = "arrival"


@dataclass
class _End:
    sim: float
    wall: float
    arrivals: int
    kind: str = "end"


@dataclass
class _Header:
    kind: str
    schema: str
    config: dict = field(default_factory=dict)


class TraceRecorder:
    """Append-only JSONL recorder for one live run's arrivals."""

    def __init__(self, path: pathlib.Path | str, config: dict) -> None:
        self.path = pathlib.Path(path)
        self.arrivals = 0
        self._closed = False
        header = {"kind": "header", "schema": TRACE_SCHEMA, "config": dict(config)}
        journal.create(self.path, header, fsync=False)

    def _append(self, record: dict) -> None:
        if self._closed:
            raise LiveError(f"{self.path}: trace already closed")
        journal.append(self.path, record, fsync=False)

    def record_arrival(
        self,
        spec: ScenarioSpec,
        sim: float,
        wall: float,
        cls: str,
        outcome: str,
    ) -> dict:
        """One offered session: ``outcome`` is ``queued`` or ``rejected``."""
        if outcome not in ("queued", "rejected"):
            raise LiveError(f"arrival outcome must be queued|rejected, got {outcome!r}")
        record = vars(_Arrival(self.arrivals, wall, sim, cls, outcome, asdict(spec)))
        self.arrivals += 1
        self._append(record)
        return record

    def record_event(self, event: str, sim: float, wall: float, **detail) -> None:
        """An observability breadcrumb (admit/abandon/steer/cancel ...).

        Events carry site affinity and queue waits for forensics; replay
        ignores them — the admission stack re-derives every decision.
        """
        self._append({"kind": "event", "event": event, "sim": sim, "wall": wall, **detail})

    def close(self, sim: float, wall: float) -> None:
        """Seal the trace with an end record (idempotent)."""
        if self._closed:
            return
        self._append(vars(_End(sim, wall, self.arrivals)))
        self._closed = True


@dataclass
class Trace:
    """A loaded trace: header config, arrival records, breadcrumbs."""

    path: pathlib.Path
    config: dict
    arrivals: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    end: Optional[dict] = None
    #: torn trailing lines dropped on load (0 or 1 normally)
    dropped_lines: int = 0

    @property
    def sealed(self) -> bool:
        return self.end is not None

    def entries(self) -> list[tuple[float, ScenarioSpec]]:
        """Every offered arrival as ``(sim_time, spec)``, replay-ready."""
        return [
            (rec["sim"], decode_fields(ScenarioSpec, rec["spec"], LiveError, "trace spec record"))
            for rec in self.arrivals
        ]

    @property
    def horizon(self) -> float:
        """The replay horizon: the sealed end time, else just past the
        last arrival (mirroring :class:`TraceArrivals`)."""
        if self.end is not None and self.arrivals:
            return max(float(self.end["sim"]), self.arrivals[-1]["sim"] + 1e-9)
        if self.arrivals:
            return self.arrivals[-1]["sim"] + 1e-9
        raise LiveError(f"{self.path}: trace recorded no arrivals; nothing to replay")

    def arrival_process(self) -> RecordedArrivals:
        return RecordedArrivals(self.entries(), horizon=self.horizon)


def load_trace(path: pathlib.Path | str) -> Trace:
    """Parse and validate a trace file (tolerating one torn tail line)."""
    path = pathlib.Path(path)
    loaded = journal.load(path, LiveError)
    if not loaded.records:
        raise LiveError(f"{path}: empty trace file")
    head, *rest = loaded.records
    head = decode_fields(_Header, head, LiveError, f"{path}: header")
    if head.kind != "header" or head.schema != TRACE_SCHEMA:
        raise LiveError(f"{path}: first record is not a {TRACE_SCHEMA} header")
    config = live_config(head.config, f"{path}: header config")
    trace = Trace(path=path, config=config, dropped_lines=loaded.dropped_lines)
    expected_index = 0
    for rec in rest:
        kind = rec.get("kind")
        if kind == "arrival":
            if rec.get("index") != expected_index:
                raise LiveError(
                    f"{path}: arrival record out of order "
                    f"(index {rec.get('index')!r}, expected {expected_index})"
                )
            decode_fields(_Arrival, rec, LiveError, f"{path}: arrival record {expected_index}")
            expected_index += 1
            trace.arrivals.append(rec)
        elif kind == "event":
            trace.events.append(rec)
        elif kind == "end":
            if trace.end is not None:
                raise LiveError(f"{path}: duplicate end record")
            decode_fields(_End, rec, LiveError, f"{path}: end record")
            trace.end = rec
        else:
            raise LiveError(f"{path}: unknown trace record kind {kind!r}")
    return trace


def trace_campaign(path: pathlib.Path | str, name: Optional[str] = None):
    """A one-cell :class:`~repro.campaign.spec.CampaignSpec` replaying a
    recorded trace under the fabric configuration it was captured on,
    up to the trace's horizon."""
    trace = load_trace(path)
    spec = replay_campaign(trace.config, path, name)
    spec.base["horizon"] = trace.horizon
    return spec


def replay_campaign(config: dict, path: pathlib.Path | str, name: Optional[str] = None):
    """The replay campaign of a trace recorded at ``path`` by a server
    running ``config``, less the horizon only the finished trace knows —
    the one definition of the replay cell, whose id and seeds a live
    server derives before its trace is written.

    The arrival axis point is named ``trace:<stem>`` and carries the
    ``trace-file`` builder kind, so the cell re-reads the trace at run
    time — in any worker process, at any later date.
    """
    base = {key: config[key] for key in FABRIC_DEFAULTS}
    policy_params: dict = {"placement": config["placement"]}
    if config["autoscale"] not in (None, False):
        policy_params["autoscale"] = config["autoscale"]
    stem = pathlib.Path(path).stem
    return CampaignSpec(
        name=name or f"replay-{stem}",
        seed=config["seed"],
        base=base,
        scenarios=[AxisPoint("live", {})],
        arrivals=[AxisPoint(f"trace:{stem}", {"kind": "trace-file", "path": str(path)})],
        faults=[AxisPoint("none", {})],
        policies=[AxisPoint(config["placement"], policy_params)],
    )
