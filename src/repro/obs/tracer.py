"""Causal sim-time spans for the steering fabric.

A :class:`Tracer` threads one span context through the session
lifecycle — ``session -> admit -> place -> connect -> steer-op ->
viz-frame`` — so an operator can answer *why was this steer slow* with a
tree, not a quantile.  Spans carry **virtual time only**: ids are
assigned in creation order and every timestamp is ``env.now``, so two
same-seed runs emit byte-identical span streams (the DES kernel already
guarantees the creation order).  Wall-time attribution is not a span
concern: ``python3 -m bench.run --trace 1`` reports it per layer.

Export is Chrome-trace/Perfetto JSON events (``ph: "X"`` complete spans,
``ph: "i"`` instants, ``ph: "M"`` thread names), one event per line in
:meth:`Tracer.write_jsonl`.  Each session gets its own ``tid`` lane;
fabric-wide spans (circuit transitions, chaos fault windows) share lane
0.  Parent/child causality rides in ``args.span_id`` / ``args.parent_id``
— Perfetto renders the time nesting, tools read the exact tree.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.errors import ObsError
from repro.util import journal

#: lane name for spans not owned by any one session
FABRIC = "fabric"


class Span:
    """One timed node in the causal tree (sim-time only)."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "cat",
        "session",
        "start",
        "end",
        "attrs",
        "events",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        cat: str,
        session: Optional[str],
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.session = session
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict = {}
        #: instant markers inside this span: (name, sim time, attrs)
        self.events: list[tuple[str, float, dict]] = []


class Tracer:
    """Collects a deterministic span tree over one simulated world."""

    def __init__(self) -> None:
        self._env = None
        self.spans: list[Span] = []
        self._next_id = 1
        #: session name -> root span (the per-session lane anchor)
        self._roots: dict[str, Span] = {}
        #: session name -> admit span (queue wait; parents the lifecycle)
        self._admits: dict[str, Span] = {}

    # -- clock -------------------------------------------------------------

    def bind(self, env) -> "Tracer":
        """Attach the simulated clock (idempotent for the same env)."""
        if self._env is not None and self._env is not env:
            raise ObsError("tracer is already bound to another environment")
        self._env = env
        return self

    @property
    def now(self) -> float:
        if self._env is None:
            raise ObsError("tracer has no environment bound; call bind(env)")
        return self._env.now

    # -- span lifecycle ----------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str = "fabric",
        parent: Optional[Span] = None,
        session: Optional[str] = None,
        **attrs,
    ) -> Span:
        if session is None and parent is not None:
            session = parent.session
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            name,
            cat,
            session,
            self.now,
        )
        self._next_id += 1
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        return span

    def end(self, span: Span, **attrs) -> Span:
        if attrs:
            span.attrs.update(attrs)
        span.end = self.now
        return span

    def event(self, span: Span, name: str, **attrs) -> None:
        """An instant marker inside (and causally under) a span."""
        span.events.append((name, self.now, attrs))

    def instant(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        """A zero-duration span: an instant that still sits in the tree."""
        span = self.begin(name, parent=parent, **attrs)
        span.end = span.start
        return span

    # -- session registry --------------------------------------------------

    def open_session(self, name: str, **attrs) -> Span:
        """Get or create the root span of a session's lane.

        The first component to see the session opens it — the admission
        controller at offer time, or the driver at launch for batch
        fleets — and everything later parents under the same root.
        """
        root = self._roots.get(name)
        if root is None:
            root = self.begin("session", cat="session", session=name, **attrs)
            self._roots[name] = root
        elif attrs:
            root.attrs.update(attrs)
        return root

    def session_root(self, name: str) -> Optional[Span]:
        return self._roots.get(name)

    def record_admit(self, name: str, span: Span) -> Span:
        self._admits[name] = span
        return span

    def admit_span(self, name: str) -> Optional[Span]:
        return self._admits.get(name)

    def close_session(self, name: str, outcome: str) -> None:
        """End a session's root, and every span of its lane still open (a
        cancel mid-connect, mid-find or mid-op), with its outcome."""
        root = self._roots.get(name)
        if root is None or root.end is not None:
            return
        # Ids follow creation order: the lane's spans all follow its root.
        for span in self.spans[root.span_id:]:
            if span.end is None and span.session == name:
                self.end(span, outcome=outcome)
        self.end(root, outcome=outcome)

    # -- introspection -----------------------------------------------------

    def counts(self) -> dict:
        """Span totals by name — the cheap smoke-test surface."""
        by_name: dict[str, int] = {}
        for span in self.spans:
            by_name[span.name] = by_name.get(span.name, 0) + 1
        return {
            "spans": len(self.spans),
            "sessions": len(self._roots),
            "by_name": dict(sorted(by_name.items())),
        }

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def ancestry(self, span: Span) -> list[Span]:
        """The parent chain from ``span`` up to its root, inclusive."""
        by_id = {s.span_id: s for s in self.spans}
        chain = [span]
        while chain[-1].parent_id is not None:
            chain.append(by_id[chain[-1].parent_id])
        return chain

    # -- export ------------------------------------------------------------

    def _lanes(self) -> dict[str, int]:
        """Deterministic tid per lane: fabric is 0, sessions by first use."""
        lanes = {FABRIC: 0}
        for span in self.spans:
            lane = span.session or FABRIC
            if lane not in lanes:
                lanes[lane] = len(lanes)
        return lanes

    def to_events(self) -> list[dict]:
        """Chrome-trace events (``ts``/``dur`` in sim microseconds)."""
        lanes = self._lanes()
        out: list[dict] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": lane},
            }
            for lane, tid in lanes.items()
        ]
        horizon = self.now if self._env is not None else 0.0
        for span in self.spans:
            tid = lanes[span.session or FABRIC]
            end = span.end if span.end is not None else max(horizon, span.start)
            args = {"span_id": span.span_id, "parent_id": span.parent_id}
            if span.end is None:
                args["open"] = True
            args.update(span.attrs)
            out.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "name": span.name,
                    "cat": span.cat,
                    "ts": span.start * 1e6,
                    "dur": (end - span.start) * 1e6,
                    "args": args,
                }
            )
            for name, ts, attrs in span.events:
                iargs = {"span_id": span.span_id}
                iargs.update(attrs)
                out.append(
                    {
                        "ph": "i",
                        "pid": 1,
                        "tid": tid,
                        "name": name,
                        "cat": span.cat,
                        "ts": ts * 1e6,
                        "s": "t",
                        "args": iargs,
                    }
                )
        return out

    def write_jsonl(self, path) -> int:
        """One Chrome-trace event per line; returns the event count.

        Pure sim-time payload, serialized with sorted keys — the
        deterministic artifact the golden tests hash.  Perfetto opens
        JSONL directly.  The file is replaced whole, never left torn.
        """
        events = self.to_events()
        lines = [json.dumps(event, sort_keys=True) + "\n" for event in events]
        journal.replace(path, "".join(lines))
        return len(events)


class NullTracer:
    """The tracer of a fabric built with tracing off (one stateless
    instance, :data:`NULL_TRACER`): it takes every call a :class:`Tracer`
    does, records nothing, and hands back ``None`` where a span would be
    — the very ``None`` instrumented code then passes back in."""

    def _drop(self, *args, **attrs) -> None:
        return None

    bind = begin = end = event = instant = _drop
    open_session = session_root = record_admit = admit_span = close_session = _drop


NULL_TRACER = NullTracer()
