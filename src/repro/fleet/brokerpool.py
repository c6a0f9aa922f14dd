"""A load-balanced pool of VISIT vbrokers for collaborative fan-out.

One vbroker multiplexes one simulation to k visualizations (paper section
3.3).  A fleet of collaborative sessions needs many, and they should not
all land on one host — so the pool places each session on the
least-loaded broker and handles the master-token when participants die:
if a session's master visualization is gone, the token moves to the next
live participant instead of stalling every steer request into timeouts.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import VisitError
from repro.obs.protect import NULL_BREAKER
from repro.obs.tracer import NULL_TRACER
from repro.visit.vbroker import VBroker


class BrokerPool:
    """Least-loaded placement of sessions onto a fixed broker set."""

    def __init__(self, brokers: list[VBroker]) -> None:
        if not brokers:
            raise VisitError("broker pool needs at least one broker")
        self.brokers = list(brokers)
        #: session name -> broker index
        self._placement: dict[str, int] = {}
        #: sessions re-placed off a dead broker (chaos recovery metric)
        self.failovers = 0
        #: set by Observability.attach_pool; until then the null twins
        self.tracer = NULL_TRACER
        self.breaker = NULL_BREAKER

    @classmethod
    def build(
        cls,
        net,
        host_names: list[str],
        port: int = 7000,
        password: str = "fleet",
    ) -> "BrokerPool":
        """Create and start one vbroker per named host."""
        brokers = []
        for host_name in host_names:
            broker = VBroker(net.host(host_name), port, password)
            broker.start()
            brokers.append(broker)
        return cls(brokers)

    # -- placement ---------------------------------------------------------

    def load(self, idx: int) -> tuple[int, int]:
        """Load key of a broker: (assigned sessions, live participants)."""
        broker = self.brokers[idx]
        assigned = sum(1 for b in self._placement.values() if b == idx)
        return (assigned, len(broker.participants()))

    def place(self, session: str) -> VBroker:
        """Assign a session to the least-loaded *live* broker.

        Stable on repeat for an already-placed session.  Dead brokers
        (listener closed — host crashed or drained) are skipped; live
        candidates are pruned first (:meth:`VBroker.prune_dead`) so the
        load key counts only live participants.  When every broker in
        the pool is dead there is nowhere to place the session and a
        :class:`VisitError` says so explicitly.
        """
        if session in self._placement:
            return self.brokers[self._placement[session]]
        self.breaker.guard(f"broker placement for {session!r}")
        live = [i for i, b in enumerate(self.brokers) if b.alive]
        if not live:
            self.breaker.record_failure()
            raise VisitError(
                f"cannot place session {session!r}: all "
                f"{len(self.brokers)} vbrokers in the pool are dead"
            )
        for i in live:
            self.brokers[i].prune_dead()
        idx = min(live, key=lambda i: (self.load(i), i))
        self._placement[session] = idx
        self.breaker.record_success()
        self.tracer.instant(
            "place",
            parent=self.tracer.session_root(session),
            broker=idx,
            host=self.brokers[idx].host.name,
        )
        return self.brokers[idx]

    def broker_for(self, session: str) -> VBroker:
        idx = self._placement.get(session)
        if idx is None:
            raise VisitError(f"session {session!r} has no broker placement")
        return self.brokers[idx]

    def live_brokers(self) -> list[int]:
        return [i for i, b in enumerate(self.brokers) if b.alive]

    def sessions_on(self, idx: int) -> list[str]:
        return sorted(s for s, b in self._placement.items() if b == idx)

    def replace(self, session: str) -> VBroker:
        """Fail a session over to a live broker after its broker died.

        Drops the stale placement and places anew (least-loaded among
        live brokers); participants must be re-added through the new
        broker by the caller — the dead broker's downstream connections
        died with it.  Raises :class:`VisitError` when no live broker
        remains (nothing to fail over to).
        """
        old = self._placement.pop(session, None)
        broker = self.place(session)
        if old is not None:
            self.failovers += 1
        return broker

    def release(self, session: str) -> None:
        self._placement.pop(session, None)

    def placements(self) -> dict[str, int]:
        return dict(self._placement)

    # -- participants ------------------------------------------------------

    def add_visualization(self, session: str, viz_name: str,
                          server_host: str, port: int):
        """Generator: connect a participant through the session's broker."""
        broker = self.broker_for(session)
        result = yield from broker.add_visualization(viz_name, server_host, port)
        return result

    def ensure_master(self, session: str) -> Optional[str]:
        """Master-token-aware failover for one session's broker.

        Drops participants whose connection has died; if the master was
        among them, the broker hands the token to the next live
        participant (VBroker's removal rule).  Returns the master after
        repair, or None when nobody is left to steer.
        """
        broker = self.broker_for(session)
        broker.prune_dead()
        return broker.master

    # -- introspection -----------------------------------------------------

    def stats(self) -> list[dict]:
        out = []
        for i, broker in enumerate(self.brokers):
            assigned, participants = self.load(i)
            out.append(
                {
                    "host": broker.host.name,
                    "port": broker.port,
                    "sessions": assigned,
                    "participants": participants,
                    "master": broker.master,
                    "fanout_messages": broker.fanout_messages,
                }
            )
        return out
