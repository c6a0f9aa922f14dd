"""The VISIT extension to UNICORE (section 3.3).

"We have designed and implemented a connection-oriented protocol on top
of the UNICORE protocol.  The simulation-end of that connection is formed
by VISIT proxy-servers which are separate processes running on each
target system.  The other end ... is located at the UNICORE client,
implemented as a client-plugin and acting as a VISIT proxy-client.  By
polling the target system for new data, that plugin is able to emulate
the server capabilities that are required for the VISIT connection."

Collaboration lives *in the proxy* ("for the VISIT-UNICORE extension this
functionality has been moved into the VISIT proxy-server ... all users
participating in the collaboration have to authenticate to the UNICORE
system"): every polling participant receives all simulation data; only
the master's responses answer the simulation's receive-requests.

The steered application itself uses the ordinary
:class:`~repro.visit.client.VisitClient` pointed at the proxy's local
port — "any application that uses VISIT will be able to use the
VISIT-UNICORE extension without modifications".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ChannelClosed, CodecError, TimeoutExpired, UnicoreError
from repro.unicore.client import UnicoreClient
from repro.visit.messages import DataResponse, DataSend
from repro.visit.protocol import VisitService
from repro.visit.token import MasterToken
from repro.wire.fields import decode_fields


@dataclass
class _PollResponse:
    """The master's answer to one forwarded receive-request."""

    tag: int
    seq: int
    payload: Any


class VisitProxyServer(VisitService):
    """Runs on the target system; the simulation's local VISIT peer."""

    name = "visit-proxy"

    def __init__(self, host, port: int, password: str) -> None:
        super().__init__(host, port, password)
        #: every DataSend from the simulation, in order: (time, tag, payload)
        self.outbox: list[tuple[float, int, Any]] = []
        #: simulation receive-requests awaiting a master response
        self._pending: list[dict] = []
        #: polling participants (name -> their cursor into the outbox)
        #: and the master
        self._token = MasterToken()

    # -- collaboration roles ---------------------------------------------------

    @property
    def master(self) -> Optional[str]:
        return self._token.holder

    def pass_master(self, to_name: str) -> None:
        if not self._token.pass_to(to_name):
            raise UnicoreError(f"unknown participant {to_name!r}")

    def participants(self) -> list[str]:
        return list(self._token.members)

    # -- simulation-facing VISIT service -------------------------------------------

    def _answer(self, conn, msg):
        if isinstance(msg, DataSend):
            self.outbox.append((self.host.env.now, msg.tag, msg.payload))
        else:
            # Park until the master's poll supplies an answer; the
            # *simulation's own timeout* bounds its wait, so parking
            # here costs the proxy nothing.
            self._pending.append({"tag": msg.tag, "seq": msg.seq, "conn": conn})
        return
        yield  # pragma: no cover - generator marker

    # -- NJS-facing poll handling ------------------------------------------------

    def handle_poll(self, subject: str, client: str, responses: list) -> dict:
        """The reply to one poll (called through the NJS).

        ``responses`` are the master's answers to previously forwarded
        receive-requests: ``[{"tag": t, "seq": s, "payload": p}, ...]``;
        anything else is refused, as the NJS refuses a malformed request.
        """
        if not subject:
            return {"ok": False, "error": "unauthenticated poll"}
        try:
            answers = [
                decode_fields(_PollResponse, r, UnicoreError, "poll response") for r in responses
            ]
        except UnicoreError as exc:
            return {"ok": False, "error": f"malformed proxy poll: {exc}"}
        # All participants receive every sample (fan-out via cursors);
        # the first poll joins, and the first joiner holds the token.
        cursor = self._token.members.get(client, 0)
        self._token.join(client, len(self.outbox))
        is_master = client == self._token.holder
        if answers and is_master:
            self._apply_responses(answers)
        new_items = [
            {"tag": tag, "payload": payload, "sent_at": t}
            for (t, tag, payload) in self.outbox[cursor:]
        ]
        requests = [{"tag": r["tag"], "seq": r["seq"]} for r in self._pending]
        return {
            "ok": True,
            "data": new_items,
            "master": self._token.holder,
            "requests": requests if is_master else [],
        }

    def _apply_responses(self, answers: list) -> None:
        for answer in answers:
            key = (answer.tag, answer.seq)
            matched = next((r for r in self._pending if (r["tag"], r["seq"]) == key), None)
            if matched is None:
                continue  # simulation already gave up on it
            self._pending.remove(matched)
            if matched["conn"].closed:
                continue
            try:
                self._send(matched["conn"], DataResponse(*key, True, payload=answer.payload))
            except CodecError:
                pass  # a payload VISIT cannot carry: the simulation times out


class VisitUnicorePlugin:
    """The UNICORE-client plugin acting as VISIT proxy-client.

    Polls the target system through the gateway every ``poll_interval``
    seconds; received samples go to ``on_data``; the simulation's
    receive-requests are answered from per-tag ``providers`` (mirroring
    what a real steering panel would supply).
    """

    def __init__(
        self,
        client: UnicoreClient,
        vsite: str,
        name: str,
        poll_interval: float = 0.5,
    ) -> None:
        if poll_interval <= 0:
            raise UnicoreError("poll interval must be positive")
        self.client = client
        self.vsite = vsite
        self.name = name
        self.poll_interval = poll_interval
        self.providers: dict[int, Callable[[], Any]] = {}
        self.received: dict[int, list] = defaultdict(list)
        self.on_data: Optional[Callable[[int, Any], None]] = None
        #: observed delivery latency of each sample (poll lag + transport)
        self.delivery_latencies: list[float] = []
        self.is_master = False
        self.stopped = False
        self.polls = 0

    def provide(self, tag: int, provider: Callable[[], Any]) -> None:
        self.providers[tag] = provider

    def start(self) -> None:
        self.client.host.env.process(self._poll_loop())

    def stop(self) -> None:
        self.stopped = True

    def _poll_loop(self):
        env = self.client.host.env
        pending_answers: list[dict] = []
        while not self.stopped:
            try:
                reply = yield from self.client.request(
                    {
                        "op": "proxy_poll",
                        "vsite": self.vsite,
                        "client": self.name,
                        "responses": pending_answers,
                    }
                )
            except (UnicoreError, TimeoutExpired, ChannelClosed):
                yield env.timeout(self.poll_interval)
                continue
            pending_answers = []
            self.polls += 1
            if reply.get("ok"):
                self.is_master = reply.get("master") == self.name
                for item in reply.get("data", []):
                    tag, payload = item["tag"], item["payload"]
                    self.received[tag].append(payload)
                    self.delivery_latencies.append(env.now - item["sent_at"])
                    if self.on_data is not None:
                        self.on_data(tag, payload)
                for req in reply.get("requests", []):
                    provider = self.providers.get(req["tag"])
                    if provider is not None:
                        pending_answers.append(
                            {
                                "tag": req["tag"],
                                "seq": req["seq"],
                                "payload": provider(),
                            }
                        )
            if pending_answers:
                # Answer steering requests promptly rather than waiting a
                # full interval — latency here is simulation wait time.
                continue
            yield env.timeout(self.poll_interval)
