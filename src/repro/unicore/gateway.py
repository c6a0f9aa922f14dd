"""The UNICORE Gateway: single-port authenticated entry to an HPC centre.

Section 3.1: gateways act "as point-of-entry into the protected domains
of the HPC centres"; section 3.1's steering extension relies on
"firewall-friendliness; handling of all communication over a single fixed
TCP server-port".

Protocol: the first message on a client connection must be an ``auth``
carrying a certificate; the gateway authenticates it against its trust
store (single sign-on — no later message re-authenticates) and then
relays every subsequent request to the NJS of the addressed vsite,
stamping the authenticated subject into the request so inner tiers never
see raw credentials.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AuthenticationError, ChannelClosed, TimeoutExpired, UnicoreError
from repro.unicore.security import Certificate, TrustStore
from repro.wire.fields import decode_fields

#: what the gateway reads of a relayed request; the NJS decodes the rest
_RELAY_FIELDS = ("vsite", "op")


class Gateway:
    """Single-port relay + authenticator for one protected domain."""

    def __init__(
        self,
        host,
        port: int,
        trust: Optional[TrustStore] = None,
        relay_timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.trust = trust or TrustStore()
        self.relay_timeout = relay_timeout
        #: vsite name -> (host name, port) of its NJS
        self._vsites: dict[str, tuple[str, int]] = {}
        self.sessions_opened = 0
        self.auth_failures = 0
        self.requests_relayed = 0

    def register_vsite(self, name: str, njs_host: str, njs_port: int) -> None:
        if name in self._vsites:
            raise UnicoreError(f"vsite {name!r} already registered")
        self._vsites[name] = (njs_host, njs_port)

    def start(self) -> None:
        self.host.serve(self.port, self._serve)

    # -- per-connection service ------------------------------------------------

    def _serve(self, conn):
        env = self.host.env
        # Authentication handshake (once per connection: single sign-on).
        try:
            msg = yield from conn.recv(timeout=30.0)
        except (TimeoutExpired, ChannelClosed):
            conn.close()
            return
        subject = None
        if isinstance(msg, dict) and msg.get("op") == "auth":
            try:
                doc = msg.get("certificate")
                cert = decode_fields(Certificate, doc, AuthenticationError, "certificate")
                subject = self.trust.authenticate(cert)
            except AuthenticationError as exc:
                self.auth_failures += 1
                conn.send({"ok": False, "error": f"authentication failed: {exc}"})
                conn.close()
                return
            conn.send({"ok": True, "subject": subject})
            self.sessions_opened += 1
        else:
            conn.send({"ok": False, "error": "first message must be auth"})
            conn.close()
            return

        # Relay loop: one persistent internal connection per vsite.
        internal: dict[str, object] = {}
        while True:
            try:
                msg = yield from conn.recv(timeout=None)
            except ChannelClosed:
                for ic in internal.values():
                    ic.close()
                return
            if not isinstance(msg, dict) or not all(
                isinstance(msg.get(key), str) for key in _RELAY_FIELDS
            ):
                conn.send({"ok": False, "error": "malformed request"})
                continue
            vsite = msg["vsite"]
            target = self._vsites.get(vsite)
            if target is None:
                conn.send({"ok": False, "error": f"unknown vsite {vsite!r}"})
                continue
            ic = internal.get(vsite)
            if ic is None or ic.closed:
                try:
                    ic = yield from self.host.connect(
                        target[0], target[1], timeout=self.relay_timeout
                    )
                except Exception as exc:
                    conn.send({"ok": False, "error": f"vsite unreachable: {exc}"})
                    continue
                internal[vsite] = ic
            forward = dict(msg)
            forward["subject"] = subject  # inner tiers trust the gateway
            ic.send(forward)
            try:
                reply = yield from ic.recv(timeout=self.relay_timeout)
            except (TimeoutExpired, ChannelClosed) as exc:
                conn.send({"ok": False, "error": f"vsite failed: {exc}"})
                ic.close()
                internal.pop(vsite, None)
                continue
            self.requests_relayed += 1
            conn.send(reply, size=reply.get("_size") if isinstance(reply, dict) else None)
