"""TCP-like connections over the simulated network.

A :class:`Connection` is a reliable, ordered, message-preserving duplex
channel.  ``send`` is asynchronous (the sending process is not delayed —
buffering is free, as in TCP with ample socket buffers); delivery time is
governed by the directed :class:`~repro.net.network.Link` between the two
hosts.  ``recv`` is a bounded-wait generator, honouring the everything-
has-a-timeout discipline that VISIT imposes on simulation-side code.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.des.resources import Mailbox
from repro.errors import (
    ChannelClosed,
    ConnectionRefused,
    FirewallBlocked,
    HostUnreachable,
    TimeoutExpired,
)
from repro.wire.codec import SCHEMA_SIZERS, approx_size


def wire_size(payload: Any, size: Optional[int] = None) -> int:
    """The simulated wire size of one send: the one place a send is sized.

    Middleware messages are Python objects; their size is either supplied
    explicitly (cost-model numbers), priced from the schema of their exact
    type (:data:`~repro.wire.codec.SCHEMA_SIZERS`: the OGSA envelope and
    the steering control messages), the length of a byte buffer, or
    estimated by the codec's :func:`~repro.wire.codec.approx_size` (exact
    for codec types, a reasonable envelope for dataclass messages).
    """
    if size is not None:
        return int(size)
    sizer = SCHEMA_SIZERS.get(type(payload))
    if sizer is not None:
        return sizer(payload)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    return approx_size(payload)


class _Closed:
    """Sentinel queued onto a mailbox when the peer closes."""

    __slots__ = ()


_CLOSED = _Closed()

#: Wire size of connection-control messages (SYN, ACK, FIN).
CTRL_SIZE = 64

#: How long an un-timed connect waits before concluding the destination is
#: unreachable (the ICMP-less dark-partition case must still be bounded —
#: VISIT's everything-has-a-timeout rule applies to the fabric itself).
UNREACHABLE_GRACE = 3.0


class Connection:
    """One endpoint of an established duplex channel.

    It holds the directed :class:`~repro.net.network.Link` its messages
    cross, resolved once by :func:`open_connection`, and its peer inbox's
    delivery callback: a send looks nothing up.
    """

    __slots__ = (
        "host", "peer_host", "port", "env", "network", "link", "inbox", "peer",
        "_peer_deliver", "closed", "bytes_sent", "messages_sent",
    )  # fmt: skip

    def __init__(self, host, peer_host, port: int, link) -> None:
        self.host = host
        self.peer_host = peer_host
        self.port = port
        self.env = host.env
        self.network = host.network
        self.link = link
        self.inbox = Mailbox(self.env)
        self.peer: Optional["Connection"] = None  # set by _pair
        self._peer_deliver = None
        self.closed = False
        self.bytes_sent = 0
        self.messages_sent = 0

    @staticmethod
    def _pair(a: "Connection", b: "Connection") -> None:
        a.peer = b
        b.peer = a
        a._peer_deliver = b.inbox.deliver
        b._peer_deliver = a.inbox.deliver

    # -- sending -----------------------------------------------------------

    def _deliver(self, item: Any, size: int) -> Optional[float]:
        """Put ``item`` on the wire to the peer's inbox; return its
        delivery time, or None when a partition swallowed it.

        A message sent into a partition is lost on the dark WAN.  The
        sender does not learn (TCP would buffer and retry until its own
        timers fire); the receiver's recv timeout is the failure signal,
        exactly as on a real flaky wide-area link.  Reachability is
        checked on every send, but only a fabric with a partition or an
        isolated host pays for the check.
        """
        network = self.network
        if (network._partitions or network._isolated) and not network.reachable(
            self.host.name, self.peer_host.name
        ):
            network.dropped_messages += 1
            return None
        env = self.env
        now = env.now
        deliver_at = self.link.reserve(size, now)
        env.timeout(deliver_at - now, item).callbacks.append(self._peer_deliver)
        return deliver_at

    def send(self, payload: Any, size: Optional[int] = None) -> float:
        """Queue ``payload`` for delivery; return the delivery time (now,
        if a partition dropped it).

        Never suspends the caller: the cost of a slow network is paid by
        the *receiver's* wait, not the sender (paper section 3.2: sends
        must not disturb the simulation).
        """
        if self.closed:
            raise ChannelClosed(f"send on closed connection to {self.peer_host.name}")
        size = wire_size(payload, size)
        deliver_at = self._deliver(payload, size)
        if deliver_at is None:
            return self.env.now
        self.bytes_sent += size
        self.messages_sent += 1
        return deliver_at

    # -- receiving -----------------------------------------------------------

    def recv(self, timeout: Optional[float] = None):
        """Generator resolving to the next payload.

        Raises :class:`TimeoutExpired` on timeout and
        :class:`ChannelClosed` if the peer closed and the buffer drained.
        """
        ok, item = yield from self.inbox.recv(timeout)
        if not ok:
            raise TimeoutExpired(
                f"recv on {self.host.name}:{self.port} exceeded {timeout}s"
            )
        if isinstance(item, _Closed):
            self.closed = True
            raise ChannelClosed(f"peer {self.peer_host.name} closed the connection")
        return item

    def poll(self) -> tuple[bool, Any]:
        """Non-suspending receive: ``(True, payload)`` or ``(False, None)``
        (with :meth:`send`, the interface a :class:`~repro.net.SyncPipe`
        end shares)."""
        ok, item = self.inbox.try_get()
        if ok and isinstance(item, _Closed):
            self.closed = True
            raise ChannelClosed(f"peer {self.peer_host.name} closed the connection")
        return ok, item

    # -- parked-pump support (see :func:`repro.steering.api.parked_tick`) ----

    def arrival(self):
        """DES event resolving with the next delivered item, consumed from
        the inbox: a parked pump hands it back via :meth:`requeue`."""
        return self.inbox.get()

    def requeue(self, item: Any) -> None:
        """Put a consumed arrival back at the head of the inbox."""
        self.inbox.items.appendleft(item)

    def pending(self) -> int:
        """Number of already-delivered, unread messages."""
        return len(self.inbox)

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.peer is not None and not self.peer.closed:
            # A FIN lost to a partition leaves the peer half-open; it
            # discovers the death through its own recv timeouts.
            self._deliver(_CLOSED, CTRL_SIZE)

    def __repr__(self) -> str:
        return (
            f"Connection({self.host.name} <-> {self.peer_host.name}:{self.port}"
            f"{' closed' if self.closed else ''})"
        )


class Listener:
    """A passive socket: accepted connections arrive in a mailbox."""

    def __init__(self, host, port: int) -> None:
        self.host = host
        self.port = port
        self._backlog = Mailbox(host.env)
        self.accepted = 0

    def accept(self, timeout: Optional[float] = None):
        """Generator resolving to the next inbound :class:`Connection`."""
        ok, conn = yield from self._backlog.recv(timeout)
        if not ok:
            raise TimeoutExpired(
                f"accept on {self.host.name}:{self.port} exceeded {timeout}s"
            )
        self.accepted += 1
        return conn

    @property
    def open(self) -> bool:
        """True while this listener holds its port on its host."""
        return self.host.listeners.get(self.port) is self

    def try_accept(self) -> tuple[bool, Optional[Connection]]:
        return self._backlog.try_get()

    def close(self) -> None:
        self.host.close_port(self.port)

    def _enqueue(self, conn: Connection) -> None:
        self._backlog.put_nowait(conn)

    def __repr__(self) -> str:
        return f"Listener({self.host.name}:{self.port})"


def open_connection(src_host, dst_name: str, port: int, timeout: Optional[float]):
    """Generator implementing the connect handshake (one RTT).

    Firewall / NAT / refused outcomes are decided at the *destination*
    after the SYN propagates, and the error reaches the caller after the
    full round trip — matching what a real connect() experiences.
    """
    env = src_host.env
    network = src_host.network
    network.connect_attempts += 1
    dst_host = network.host(dst_name)

    if not network.reachable(src_host.name, dst_name):
        # The SYN vanishes into the partition; the caller waits out its
        # timeout (or the bounded grace) and learns the path is dark.
        wait = UNREACHABLE_GRACE if timeout is None else min(
            timeout, UNREACHABLE_GRACE
        )
        yield env.timeout(wait)
        raise HostUnreachable(
            f"no path {src_host.name} -> {dst_name} (partitioned)"
        )

    fwd = network.link(src_host.name, dst_name)
    rev = network.link(dst_name, src_host.name)
    syn_at = fwd.reserve(CTRL_SIZE, env.now)
    rtt_done = rev.reserve(CTRL_SIZE, syn_at) - env.now

    if timeout is not None and rtt_done > timeout:
        yield env.timeout(timeout)
        raise TimeoutExpired(
            f"connect {src_host.name} -> {dst_name}:{port} exceeded {timeout}s"
        )
    yield env.timeout(rtt_done)

    # Loopback traffic never crosses the firewall: the gateway and the
    # services behind it live inside the same protected domain.
    if src_host is not dst_host and not dst_host.accepts_inbound(port):
        raise FirewallBlocked(
            f"{dst_name} rejected inbound to port {port} "
            f"(nat={dst_host.nat}, {dst_host.firewall})"
        )
    listener = dst_host.listeners.get(port)
    if listener is None:
        raise ConnectionRefused(f"nothing listening on {dst_name}:{port}")

    local = Connection(src_host, dst_host, port, fwd)
    remote = Connection(dst_host, src_host, port, rev)
    Connection._pair(local, remote)
    listener._enqueue(remote)
    return local
