"""Network topology: hosts and links with latency + serialized bandwidth."""

from __future__ import annotations

from typing import Callable, Optional

from repro.des import Environment
from repro.errors import NetworkError, HostUnreachable
from repro.net.firewall import Firewall


class Link:
    """A directed link with propagation latency and finite bandwidth.

    Bandwidth is modeled with FIFO serialization: each transfer occupies
    the link for ``size / bandwidth`` seconds starting no earlier than the
    end of the previous transfer, then propagates for ``latency`` seconds.
    This captures queueing under load without per-packet simulation.
    """

    def __init__(self, src: str, dst: str, latency: float, bandwidth: float) -> None:
        if latency < 0:
            raise NetworkError(f"negative latency on {src}->{dst}")
        if bandwidth <= 0:
            raise NetworkError(f"non-positive bandwidth on {src}->{dst}")
        self.src = src
        self.dst = dst
        self.latency = latency
        self.bandwidth = bandwidth  # bytes / second
        #: healthy-state values; :meth:`restore` returns to these
        self.base_latency = latency
        self.base_bandwidth = bandwidth
        self._free_at = 0.0
        self.bytes_carried = 0
        self.transfers = 0

    # -- fault injection ---------------------------------------------------

    def degrade(self, latency_factor: float = 1.0,
                bandwidth_factor: float = 1.0) -> None:
        """Worsen the link relative to its *healthy* state.

        ``latency_factor`` multiplies the base latency (>= 1);
        ``bandwidth_factor`` scales the base bandwidth (in (0, 1]).
        Degrades do not stack — each call is absolute against the base,
        and :meth:`restore` heals completely, so transient fault windows
        cannot leave residue.
        """
        if latency_factor < 1.0:
            raise NetworkError(
                f"latency_factor must be >= 1, got {latency_factor}"
            )
        if not 0.0 < bandwidth_factor <= 1.0:
            raise NetworkError(
                f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
            )
        self.latency = self.base_latency * latency_factor
        self.bandwidth = self.base_bandwidth * bandwidth_factor

    def restore(self) -> None:
        """Heal back to the healthy-state latency/bandwidth."""
        self.latency = self.base_latency
        self.bandwidth = self.base_bandwidth

    def reserve(self, nbytes: int, now: float) -> float:
        """Reserve the link for a transfer; return the *delivery* time."""
        start = max(now, self._free_at)
        serialize = nbytes / self.bandwidth
        self._free_at = start + serialize
        self.bytes_carried += nbytes
        self.transfers += 1
        return self._free_at + self.latency

    def __repr__(self) -> str:
        return (
            f"Link({self.src}->{self.dst}, {self.latency * 1e3:.3g} ms, "
            f"{self.bandwidth * 8 / 1e6:.4g} Mbit/s)"
        )


class Host:
    """A named machine on the simulated network."""

    def __init__(
        self,
        network: "Network",
        name: str,
        firewall: Optional[Firewall] = None,
        nat: bool = False,
        multicast: bool = True,
        cpu_count: int = 1,
    ) -> None:
        self.network = network
        self.name = name
        self.firewall = firewall or Firewall.open()
        #: NAT hosts can originate connections but never accept inbound.
        self.nat = nat
        #: whether the site has native multicast (section 2.4 distinguishes
        #: "all participating sites who have native multicast enabled").
        self.multicast = multicast
        self.listeners: dict[int, "Listener"] = {}
        self.cpu_count = cpu_count

    @property
    def env(self) -> Environment:
        return self.network.env

    def listen(self, port: int) -> "Listener":
        from repro.net.channel import Listener

        if port in self.listeners:
            raise NetworkError(f"{self.name}: port {port} already in use")
        listener = Listener(self, port)
        self.listeners[port] = listener
        return listener

    def serve(self, port: int, handler: Callable) -> "Listener":
        """Listen on ``port`` and run one accept loop that spawns
        ``handler(conn)`` as a process per accepted connection.

        Returns the listener.  Closing it leaves the loop parked on its
        backlog, so a listener put back on the host (a healed site
        outage) serves again without a new loop.
        """
        listener = self.listen(port)
        env = self.env

        def accept_loop():
            while True:
                conn = yield from listener.accept()
                env.process(handler(conn))

        env.process(accept_loop())
        return listener

    def close_port(self, port: int) -> None:
        self.listeners.pop(port, None)

    def connect(self, dst: str, port: int, timeout: Optional[float] = None):
        """Generator: open a connection to ``dst:port``.

        Yields DES events; resolves to a :class:`Connection` or raises
        (ConnectionRefused, FirewallBlocked, HostUnreachable,
        TimeoutExpired).
        """
        from repro.net.channel import open_connection

        return open_connection(self, dst, port, timeout)

    def accepts_inbound(self, port: int) -> bool:
        return not self.nat and self.firewall.allows_inbound(port)

    def __repr__(self) -> str:
        return f"Host({self.name!r})"


class Network:
    """Topology container and link-lookup/routing authority.

    Hosts without an explicit link between them communicate over an
    implicit default link (``DEFAULT_LATENCY`` / ``DEFAULT_BANDWIDTH``),
    so scenario builders only need to profile the interesting paths.
    """

    #: Delay for host-local (loopback) traffic.
    LOOPBACK_LATENCY = 10e-6
    LOOPBACK_BANDWIDTH = 10e9 / 8  # 10 Gbit/s in bytes/s
    #: The implicit link between hosts no profile connects: 50 ms, 10 Mbit/s.
    DEFAULT_LATENCY = 0.050
    DEFAULT_BANDWIDTH = 10e6 / 8

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self.connect_attempts = 0
        #: host pairs with no connectivity (WAN partition between sites)
        self._partitions: set[frozenset] = set()
        #: hosts cut off from everyone (site-wide outage)
        self._isolated: set[str] = set()
        #: messages silently lost to partitions/isolation
        self.dropped_messages = 0

    # -- topology building ------------------------------------------------

    def add_host(self, name: str, **kwargs) -> Host:
        if name in self.hosts:
            raise NetworkError(f"duplicate host {name!r}")
        host = Host(self, name, **kwargs)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise HostUnreachable(f"unknown host {name!r}") from None

    def add_link(
        self, a: str, b: str, latency: float, bandwidth: float
    ) -> tuple[Link, Link]:
        """Create the directed link pair between two known hosts.

        A pair that already has a link (added, or made by :meth:`link`)
        is refused: an open connection holds its link, and would keep
        sending over a replaced one.  Degrade a link to change it.
        """
        for name in (a, b):
            if name not in self.hosts:
                raise NetworkError(f"add_link references unknown host {name!r}")
        for key in ((a, b), (b, a)):
            if key in self._links:
                raise NetworkError(f"{key[0]} -> {key[1]} already has a link")
        fwd = Link(a, b, latency, bandwidth)
        rev = Link(b, a, latency, bandwidth)
        self._links[(a, b)] = fwd
        self._links[(b, a)] = rev
        return fwd, rev

    def link(self, src: str, dst: str) -> Link:
        """The directed link used for ``src -> dst`` traffic.

        Loopback and implicit default links are created lazily so their
        traffic counters persist across calls.
        """
        if src not in self.hosts or dst not in self.hosts:
            raise HostUnreachable(f"no route {src!r} -> {dst!r}")
        key = (src, dst)
        found = self._links.get(key)
        if found is not None:
            return found
        if src == dst:
            made = Link(src, dst, self.LOOPBACK_LATENCY, self.LOOPBACK_BANDWIDTH)
        else:
            made = Link(src, dst, self.DEFAULT_LATENCY, self.DEFAULT_BANDWIDTH)
        self._links[key] = made
        return made

    # -- fault state -------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Cut connectivity between two hosts (both directions).

        In-flight messages already scheduled for delivery still arrive
        (they are on the wire); everything sent *after* the cut is lost
        and new connects fail with :class:`~repro.errors.HostUnreachable`.
        """
        for name in (a, b):
            if name not in self.hosts:
                raise NetworkError(f"partition references unknown host {name!r}")
        if a == b:
            raise NetworkError("cannot partition a host from itself")
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    def isolate(self, name: str) -> None:
        """Cut one host off from every other host (site outage)."""
        if name not in self.hosts:
            raise NetworkError(f"isolate references unknown host {name!r}")
        self._isolated.add(name)

    def rejoin(self, name: str) -> None:
        self._isolated.discard(name)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether traffic can currently flow ``src -> dst``."""
        if not self._partitions and not self._isolated:
            # Unfaulted fabric: skip the per-send frozenset allocation —
            # this is every message's fast path outside chaos windows.
            return True
        if src == dst:
            return True  # loopback survives any WAN event
        if src in self._isolated or dst in self._isolated:
            return False
        return frozenset((src, dst)) not in self._partitions

    def links_of(self, name: str) -> list[Link]:
        """Every existing link touching a host (both directions)."""
        return [
            link for (a, b), link in self._links.items()
            if name in (a, b)
        ]

    # -- accounting --------------------------------------------------------

    def bytes_between(self, a: str, b: str) -> int:
        """Bytes carried in both directions between two hosts."""
        total = 0
        for key in ((a, b), (b, a)):
            if key in self._links:
                total += self._links[key].bytes_carried
        return total
