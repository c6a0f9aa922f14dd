"""Multicast groups and unicast bridges.

Access Grid media (vic/rat) run over IP multicast; section 2.4 separates
sites "who have native multicast enabled" (passive collaboration works out
of the box) from those that need help, and section 4.6 adds
"unicast/multicast bridges and point to point sessions" for firewalled/NAT
virtual-reality sites.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.des.resources import Mailbox
from repro.errors import NetworkError
from repro.net.channel import wire_size
from repro.net.network import Host, Network


class MulticastGroup:
    """A multicast address: one send fans out to every subscribed host.

    The sender pays a single uplink serialization (the defining economy of
    multicast); each receiver then sees its own link latency.  Hosts with
    ``multicast=False`` or a multicast-blocking firewall cannot join
    natively and must go through a :class:`UnicastBridge`.
    """

    def __init__(self, network: Network, address: str) -> None:
        self.network = network
        self.address = address
        self._members: dict[str, Mailbox] = {}
        self.packets_sent = 0
        self.bytes_sent = 0

    def join(self, host: Host) -> Mailbox:
        """Subscribe ``host``; returns the mailbox receiving group traffic."""
        if not host.multicast or not host.firewall.allow_multicast:
            raise NetworkError(
                f"{host.name} has no native multicast; use a UnicastBridge"
            )
        if host.name in self._members:
            return self._members[host.name]
        box = Mailbox(host.env)
        self._members[host.name] = box
        return box

    def leave(self, host: Host) -> None:
        self._members.pop(host.name, None)

    @property
    def members(self) -> list[str]:
        return sorted(self._members)

    def send(self, src: Host, payload: Any, size: Optional[int] = None) -> None:
        """Multicast ``payload`` from ``src`` to all members (except src)."""
        size = wire_size(payload, size)
        env = src.env
        self.packets_sent += 1
        self.bytes_sent += size
        # One uplink serialization on the sender's side...
        uplink = self.network.link(src.name, src.name)
        sent_at = env.now + size / uplink.bandwidth
        for name, box in list(self._members.items()):
            if name == src.name:
                continue
            # ...then per-receiver propagation latency (replication is done
            # by the network, not the sender, so no per-member bandwidth).
            link = self.network.link(src.name, name)
            link.bytes_carried += size
            link.transfers += 1
            delay = (sent_at - env.now) + link.latency
            env.timeout(delay, payload).callbacks.append(box.deliver)


class UnicastBridge:
    """Relays group traffic to/from hosts without native multicast.

    The bridge host joins the group natively and forwards every packet to
    each bridged host over plain unicast — paying full per-receiver
    bandwidth, which is exactly why bridges scale worse than multicast
    (and why the bench for FIG4 can show the difference).
    """

    def __init__(self, group: MulticastGroup, bridge_host: Host) -> None:
        self.group = group
        self.bridge_host = bridge_host
        self._uplink_box = group.join(bridge_host)
        self._bridged: dict[str, Mailbox] = {}
        self.relayed_packets = 0
        self._proc = bridge_host.env.process(self._relay_loop())

    def attach(self, host: Host) -> Mailbox:
        """Bridge ``host`` into the group; returns its receive mailbox."""
        if host.name in self._bridged:
            return self._bridged[host.name]
        box = Mailbox(host.env)
        self._bridged[host.name] = box
        return box

    def detach(self, host: Host) -> None:
        self._bridged.pop(host.name, None)

    def send_from(self, host: Host, payload: Any, size: Optional[int] = None) -> None:
        """Send into the group on behalf of a bridged (unicast-only) host."""
        if host.name not in self._bridged:
            raise NetworkError(f"{host.name} is not attached to this bridge")
        size = wire_size(payload, size)
        env = host.env
        # Unicast hop to the bridge, then native multicast out.
        link = self.group.network.link(host.name, self.bridge_host.name)
        deliver_at = link.reserve(size, env.now)
        env.timeout(deliver_at - env.now, (payload, size)).callbacks.append(self._relay_up)

    def _relay_up(self, event) -> None:
        """Delivery callback of :meth:`send_from`'s unicast hop: the bridge
        multicasts the ``(payload, size)`` the event carries."""
        payload, size = event._value
        self.group.send(self.bridge_host, payload, size)

    def _relay_loop(self):
        env = self.bridge_host.env
        network = self.group.network
        while True:
            payload = yield self._uplink_box.get()
            size = wire_size(payload)
            self.relayed_packets += 1
            # Full unicast fan-out: one serialized transfer per bridged host.
            # Each delivery carries its payload: the next group packet
            # rebinds ``payload`` before this delivery fires.
            for name, box in list(self._bridged.items()):
                link = network.link(self.bridge_host.name, name)
                deliver_at = link.reserve(size, env.now)
                env.timeout(deliver_at - env.now, payload).callbacks.append(box.deliver)
