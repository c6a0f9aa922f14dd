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
    natively and must go through a :class:`UnicastBridge`, which is a
    member itself: the group hands it each packet with its size and
    sender.
    """

    def __init__(self, network: Network, address: str) -> None:
        self.network = network
        self.address = address
        #: host name -> its Mailbox, or the UnicastBridge that host runs
        self._members: dict[str, Any] = {}
        self.packets_sent = 0
        self.bytes_sent = 0

    def _admit(self, host: Host) -> None:
        if not host.multicast or not host.firewall.allow_multicast:
            raise NetworkError(
                f"{host.name} has no native multicast; use a UnicastBridge"
            )

    def join(self, host: Host) -> Mailbox:
        """Subscribe ``host``; returns the mailbox receiving group traffic."""
        self._admit(host)
        member = self._members.get(host.name)
        if member is None:
            member = self._members[host.name] = Mailbox(host.env)
        elif type(member) is UnicastBridge:
            raise NetworkError(f"{host.name} is a bridge of {self.address}")
        return member

    def leave(self, host: Host) -> None:
        self._members.pop(host.name, None)

    @property
    def members(self) -> list[str]:
        return sorted(self._members)

    def send(self, src: Host, payload: Any, size: Optional[int] = None) -> None:
        """Multicast ``payload`` from ``src`` to all members (except src).

        A bridge host's own packet also goes out to its bridged hosts."""
        size = wire_size(payload, size)
        self._fan_out(src, payload, size)
        own = self._members.get(src.name)
        if type(own) is UnicastBridge:
            own._forward(payload, size, src.name)

    def _fan_out(self, src: Host, payload: Any, size: int) -> None:
        """One native multicast from ``src`` to every other member."""
        env = src.env
        self.packets_sent += 1
        self.bytes_sent += size
        # One uplink serialization on the sender's side...
        uplink = self.network.link(src.name, src.name)
        sent_at = env.now + size / uplink.bandwidth
        for name, member in list(self._members.items()):
            if name == src.name:
                continue
            # ...then per-receiver propagation latency (replication is done
            # by the network, not the sender, so no per-member bandwidth).
            link = self.network.link(src.name, name)
            link.bytes_carried += size
            link.transfers += 1
            delay = (sent_at - env.now) + link.latency
            if type(member) is UnicastBridge:
                packet = (payload, size, src.name)
                env.timeout(delay, packet).callbacks.append(member._relay)
            else:
                env.timeout(delay, payload).callbacks.append(member.deliver)


class UnicastBridge:
    """Relays group traffic to/from hosts without native multicast.

    The bridge host is a native member of the group and forwards every
    packet to each bridged host over plain unicast — paying full
    per-receiver bandwidth, which is exactly why bridges scale worse than
    multicast (and why the bench for FIG4 can show the difference).  A
    packet keeps the size its sender gave on every hop, and a bridged
    sender's packet reaches the group and the other bridged hosts, never
    the sender again.
    """

    def __init__(self, group: MulticastGroup, bridge_host: Host) -> None:
        group._admit(bridge_host)
        if bridge_host.name in group._members:
            raise NetworkError(f"{bridge_host.name} is already in {group.address}")
        self.group = group
        self.bridge_host = bridge_host
        self._bridged: dict[str, Mailbox] = {}
        self.relayed_packets = 0
        group._members[bridge_host.name] = self

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
        packet = (payload, size, host.name)
        env.timeout(deliver_at - env.now, packet).callbacks.append(self._relay_up)

    def _relay_up(self, event) -> None:
        """Delivery callback of :meth:`send_from`'s unicast hop: the bridge
        multicasts the packet, then relays it to the other bridged hosts."""
        payload, size, sender = event._value
        self.group._fan_out(self.bridge_host, payload, size)
        self._forward(payload, size, sender)

    def _relay(self, event) -> None:
        """Delivery callback of a ``(payload, size, sender)`` packet at the
        bridge."""
        self._forward(*event._value)

    def _forward(self, payload: Any, size: int, sender: str) -> None:
        """One unicast transfer to each bridged host but ``sender``."""
        env = self.bridge_host.env
        network = self.group.network
        self.relayed_packets += 1
        for name, box in list(self._bridged.items()):
            if name == sender:
                continue
            link = network.link(self.bridge_host.name, name)
            deliver_at = link.reserve(size, env.now)
            env.timeout(deliver_at - env.now, payload).callbacks.append(box.deliver)
