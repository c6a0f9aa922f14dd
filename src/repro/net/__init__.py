"""Simulated wide-area network substrate.

Models the 2003-era Grid fabric the paper ran on: named hosts joined by
links with latency and bandwidth (with FIFO serialization, so concurrent
transfers queue), TCP-like connections with listeners, per-host firewalls
and NAT (section 4.6 notes VR sites "are often behind firewalls which do
not support multicast and sometimes even do NAT"), multicast groups and
unicast bridges.

Everything runs in virtual time on :mod:`repro.des`, which makes latency
budgets (sections 4.2-4.4) exactly measurable and deterministic.
"""

from repro.net.channel import Connection, Listener
from repro.net.firewall import Firewall
from repro.net.multicast import MulticastGroup, UnicastBridge
from repro.net.network import Host, Link, Network
from repro.net.inmem import SyncPipe

__all__ = [
    "Network",
    "Host",
    "Link",
    "Connection",
    "Listener",
    "Firewall",
    "MulticastGroup",
    "UnicastBridge",
    "SyncPipe",
]
