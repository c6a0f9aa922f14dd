"""Per-host firewall policy.

UNICORE's claim to firewall-friendliness (section 3.1) is that *all*
communication is handled "over a single fixed TCP server-port"; VISIT's
weakness is its "dynamic TCP-port selection scheme [which] does not work
well with firewalls" (section 3.2).  To reproduce that trade-off the
firewall must actually block things.
"""

from __future__ import annotations

from typing import Iterable, Optional


class Firewall:
    """Inbound-port policy for a host.

    Parameters
    ----------
    open_ports:
        Ports that accept inbound connections.  ``None`` means *all* ports
        are open (an unfirewalled host); an empty set blocks everything.
    allow_multicast:
        Whether native multicast traffic may cross this firewall.
    """

    def __init__(
        self,
        open_ports: Optional[Iterable[int]] = None,
        allow_multicast: bool = True,
    ) -> None:
        self.open_ports = None if open_ports is None else frozenset(open_ports)
        self.allow_multicast = allow_multicast
        #: saved (open_ports, allow_multicast) while locked down
        self._pre_lockdown: Optional[tuple] = None

    def allows_inbound(self, port: int) -> bool:
        return self.open_ports is None or port in self.open_ports

    # -- mid-simulation transitions ----------------------------------------

    def lockdown(self) -> None:
        """Deny-all transition without rebuilding the host.

        A site's security team reacting to an incident mid-session: every
        inbound port closes and multicast stops crossing.  Established
        connections are not torn down (the policy gates new *connects*),
        which matches how stateful firewalls treat existing flows.
        Idempotent; :meth:`lift_lockdown` restores the previous policy.
        """
        if self._pre_lockdown is None:
            self._pre_lockdown = (self.open_ports, self.allow_multicast)
        self.open_ports = frozenset()
        self.allow_multicast = False

    def lift_lockdown(self) -> None:
        """Restore the policy that was in force before :meth:`lockdown`."""
        if self._pre_lockdown is not None:
            self.open_ports, self.allow_multicast = self._pre_lockdown
            self._pre_lockdown = None

    @classmethod
    def open(cls) -> "Firewall":
        """No restrictions at all."""
        return cls(open_ports=None, allow_multicast=True)

    @classmethod
    def single_port(cls, port: int) -> "Firewall":
        """The HPC-centre policy UNICORE was designed for: one gateway
        port open, no multicast."""
        return cls(open_ports={port}, allow_multicast=False)

    @classmethod
    def closed(cls) -> "Firewall":
        """Deny all inbound (outbound-only site, e.g. behind NAT)."""
        return cls(open_ports=(), allow_multicast=False)

    def __repr__(self) -> str:
        ports = "all" if self.open_ports is None else sorted(self.open_ports)
        return f"Firewall(open_ports={ports}, multicast={self.allow_multicast})"
