"""2003-era network profiles for the simulated links.

The paper's testbed: UCL -> Manchester over SuperJanet (the UK academic
backbone), VizServer output to a laptop on the Sheffield conference
floor, transatlantic Access Grid sites, CAVEs on campus networks.  The
numbers are era-plausible one-way latencies and usable (not nominal)
bandwidths.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetProfile:
    """One link class: one-way latency (s) and bandwidth (bytes/s)."""

    name: str
    latency: float
    bandwidth: float

    def one_way(self, nbytes: float) -> float:
        """Unloaded delivery time for a message of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth


LAN = NetProfile("lan", 0.0002, 1e9 / 8)
CAMPUS = NetProfile("campus", 0.001, 100e6 / 8)
#: SuperJanet4 backbone between UK sites (UCL <-> Manchester)
SUPERJANET = NetProfile("superjanet", 0.008, 155e6 / 8)
#: UK <-> US links of the era
TRANSATLANTIC = NetProfile("transatlantic", 0.045, 45e6 / 8)
#: the SC'03 show floor uplink
CONFERENCE_FLOOR = NetProfile("conference-floor", 0.005, 10e6 / 8)
#: a home/DSL observer site
DSL = NetProfile("dsl", 0.025, 1e6 / 8)

PROFILES = {
    p.name: p
    for p in (LAN, CAMPUS, SUPERJANET, TRANSATLANTIC, CONFERENCE_FLOOR, DSL)
}


def link_with_profile(network, a: str, b: str, profile: NetProfile):
    """Add the directed link pair between two hosts using a profile."""
    return network.add_link(a, b, latency=profile.latency,
                            bandwidth=profile.bandwidth)
