"""Request brokers: inter-host data transfer.

"Request brokers on each participating host take care of data management,
efficient data transfer and conversion between different platforms ...
Between heterogeneous hardware platform[s] data type conversion is done
by the request brokers which is thus invisible for the application
modules" (section 4.5).  Every host here runs one platform, so a replica
is a copy: no conversion is reproduced.
"""

from __future__ import annotations

import copy

from repro.covise.datamgr import SharedDataSpace
from repro.errors import CoviseError


class RequestBroker:
    """Moves data objects between hosts' shared data spaces.

    Transfers cost virtual time on the network link; same-host handoffs
    are free (that is what the SDS is for).
    """

    def __init__(self, network, spaces: dict[str, SharedDataSpace]) -> None:
        self.network = network
        self.spaces = spaces
        self.transfers = 0
        self.bytes_transferred = 0

    def space(self, host_name: str) -> SharedDataSpace:
        sds = self.spaces.get(host_name)
        if sds is None:
            raise CoviseError(f"no shared data space on host {host_name!r}")
        return sds

    def transfer(self, obj_name: str, src_host: str, dst_host: str):
        """Generator: replicate an object into the destination SDS.

        Resolves to the replica.  Names are unique and objects are
        written once, so a replica the destination already holds is kept.
        Same-host transfer returns the original object untouched and
        costs nothing.
        """
        src = self.space(src_host)
        obj = src.get(obj_name)
        if src_host == dst_host:
            return obj
        dst = self.space(dst_host)
        env = self.network.env
        link = self.network.link(src_host, dst_host)
        deliver_at = link.reserve(obj.nbytes, env.now)
        yield env.timeout(max(0.0, deliver_at - env.now))
        if not dst.exists(obj.name):
            dst.put(copy.deepcopy(obj), creator=f"crb:{src_host}")
        self.transfers += 1
        self.bytes_transferred += obj.nbytes
        return dst.get(obj.name)
