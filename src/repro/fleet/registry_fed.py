"""A sharded/federated registry front-end over :mod:`repro.ogsa.registry`.

Fleet scale means thousands of published handles and a registry ``find``
on every session admission.  Two pressures follow:

* one registry instance becomes a hot shard — so entries are spread over
  K :class:`RegistryService` shards by a stable hash of the handle;
* every service site needs a local registry endpoint — so any number of
  :class:`FederatedRegistry` front-ends can be deployed over the *same*
  shard set, and a publish through one site is immediately visible to a
  ``find`` at every other (the shards stand in for the shared backing
  stores a real federation would replicate).

The front-end exposes the exact RegistryService portType (publish /
unpublish / find / lookup), so orchestrators and steering clients are
oblivious to the sharding.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.errors import OgsaError
from repro.ogsa.registry import REGISTRY_ID, RegistryService
from repro.ogsa.service import GridService, operation


def shard_index(handle: str, n_shards: int) -> int:
    """Stable handle -> shard routing (crc32, not the seeded ``hash``).

    The single source of truth: every front-end's :meth:`shard_for` and
    :func:`grow_shards`'s rebalance must agree bit-for-bit, or moved
    entries become unreachable to ``lookup``.
    """
    return zlib.crc32(handle.encode("utf-8")) % n_shards


def grow_shards(shards: list[RegistryService]) -> RegistryService:
    """Append one shard to a shared shard list and rebalance it.

    Every front-end over ``shards`` keeps the list itself, so the new
    shard is visible to all of them at once; entries whose route changed
    move, or ``lookup`` would miss them.  Scatter-gather ``find`` is
    unaffected during the move because an entry is always in exactly
    one shard.
    """
    shard = RegistryService(f"registry-shard-{len(shards)}")
    shards.append(shard)
    n = len(shards)
    moves = []
    for idx, src in enumerate(shards[:-1]):
        for handle in src:
            new_idx = shard_index(handle, n)
            if new_idx != idx:
                moves.append((src, shards[new_idx], handle))
    for src, dst, handle in moves:
        meta = src.lookup(handle)
        src.unpublish(handle)
        dst.publish(handle, meta)
    return shard


def make_shards(count: int, prefix: str = "registry-shard") -> list[RegistryService]:
    """A fresh shard set, shareable between several front-ends."""
    if count < 1:
        raise OgsaError("a federated registry needs >= 1 shard")
    return [RegistryService(f"{prefix}-{i}") for i in range(count)]


class FederatedRegistry(GridService):
    """RegistryService-compatible front-end over a set of shards."""

    def __init__(
        self,
        service_id: str = REGISTRY_ID,
        shards: int | list[RegistryService] = 4,
    ) -> None:
        super().__init__(service_id)
        if isinstance(shards, int):
            shards = make_shards(shards, prefix=f"{service_id}-shard")
        #: the shard list itself, not a copy: every front-end over one
        #: list sees :func:`grow_shards` at once
        self.shards: list[RegistryService] = shards
        if not self.shards:
            raise OgsaError("a federated registry needs >= 1 shard")
        self.service_data["shard_count"] = len(self.shards)
        self.service_data["entry_count"] = self.entry_count

    # -- routing -----------------------------------------------------------

    def shard_for(self, handle: str) -> RegistryService:
        """Stable handle -> shard mapping via :func:`shard_index`."""
        return self.shards[shard_index(handle, len(self.shards))]

    @property
    def entry_count(self) -> int:
        return sum(map(len, self.shards))

    def _note_size(self) -> None:
        self.service_data["entry_count"] = self.entry_count

    @operation
    def get_service_data(self, name: str = ""):
        # Another front-end may have written the shared shards (or
        # grow_shards may have grown the shard set) since this one last did;
        # refresh the cached counts before answering.
        self._note_size()
        self.service_data["shard_count"] = len(self.shards)
        return super().get_service_data(name)

    # -- the RegistryService portType -------------------------------------

    @operation
    def publish(self, handle: str, metadata: dict) -> bool:
        if not isinstance(handle, str):
            raise OgsaError(f"publish needs a GSH string, got {handle!r}")
        ok = self.shard_for(handle).publish(handle, metadata)
        self._note_size()
        return ok

    @operation
    def unpublish(self, handle: str) -> bool:
        if not isinstance(handle, str):
            raise OgsaError(f"unpublish needs a GSH string, got {handle!r}")
        ok = self.shard_for(handle).unpublish(handle)
        self._note_size()
        return ok

    @operation
    def find(self, query: Optional[dict] = None) -> list:
        """Scatter the query to every shard, gather, merge sorted."""
        results: list = []
        for shard in self.shards:
            results.extend(shard.find(query))
        results.sort(key=lambda e: e["handle"])
        return results

    @operation
    def lookup(self, handle: str) -> dict:
        if not isinstance(handle, str):
            raise OgsaError(f"lookup needs a GSH string, got {handle!r}")
        return self.shard_for(handle).lookup(handle)

    # -- introspection -----------------------------------------------------

    def shard_sizes(self) -> list[int]:
        return [len(s) for s in self.shards]
