"""The registry service (section 2.3, Figure 2).

"[The steering client] contacts a registry which ha[s] details of the
steering services that have published to the registry...  The client
chooses the services it will require and binds them to the client."

Entries carry the service handle plus free-form metadata (what it steers,
which application, which site).  ``find`` matches on metadata subsets.

At fleet scale (thousands of published handles, a ``find`` per admitted
session) the original linear scan is the hot path, so the registry keeps
an inverted index ``(key, value) -> handles``.  Matching semantics are
unchanged: candidates from the index are re-verified with the exact
equality predicate, values that cannot be hashed fall back to the scan
path, and results stay sorted by handle.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import OgsaError
from repro.ogsa.service import GridService, operation

_EMPTY: frozenset = frozenset()


#: the service id a registry is published under, in every container
REGISTRY_ID = "registry"


class RegistryService(GridService):
    """A GridService whose state is the published-services table."""

    def __init__(self, service_id: str = REGISTRY_ID) -> None:
        super().__init__(service_id)
        self._entries: dict[str, dict] = {}
        #: inverted index over hashable metadata pairs
        self._index: dict[tuple[str, Any], set[str]] = {}
        #: handles carrying at least one unhashable metadata value; these
        #: are always re-checked by scan so indexing stays lossless
        self._unindexed: set[str] = set()
        self.service_data["entry_count"] = 0

    # -- the table, read-only from outside ---------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        """The published handles, in publication order."""
        return iter(self._entries)

    def clear(self) -> int:
        """Lose every entry (a shard wiped by a fault); returns how many."""
        lost = len(self._entries)
        self._entries.clear()
        self._index.clear()
        self._unindexed.clear()
        self.service_data["entry_count"] = 0
        return lost

    # -- index maintenance -------------------------------------------------

    def _index_add(self, handle: str, meta: dict) -> None:
        for k, v in meta.items():
            try:
                self._index.setdefault((k, v), set()).add(handle)
            except TypeError:
                self._unindexed.add(handle)

    def _index_remove(self, handle: str, meta: dict) -> None:
        for k, v in meta.items():
            try:
                bucket = self._index.get((k, v))
            except TypeError:
                continue
            if bucket is not None:
                bucket.discard(handle)
                if not bucket:
                    del self._index[(k, v)]
        self._unindexed.discard(handle)

    def _matches(self, query: dict) -> Iterable[str]:
        buckets = []
        for k, v in query.items():
            try:
                buckets.append(self._index.get((k, v), _EMPTY))
            except TypeError:
                # Unhashable query value: the index cannot answer this
                # pair; fall back to the full scan.
                return self._scan(query, self._entries)
        candidates = set(min(buckets, key=len))
        for bucket in buckets:
            candidates &= bucket
        # Re-verify with the exact predicate (identity-vs-equality corner
        # cases like NaN) and fold in the never-indexed handles.
        return self._scan(query, candidates | self._unindexed)

    def _scan(self, query: dict, handles: Iterable[str]) -> list[str]:
        return [
            h
            for h in handles
            if all(self._entries[h].get(k) == v for k, v in query.items())
        ]

    def _find_naive(self, query: dict | None = None) -> list:
        """Reference linear-scan implementation (regression tests only)."""
        query = query or {}
        out = []
        for handle, meta in sorted(self._entries.items()):
            if all(meta.get(k) == v for k, v in query.items()):
                out.append({"handle": handle, "metadata": dict(meta)})
        return out

    # -- operations --------------------------------------------------------

    @operation
    def publish(self, handle: str, metadata: dict) -> bool:
        """Register (or refresh) a service under its GSH string."""
        if not isinstance(handle, str) or not handle.startswith("gsh://"):
            raise OgsaError(f"publish needs a GSH string, got {handle!r}")
        if not isinstance(metadata, dict):
            raise OgsaError("metadata must be a struct")
        old = self._entries.get(handle)
        if old is not None:
            self._index_remove(handle, old)
        self._entries[handle] = dict(metadata)
        self._index_add(handle, self._entries[handle])
        self.service_data["entry_count"] = len(self._entries)
        return True

    @operation
    def unpublish(self, handle: str) -> bool:
        meta = self._entries.pop(handle, None)
        if meta is None:
            raise OgsaError(f"handle {handle!r} is not published")
        self._index_remove(handle, meta)
        self.service_data["entry_count"] = len(self._entries)
        return True

    @operation
    def find(self, query: dict | None = None) -> list:
        """Entries whose metadata contains all (key, value) pairs of the
        query; empty query lists everything."""
        query = query or {}
        if not query:
            matched: Iterable[str] = self._entries
        else:
            matched = self._matches(query)
        return [
            {"handle": h, "metadata": dict(self._entries[h])}
            for h in sorted(matched)
        ]

    @operation
    def lookup(self, handle: str) -> dict:
        meta = self._entries.get(handle)
        if meta is None:
            raise OgsaError(f"handle {handle!r} is not published")
        return dict(meta)
