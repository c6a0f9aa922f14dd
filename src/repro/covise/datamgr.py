"""Shared data spaces: per-host object stores with unique names.

"The underlying data management takes care of assigning system-wide
unique names to data generated during a session in the shared data
spaces: the shared data space (SDS) is used on a single host for the
exchange of data objects between the locally running modules to minimize
copying overhead" (section 4.5).  Locality is the point: handing an
object to another module on the same host is free; crossing hosts goes
through the request broker.
"""

from __future__ import annotations


from repro.covise.dataobj import DataObject
from repro.errors import CoviseError
from repro.util.ids import IdAllocator


class SharedDataSpace:
    """One host's object store."""

    def __init__(self, host_name: str) -> None:
        self.host_name = host_name
        self._objects: dict[str, DataObject] = {}
        self._names = IdAllocator(f"{host_name}-obj")
        self.bytes_stored = 0

    def unique_name(self, stem: str) -> str:
        """System-wide unique name: host-scoped allocator + stem."""
        return f"{self._names.next()}-{stem}"

    def put(self, obj: DataObject, creator: str = "") -> str:
        if obj.name in self._objects:
            raise CoviseError(
                f"object name {obj.name!r} already exists in SDS of "
                f"{self.host_name} (names must be unique)"
            )
        obj.creator = creator
        self._objects[obj.name] = obj
        self.bytes_stored += obj.nbytes
        return obj.name

    def get(self, name: str) -> DataObject:
        obj = self._objects.get(name)
        if obj is None:
            raise CoviseError(f"no object {name!r} in SDS of {self.host_name}")
        return obj

    def exists(self, name: str) -> bool:
        return name in self._objects
