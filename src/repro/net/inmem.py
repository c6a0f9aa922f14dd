"""Synchronous in-memory transport for unit-testing protocol layers.

Protocol code (VISIT messages, OGSA envelopes, steering control) is
written sans-IO where possible; :class:`SyncPipe` lets tests drive both
ends of a conversation without standing up the DES network.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Tuple


class SyncEndpoint:
    """One end of a :class:`SyncPipe`: ``send`` and ``poll``."""

    def __init__(self) -> None:
        self._rx: deque = deque()
        self._peer: Optional["SyncEndpoint"] = None
        self.bytes_sent = 0

    def send(self, payload: Any, size: Optional[int] = None) -> None:
        if size is None and isinstance(payload, (bytes, bytearray)):
            size = len(payload)
        self.bytes_sent += size or 0
        self._peer._rx.append(payload)

    def poll(self) -> Tuple[bool, Any]:
        """Non-blocking receive: ``(True, payload)`` or ``(False, None)``."""
        if self._rx:
            return True, self._rx.popleft()
        return False, None


class SyncPipe:
    """A pair of connected synchronous endpoints."""

    def __init__(self) -> None:
        self.a = SyncEndpoint()
        self.b = SyncEndpoint()
        self.a._peer = self.b
        self.b._peer = self.a
