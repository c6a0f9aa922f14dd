"""USpace: the per-job working directory on the target system."""

from __future__ import annotations

from repro.errors import UnicoreError


class USpace:
    """An isolated in-memory job directory: filename -> bytes."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self._files: dict[str, bytes] = {}

    def write(self, filename: str, data: bytes) -> None:
        if not filename or filename.startswith("/") or ".." in filename:
            raise UnicoreError(f"illegal USpace filename {filename!r}")
        self._files[filename] = bytes(data)

    def read(self, filename: str) -> bytes:
        try:
            return self._files[filename]
        except KeyError:
            raise UnicoreError(
                f"no file {filename!r} in USpace of {self.job_id}"
            ) from None

    def exists(self, filename: str) -> bool:
        return filename in self._files

    def listing(self) -> list[str]:
        return sorted(self._files)

    def total_bytes(self) -> int:
        return sum(len(v) for v in self._files.values())
