"""The one header-plus-records JSONL journal under the store and the trace.

A journal file is a header line followed by one line per record, each
line ``dumps(record) + "\\n"``.  Three operations, and no other code in
the package knows how such a file is written or parsed:

* :func:`create` — the header is written whole through :func:`replace`
  (a sibling ``.tmp`` ``os.replace``-d over the path), **once per
  file**, so a path never names a half-written header and a stale file
  at that path is replaced whole.  Durable callers get
  file-then-directory fsync.
* :func:`append` — one complete line in a single ``os.write`` on an
  ``O_APPEND`` descriptor (short writes completed), fsynced before
  returning for durable callers.  The descriptor lives for one call:
  opening costs microseconds and there is no lifecycle to manage.
* :func:`load` — bytes split on ``\\n``; a torn *trailing* line (one the
  writer never terminated) is dropped and counted, a bad line anywhere
  else is refused with the caller's typed error.  Loading never writes.

Beside them sits :func:`replace`, the package's one whole-file writer,
which :func:`create` and every document writer (archives, bench
envelopes, dashboards, span JSONL) go through.

Atomicity is "a record is one write, and an append never lands behind
bytes the loader would not accept".  A kill mid-``write`` leaves a line
without its newline; before the next append writes, such a tail is
repaired — newline-terminated if it parses (the loader reported that
record, so it must not vanish), truncated if it is torn.  A write that
fails (full disk) truncates back to the pre-append size and raises, so
the file holds whole records only.  One writer per file is assumed, as
everywhere in this package.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Optional

#: backwards scan step when looking for the start of an unterminated tail
_TAIL_BLOCK = 1 << 16


@dataclass
class Journal:
    """A loaded journal: every good record, header first."""

    records: list
    #: torn trailing lines dropped (0 or 1)
    dropped_lines: int
    #: byte offset just past the last good record
    size: int


def dumps(record: dict) -> str:
    """The canonical one-line form of a record (sorted keys, compact)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _parse(line: bytes) -> Optional[dict]:
    """The JSON object on one line, or None for anything else."""
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError
        return None
    return record if isinstance(record, dict) else None


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _fsync_dir(directory: pathlib.Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform cannot open directories (e.g. Windows)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def replace(path: pathlib.Path | str, text: str, fsync: bool = False) -> pathlib.Path:
    """Atomically make ``text`` the whole of ``path``; returns the path.

    The package's one whole-file writer: the text lands in a sibling
    ``.tmp`` that is ``os.replace``-d over the path, so a crash leaves
    the old file or the new one, never a torn one.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, text.encode("utf-8"))
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(path.parent)
    return path


def create(path: pathlib.Path | str, header: dict, fsync: bool) -> None:
    """Atomically make ``path`` a journal holding only ``header``."""
    replace(path, dumps(header) + "\n", fsync)


def _repair_tail(fd: int) -> int:
    """Make the file end on a record boundary; returns its size then."""
    size = os.fstat(fd).st_size
    if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
        return size
    start, tail = size, b""
    while start > 0:
        step = min(start, _TAIL_BLOCK)
        block = os.pread(fd, step, start - step)
        cut = block.rfind(b"\n") + 1
        tail = block[cut:] + tail
        start -= step - cut
        if cut:
            break
    if _parse(tail) is not None:
        _write_all(fd, b"\n")
        return size + 1
    os.ftruncate(fd, start)
    return start


def append(path: pathlib.Path | str, record: dict, fsync: bool) -> None:
    """Add one record to an existing journal."""
    data = (dumps(record) + "\n").encode("utf-8")
    # O_RDWR, not O_WRONLY: the tail check reads through the same descriptor
    fd = os.open(path, os.O_RDWR | os.O_APPEND)
    try:
        size = _repair_tail(fd)
        try:
            _write_all(fd, data)
        except OSError:
            os.ftruncate(fd, size)
            raise
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def load(path: pathlib.Path | str, error: type) -> Journal:
    """Parse a journal; damage raises ``error`` (a ``ReproError`` type)."""
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None
    lines = data.split(b"\n")  # the last piece is what follows the last newline
    records, bad = [], []
    dropped = good = 0
    for number, line in enumerate(lines, 1):
        record = _parse(line)
        if record is not None:
            records.append(record)
            good = number
        elif not line.strip():
            continue
        elif number == len(lines):
            dropped = 1  # never terminated: the writer was interrupted
        else:
            bad.append(number)
    if bad:
        # A bad line the writer terminated is damage, not interruption,
        # and skipping it would mis-report what the file held.
        raise error(f"{path}: corrupt non-trailing record(s) at line(s) {bad}")
    size = min(sum(map(len, lines[:good])) + good, len(data))
    return Journal(records=records, dropped_lines=dropped, size=size)
