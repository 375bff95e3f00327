"""One durable append-only log behind every journal and ledger
(DESIGN.md §11, "Durable logs").

* **Frame** — one record per line, ``<json>\\t<crc32 as 8 hex digits>``.
  ``json.dumps`` escapes control characters, so the tab never occurs in
  the JSON text; unframed (legacy) lines still parse.  Level-2 run
  streams share the frame.
* **Tail** — a final line without ``\\n`` is an append a crash tore or
  one still in progress elsewhere: :meth:`DurableLog.records` ignores it
  and the next :meth:`DurableLog.append` cuts it off before writing.
* **Corruption** — a *complete* line whose CRC or JSON fails raises
  :class:`~repro.core.errors.StorageError` naming the file and line.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.errors import StorageError

__all__ = ["DurableLog", "fsync_dir"]

_CRC_SUFFIX = re.compile(r"^[0-9a-f]{8}$")

_TAIL_CHUNK = 4096  # bytes read per step back to a torn tail's start


def _crc(text: str) -> str:
    return f"{zlib.crc32(text.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _frame_line(json_text: str) -> str:
    """Append the CRC32 frame to one serialized record."""
    return f"{json_text}\t{_crc(json_text)}"


def _parse_record_line(line: str) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Parse one stripped record line; returns ``(record, None)`` or
    ``(None, reason)`` with reason in {crc_mismatch, truncated, bad_json}."""
    if "\t" in line:
        body, suffix = line.rsplit("\t", 1)
        if _CRC_SUFFIX.match(suffix):
            if _crc(body) != suffix:
                return None, "crc_mismatch"
            try:
                return json.loads(body), None
            except ValueError:
                return None, "bad_json"
        # A framed line whose frame itself was cut off mid-write: the
        # tab is present but the suffix is not 8 hex digits.
        return None, "truncated"
    try:
        return json.loads(line), None
    except ValueError:
        return None, "truncated"


def fsync_dir(path) -> None:
    """Sync a directory, so a file created or renamed in it survives a
    power cut.  A no-op where directories cannot be opened."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _cut_torn_tail(fd: int) -> None:
    """Truncate the file to just after its last newline."""
    end = pos = os.fstat(fd).st_size
    keep = 0
    while pos > 0:
        start = max(0, pos - _TAIL_CHUNK)
        newline = os.pread(fd, pos - start, start).rfind(b"\n")
        if newline >= 0:
            keep = start + newline + 1
            break
        pos = start
    if keep != end:
        os.ftruncate(fd, keep)


class DurableLog:
    """An append-only file of CRC-framed JSON records."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def append(self, records: Iterable[Dict[str, Any]], fsync: bool = True) -> None:
        """Append *records* as one write under an exclusive ``flock``.

        Creates the file (and its directory) when missing, even for an
        empty batch.  A torn tail left by a crashed writer is cut off
        first.
        """
        data = "".join(
            _frame_line(json.dumps(record, sort_keys=True)) + "\n"
            for record in records
        ).encode("utf-8")
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND)
            created = False
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            created = True
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released by the close below
            _cut_torn_tail(fd)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        if created and fsync:
            fsync_dir(self.path.parent)

    def records(self) -> List[Dict[str, Any]]:
        """Replay every complete record, in file order (``[]`` if the log
        does not exist)."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        lines = data.decode("utf-8", errors="replace").split("\n")
        lines.pop()  # after the last newline: empty, torn or in progress
        out: List[Dict[str, Any]] = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            record, reason = _parse_record_line(line)
            if reason is not None:
                raise StorageError(
                    f"corrupt record in {self.path} (line {lineno}: {reason})"
                )
            out.append(record)
        return out
