"""Append-only record segments: framing, group-commit writes, salvage reads.

A segment file is a sequence of records, each::

    u32 length (little-endian) | u32 crc32(payload) | payload bytes

``payload`` is one :func:`repro.net.codec.encode_value` value.  There is
no file header: an empty file is a valid (empty) segment, and the record
frame is self-describing enough to salvage.  The CRC covers only the
payload — a record is accepted iff its length fits inside the file, the
checksum matches, and the payload decodes as exactly one codec value.

Readers never raise on corrupt bytes.  On the first record that fails
any of those checks the scan of that segment stops: everything before it
is the longest valid prefix, everything after it is untrusted and
reported (``records_dropped`` / ``bytes_dropped``).  We deliberately do
not resynchronise past a bad record — skipping ahead could replay stale
bytes from a recycled region as fresh records, which is a silent
reorder.  A torn tail costs at most the uncommitted suffix.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..net.codec import WireError, decode_value, encode_value

_HEADER = struct.Struct("<II")
HEADER_BYTES = _HEADER.size

# Cap on a single record's payload, mirroring the wire frame cap: a
# corrupt length prefix must not make the reader trust a multi-gigabyte
# "record" that swallows the rest of the file.
MAX_RECORD_BYTES = 8 * 1024 * 1024


def pack_record(value: Any) -> bytes:
    """Frame one codec-encodable value as a record."""
    payload = encode_value(value)
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError(f"record payload {len(payload)} bytes exceeds cap")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class ReadReport:
    """Honest account of one salvage scan over a set of segments."""

    records: int = 0
    records_dropped: int = 0
    bytes_dropped: int = 0
    corrupt_segments: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt_segments

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "records_dropped": self.records_dropped,
            "bytes_dropped": self.bytes_dropped,
            "corrupt_segments": list(self.corrupt_segments),
        }


def _count_plausible_tail(data: bytes, offset: int) -> int:
    """Walk length prefixes past a corruption point, counting records we
    are abandoning.  Count-only: nothing here is decoded or trusted; it
    exists so ``records_dropped`` reads as "about N records lost", not
    just "some bytes lost".  The walk stops as soon as a length prefix
    stops being plausible, after which the remainder counts as one
    unstructured drop if non-empty."""
    dropped = 0
    pos = offset
    end = len(data)
    while pos + HEADER_BYTES <= end:
        length, _crc = _HEADER.unpack_from(data, pos)
        if length > MAX_RECORD_BYTES or pos + HEADER_BYTES + length > end:
            break
        dropped += 1
        pos = pos + HEADER_BYTES + length
    if pos < end:
        dropped += 1
    return dropped


def scan_segment(path: str, report: ReadReport) -> Iterator[Any]:
    """Yield the longest valid prefix of decoded records in ``path``.

    Corruption (bad CRC, impossible length, undecodable payload, torn
    tail) stops the scan and is tallied into ``report`` — never raised.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        report.corrupt_segments.append(os.path.basename(path))
        return
    pos = 0
    end = len(data)
    while pos < end:
        if pos + HEADER_BYTES > end:
            break  # torn header
        length, crc = _HEADER.unpack_from(data, pos)
        if length > MAX_RECORD_BYTES or pos + HEADER_BYTES + length > end:
            break  # impossible or torn length
        payload = data[pos + HEADER_BYTES : pos + HEADER_BYTES + length]
        if zlib.crc32(payload) != crc:
            break
        try:
            value = decode_value(payload)
        except WireError:
            break
        report.records += 1
        yield value
        pos += HEADER_BYTES + length
    if pos < end:
        report.corrupt_segments.append(os.path.basename(path))
        report.bytes_dropped += end - pos
        report.records_dropped += _count_plausible_tail(data, pos)


def scan_segments(paths: list[str], report: ReadReport | None = None,
                  ) -> tuple[list[Any], ReadReport]:
    """Scan segments in the given order, salvaging each independently."""
    if report is None:
        report = ReadReport()
    records: list[Any] = []
    for path in paths:
        records.extend(scan_segment(path, report))
    return records, report


class SegmentWriter:
    """Buffered appender for one segment file with group-commit fsync.

    ``append`` only stages bytes; ``commit`` writes the whole batch with
    one ``write()`` and, under ``fsync="commit"``, one ``fsync()``.
    The one caller, :class:`~repro.store.NodeStore`, is committed by its
    host once per loop turn, so every append of a turn shares that
    fsync — the group commit of the package contract.
    """

    def __init__(self, path: str, fsync: str = "commit"):
        if fsync not in ("commit", "batch", "never"):
            raise ValueError(f"unknown fsync policy: {fsync!r}")
        self.path = path
        self.fsync = fsync
        self._fh = open(path, "ab")
        self._pending: list[bytes] = []
        self.size = self._fh.tell()
        self.commits = 0
        self.fsyncs = 0

    def append(self, value: Any) -> int:
        """Stage one record; returns its framed size in bytes."""
        record = pack_record(value)
        self._pending.append(record)
        return len(record)

    @property
    def pending(self) -> int:
        return len(self._pending)

    def commit(self, force_sync: bool = False) -> int:
        """Flush staged records to disk; returns records committed."""
        n = len(self._pending)
        if n:
            blob = b"".join(self._pending)
            self._pending.clear()
            self._fh.write(blob)
            self.size += len(blob)
            self.commits += 1
        if n or force_sync:
            self._fh.flush()
            if self.fsync == "commit" or force_sync:
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
        return n

    def sync(self) -> None:
        """Force an fsync regardless of policy (used by batch timers)."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsyncs += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        self.commit(force_sync=self.fsync != "never")
        self._fh.close()


def fsync_dir(path: str) -> None:
    """fsync a directory so renames/creates in it are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
