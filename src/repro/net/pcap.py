"""Classic libpcap file format reader/writer.

Synthetic traces can be persisted as standard ``.pcap`` files (magic
0xA1B2C3D4, microsecond timestamps, LINKTYPE_ETHERNET or LINKTYPE_RAW) so
they can be inspected with external tools and re-read by the sniffer,
proving the packet path works on genuine capture files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import starmap
from typing import BinaryIO, Iterable, Iterator

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101

_GLOBAL_FMT = struct.Struct("<IHHiIII")
_RECORD_FMT = struct.Struct("<IIII")
#: Bytes asked of the file per read; a record may span any number of
#: them.  64 KiB walks a capture as fast as 1 MiB and stays in cache.
_BLOCK_BYTES = 1 << 16


class PcapFormatError(ValueError):
    """Raised on malformed pcap input."""


@dataclass(frozen=True, slots=True)
class PcapRecord:
    """One captured frame: timestamp (float seconds) and raw bytes."""

    timestamp: float
    data: bytes


class PcapWriter:
    """Stream frames into a classic pcap file.

    Usage::

        with PcapWriter(open(path, "wb"), linktype=LINKTYPE_ETHERNET) as out:
            out.write(timestamp, frame_bytes)
    """

    def __init__(
        self,
        fileobj: BinaryIO,
        linktype: int = LINKTYPE_ETHERNET,
        snaplen: int = 65535,
    ):
        self._file = fileobj
        self._file.write(
            _GLOBAL_FMT.pack(PCAP_MAGIC, 2, 4, 0, 0, snaplen, linktype)
        )
        self.count = 0

    def write(self, timestamp: float, data: bytes) -> None:
        """Append one frame."""
        seconds = int(timestamp)
        micros = int(round((timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # guard against rounding to the next second
            seconds += 1
            micros -= 1_000_000
        self._file.write(
            _RECORD_FMT.pack(seconds, micros, len(data), len(data))
        )
        self._file.write(data)
        self.count += 1

    def write_all(self, records: Iterable[PcapRecord]) -> None:
        """Append many frames."""
        for record in records:
            self.write(record.timestamp, record.data)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapReader:
    """Iterate frames out of a classic pcap file, handling byte order."""

    def __init__(self, fileobj: BinaryIO):
        self._file = fileobj
        header = fileobj.read(_GLOBAL_FMT.size)
        if len(header) < _GLOBAL_FMT.size:
            raise PcapFormatError("truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAP_MAGIC:
            self._endian = "<"
        elif magic == PCAP_MAGIC_SWAPPED:
            self._endian = ">"
        else:
            raise PcapFormatError(f"bad pcap magic {magic:#x}")
        fields = struct.unpack(self._endian + "IHHiIII", header)
        self.version = (fields[1], fields[2])
        self.snaplen = fields[5]
        self.linktype = fields[6]
        self._record = struct.Struct(self._endian + "IIII")

    def frames(self) -> Iterator[tuple[float, bytes]]:
        """Walk the records as plain ``(timestamp, data)`` tuples — what
        the capture loop consumes.

        The file is read a block at a time and each 16-byte record
        header is validated in place.  Every whole record before a cut
        is delivered before the :class:`PcapFormatError` is raised.
        ``read1`` (where the file object has it) returns what one read
        of the underlying stream gives, so a FIFO fed by a live
        ``tcpdump -w -`` is not held back until a block fills.
        """
        read = getattr(self._file, "read1", self._file.read)
        unpack_from = self._record.unpack_from
        head = self._record.size
        max_len = self.snaplen + 65535
        buf, pos = b"", 0
        while True:
            end = len(buf)
            while end - pos >= head:
                seconds, micros, caplen, origlen = unpack_from(buf, pos)
                if caplen > origlen or caplen > max_len:
                    raise PcapFormatError("implausible pcap record length")
                stop = pos + head + caplen
                if stop > end:
                    break
                yield seconds + micros / 1_000_000, buf[pos + head:stop]
                pos = stop
            block = read(_BLOCK_BYTES)
            if not block:
                if pos == end:
                    return
                raise PcapFormatError(
                    "truncated pcap record header" if end - pos < head
                    else "truncated pcap record body"
                )
            buf = buf[pos:] + block
            pos = 0

    def __iter__(self) -> Iterator[PcapRecord]:
        return starmap(PcapRecord, self.frames())

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_pcap(
    path: str,
    records: Iterable[PcapRecord],
    linktype: int = LINKTYPE_ETHERNET,
) -> int:
    """Write ``records`` to ``path``; return the number written."""
    with open(path, "wb") as handle:
        writer = PcapWriter(handle, linktype=linktype)
        writer.write_all(records)
        return writer.count
