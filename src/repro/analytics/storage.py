"""On-disk segmented columnar storage for the Flow Database.

The columnar engine of :mod:`repro.analytics.database` is memory-only:
a restart loses the dataset, and the multi-day vantage-point captures
the paper analyses (Tab. 2 traces span up to 3 days) do not fit one
process forever.  This module adds the durable layer underneath it —
an **append-only directory of segment files** plus a merge-on-read
query engine:

* :func:`write_segment` / :class:`SegmentWriter` — seal one in-memory
  :class:`~repro.analytics.database.FlowDatabase` (its ``FlowColumns``
  plus the per-row label/cert/true-fqdn strings, interned into string
  tables) into a single versioned, CRC-checked segment file;
* :class:`SegmentReader` — validate and lazily materialize one segment
  back into an in-memory columnar database (columns are rebuilt with
  ``frombytes``, ids re-interned, statistics folded; an index is
  grouped the first time a query reads it — no per-row object churn);
* :class:`FlowStore` — the durable store: an ordered list of sealed
  segments plus a live in-memory *tail*.  ``add()`` / ``ingest_batch``
  land in the tail; when the tail crosses the configured row/byte
  budget it is spilled to a new segment.  Every method of the
  ``FlowDatabase`` query surface is served by running the query
  **per segment** and merging (grouped aggregations merge-sum by
  globally interned id; record queries concatenate in row order, so
  results are identical to one big in-memory store), and
  :meth:`FlowStore.compact` rewrites runs of small segments into one,
  re-interning string-table ids.

Two levers keep whole-store queries off segments that cannot matter:

* **Pruning metadata** — every sealed segment carries a footer block
  (:class:`SegmentMeta`): min/max flow start/end, client/server
  address ranges, a layer-7 protocol bitmask and compact presence
  filters over the segment's distinct FQDNs and second-level domains.
  Label-, domain-, server- and time-window-keyed queries skip — never
  materialize — segments whose metadata proves they cannot contribute
  (``FlowStore(prune=False)`` restores the scan-everything behaviour;
  answers are identical either way, which the property suite in
  ``tests/test_storage_pruning.py`` holds it to).
* **Parallel per-segment kernels** — ``FlowStore(parallel=N)`` fans
  the surviving per-segment query/aggregation kernels out over a
  thread pool (the kernels spend their time in numpy reductions,
  ``frombytes`` bulk copies and file reads, all of which release the
  GIL) and merges the partials in segment order under the global
  intern table, so results are bit-identical to the serial pass.

Segment file format (version 2; all integers little-endian)::

    header     <4sHHIIIIIQ   magic b"FSG1", version, flags,
                             n_rows, n_labels, n_certs, n_trues,
                             crc32(payload), payload_len
    directory  18 x u64      byte length of each payload block
    payload    18 blocks, in order:
      0-10   numeric columns  client_ip u32, server_ip u32,
                              src_port u16, dst_port u16, transport u8,
                              start f64, end f64, protocol u8,
                              bytes_up u64, bytes_down u64, packets u32
      11-13  id columns i32   label_id, cert_id, true_id
                              (-1 encodes None)
      14-16  string tables    distinct label / cert_name / true_fqdn
                              strings in first-appearance order, each
                              entry u32 length + UTF-8 bytes
      17     pruning metadata <ddddIIIIIHH  min_start, max_start,
                              min_end, max_end, min_client, max_client,
                              min_server, max_server, protocol_mask,
                              fqdn_filter_len, sld_filter_len —
                              followed by the two filter bitmaps

Version 1 (the same layout without block 17, listed by bare name in a
version-1 manifest) is refused at open, never quarantined: its rows
are intact and only need migrating — ``repro-flowstore compact`` run
by a build that still reads version 1 rewrites every segment at
version 2 (see ``docs/runbook.md``).

The presence filters are Bloom filters over the segment's *distinct*
lowercased FQDNs / 2LDs: a power-of-two bitmap sized at ~8 bits per
entry (64 bits minimum, 32768 bits cap), two CRC32-derived probes per
entry.  A membership test can answer a false "maybe" (the segment is
scanned needlessly) but never a false "no" — pruning is sound by
construction, and ``repro-flowstore verify`` recomputes the whole
footer from the column blocks to catch a segment whose metadata lies
(e.g. after a buggy external rewrite).

A torn write can never corrupt the store: segments are written to a
temp file, fsynced and atomically renamed, and only then recorded in
``MANIFEST.json`` (itself replaced atomically).  The manifest carries
a full promoted copy of each segment's pruning metadata — ranges,
protocol mask **and** the presence-filter bitmaps (base64) — so the
shard coordinator (:mod:`repro.analytics.shard`) can evaluate
``QueryHint.admits`` against a shard from manifest bytes alone,
without opening any segment file.  The CRC-covered footer stays
authoritative for the store's own per-segment pruning decisions, and
``repro-flowstore verify`` cross-checks the promoted copy against a
recomputed footer exactly as it checks the footer itself.
A segment file not in the manifest is an uncommitted orphan and is
ignored on open; a truncated or bit-flipped segment (or metadata
block) fails the size/CRC validation in :meth:`SegmentReader.open`.
By default such a segment is *quarantined* — moved aside, logged,
recorded in the manifest and reported by :meth:`FlowStore.health` —
and the store opens and serves every surviving row;
``FlowStore(strict=True)`` restores the hard-fail
:class:`StorageError`.

The live tail is crash-safe too: with the (default-on) write-ahead
tail journal, every acknowledged ``add``/``ingest_batch`` is durably
appended to ``tail.wal`` as a CRC-framed eventcodec batch *before*
it lands in memory, and a surviving journal is replayed at open —
torn trailing records dropped by frame CRC, everything before them
recovered bit-identically.  Sealing the tail bumps a ``wal_epoch``
counter in the manifest and only then replaces the journal, so a
crash anywhere in the seal can neither lose nor double-count a row
(see :class:`TailJournal`).  The fault-injection harness in
``tests/test_storage_crash.py`` proves this by crashing a
spill+compact+WAL workload at every single write/fsync/rename.

Like the in-memory engine, every column statistic, id check and id
remap here has one body, in numpy.
"""

from __future__ import annotations

import base64
import binascii
import errno
import json
import logging
import math
import os
import re
import struct
import sys
import threading
import time
import zlib
from array import array
from functools import partial
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.analytics.database import FlowColumns, FlowDatabase
from repro.analytics.queries import (
    INTERNS,
    SUMMARY,
    Query,
    QueryHint,
    QuerySurface,
    database_summary,
    split_rows,
)
from repro.dns.name import second_level_domain
from repro.net.flow import FlowRecord
from repro.sniffer.eventcodec import PROTOCOLS, BatchEncoder

logger = logging.getLogger("repro.analytics.storage")

MAGIC = b"FSG1"
#: The on-disk format of segments and manifests: version 2, whose
#: segments carry the pruning-metadata footer block.
FORMAT_VERSION = 2
MANIFEST_NAME = "MANIFEST.json"
#: Topology file of a sharded root (:mod:`repro.analytics.shard`); a
#: directory carrying it is never opened as one flat store.
SHARDS_NAME = "SHARDS.json"
SEGMENT_SUFFIX = ".fseg"
#: Write-ahead tail journal file (see :class:`TailJournal`) and the
#: subdirectory quarantined segment files are moved into.
WAL_NAME = "tail.wal"
QUARANTINE_DIR = "quarantine"

WAL_VERSION = 1
_WAL_MAGIC = b"FWAL"
#: Journal header: magic, version, store WAL epoch (see the epoch
#: protocol on :class:`TailJournal`).
_WAL_HEADER = struct.Struct("<4sHQ")
#: Journal record frame: payload length, crc32(payload); the payload
#: is one eventcodec tagged-flow batch.
_WAL_FRAME = struct.Struct("<II")

#: Default spill threshold: ~256k rows per segment (~13 MB of columns).
DEFAULT_SPILL_ROWS = 1 << 18

_HEADER = struct.Struct("<4sHHIIIIIQ")
_BLOCK_LEN = struct.Struct("<Q")
_STR_LEN = struct.Struct("<I")
_META_FIXED = struct.Struct("<ddddIIIIIHH")

#: Presence-filter sizing: ~8 bits per distinct entry, power-of-two
#: bitmap between 64 bits and 32768 bits (4 KB cap per filter).
_FILTER_MIN_BITS = 64
_FILTER_MAX_BITS = 1 << 15
#: Salt appended to the value for the second Bloom probe.  The second
#: hash must differ in *input bytes*, not just CRC seed: CRC32 is
#: affine in its init value, so crc32(x, seed) == crc32(x) ^ C(len(x))
#: — seed-derived probes collide together for equal-length keys
#: (exactly how FQDN sets cluster) and would degrade the filter to an
#: effective single probe.
_FILTER_SALT = b"\x01"

#: The eleven fixed-width value columns, in block order (matches the
#: ``FlowColumns`` attribute of the same name).  Append only —
#: reordering breaks previously-written segments.
_NUMERIC_COLUMNS = (
    ("client_ip", "I"), ("server_ip", "I"),
    ("src_port", "H"), ("dst_port", "H"),
    ("transport", "B"), ("start", "d"), ("end", "d"),
    ("protocol", "B"),
    ("bytes_up", "Q"), ("bytes_down", "Q"), ("packets", "I"),
)
_N_NUMERIC = len(_NUMERIC_COLUMNS)
_N_ID = 3          # label_id, cert_id, true_id
_N_TABLES = 3      # labels, certs, trues
_META_BLOCK = _N_NUMERIC + _N_ID + _N_TABLES  # block 17: pruning metadata
_N_BLOCKS = _META_BLOCK + 1

#: Fixed column bytes per in-memory row (the 11 value columns plus the
#: fqdn_id column) — the per-row term of :meth:`FlowStore.tail_bytes`.
_ROW_BYTES = sum(
    array(code).itemsize for _name, code in _NUMERIC_COLUMNS
) + array("i").itemsize

_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.fseg$")


class StorageError(ValueError):
    """A segment file or store directory is malformed or corrupted."""


class _Version1Error(StorageError):
    """A version-1 segment or manifest: intact rows in a format this
    build no longer reads — refused at open, never quarantined."""

    def __init__(self, what: str):
        super().__init__(
            f"{what} is flow-store format version 1, which this build "
            f"no longer reads: upgrade the store with `repro-flowstore "
            f"compact DIR` run by a build that still reads version 1, "
            f"or rebuild it (docs/runbook.md, \"Format upgrade\")"
        )


class PresenceFilter:
    """Compact may-contain filter over a set of strings (Bloom, k=2).

    Sound for pruning: :meth:`__contains__` can return a false
    "maybe" (a needless scan) but never a false "no" (a dropped row).
    The bitmap is a power of two between 64 and 32768 bits sized at
    ~8 bits per distinct entry, probed twice per value with
    CRC32-derived hashes — deterministic across processes and runs,
    so two filters built from the same value set are byte-identical
    regardless of iteration order.
    """

    __slots__ = ("data", "_mask")

    def __init__(self, data: bytes = b""):
        if data:
            length = len(data)
            if length < _FILTER_MIN_BITS // 8 or length & (length - 1):
                raise StorageError(
                    f"presence filter length {length} is not a "
                    f"power-of-two byte count"
                )
        self.data = data
        self._mask = len(data) * 8 - 1

    @classmethod
    def build(cls, values: Iterable[str]) -> "PresenceFilter":
        encoded = [value.encode("utf-8") for value in values]
        if not encoded:
            return cls(b"")
        nbits = _FILTER_MIN_BITS
        while nbits < 8 * len(encoded) and nbits < _FILTER_MAX_BITS:
            nbits <<= 1
        mask = nbits - 1
        bits = bytearray(nbits // 8)
        for raw in encoded:
            for h in (zlib.crc32(raw), zlib.crc32(raw + _FILTER_SALT)):
                h &= mask
                bits[h >> 3] |= 1 << (h & 7)
        return cls(bytes(bits))

    def __contains__(self, value: str) -> bool:
        data = self.data
        if not data:
            return False
        raw = value.encode("utf-8")
        mask = self._mask
        for h in (zlib.crc32(raw), zlib.crc32(raw + _FILTER_SALT)):
            h &= mask
            if not data[h >> 3] & (1 << (h & 7)):
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, PresenceFilter) and self.data == other.data

    def __len__(self) -> int:
        return len(self.data)


class SegmentMeta:
    """Per-segment pruning metadata (the version-2 footer block).

    Value ranges over the segment's rows plus presence filters over
    its distinct labels; an empty segment encodes inverted ranges
    (``min > max``) and empty filters, so every predicate prunes it.
    :meth:`from_blocks` is the one constructor — seal, compaction and
    ``repro-flowstore verify`` all compute the footer from the
    payload blocks, so identical content gives identical metadata and
    a footer that lies about its segment is detectable.
    """

    __slots__ = (
        "min_start", "max_start", "min_end", "max_end",
        "min_client", "max_client", "min_server", "max_server",
        "protocol_mask", "fqdn_filter", "sld_filter",
    )

    def __init__(self):
        self.min_start = self.min_end = float("inf")
        self.max_start = self.max_end = float("-inf")
        self.min_client = self.min_server = 0xFFFFFFFF
        self.max_client = self.max_server = 0
        self.protocol_mask = 0
        self.fqdn_filter = PresenceFilter()
        self.sld_filter = PresenceFilter()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_blocks(
        cls, blocks: Sequence[bytes], labels: Sequence[str]
    ) -> "SegmentMeta":
        """Compute metadata from the payload's column blocks plus the
        label table (no database is materialized)."""
        meta = cls()
        starts = _from_le("d", blocks[5])
        if len(starts):
            meta.min_start, meta.max_start = _finite_bounds(starts)
            meta.min_end, meta.max_end = _finite_bounds(
                _from_le("d", blocks[6])
            )
            clients = np.frombuffer(blocks[0], np.dtype("<u4"))
            servers = np.frombuffer(blocks[1], np.dtype("<u4"))
            meta.min_client = int(clients.min())
            meta.max_client = int(clients.max())
            meta.min_server = int(servers.min())
            meta.max_server = int(servers.max())
            # bincount, not unique: numpy loads unique's machinery on
            # first use (~10 ms), and every sealing process pays.
            seen = np.flatnonzero(
                np.bincount(np.frombuffer(blocks[7], np.uint8))
            ).tolist()
            mask = 0
            for value in seen:
                mask |= 1 << value
            meta.protocol_mask = mask
        lowered = dict.fromkeys(map(str.lower, labels))
        lowered.pop("", None)                       # the untagged label
        meta.fqdn_filter = PresenceFilter.build(lowered)
        meta.sld_filter = PresenceFilter.build(
            dict.fromkeys(second_level_domain(name) for name in lowered)
        )
        return meta

    # -- serialization -----------------------------------------------------

    def encode(self) -> bytes:
        return _META_FIXED.pack(
            self.min_start, self.max_start, self.min_end, self.max_end,
            self.min_client, self.max_client,
            self.min_server, self.max_server,
            self.protocol_mask,
            len(self.fqdn_filter.data), len(self.sld_filter.data),
        ) + self.fqdn_filter.data + self.sld_filter.data

    @classmethod
    def decode(cls, raw) -> "SegmentMeta":
        if len(raw) < _META_FIXED.size:
            raise StorageError("truncated metadata block")
        (min_start, max_start, min_end, max_end,
         min_client, max_client, min_server, max_server,
         protocol_mask, fqdn_len, sld_len) = _META_FIXED.unpack_from(raw, 0)
        if _META_FIXED.size + fqdn_len + sld_len != len(raw):
            raise StorageError("truncated metadata block")
        meta = cls()
        meta.min_start, meta.max_start = min_start, max_start
        meta.min_end, meta.max_end = min_end, max_end
        meta.min_client, meta.max_client = min_client, max_client
        meta.min_server, meta.max_server = min_server, max_server
        meta.protocol_mask = protocol_mask
        pos = _META_FIXED.size
        meta.fqdn_filter = PresenceFilter(bytes(raw[pos:pos + fqdn_len]))
        pos += fqdn_len
        meta.sld_filter = PresenceFilter(bytes(raw[pos:pos + sld_len]))
        return meta

    def to_manifest(self) -> dict:
        """JSON-safe copy of the full footer for ``MANIFEST.json`` /
        ``stats`` — ranges, mask, **and** the presence-filter bitmaps
        (base64).  The CRC-covered footer remains the authoritative
        copy for the store's own pruning; the manifest copy exists so
        the shard coordinator can evaluate :meth:`QueryHint.admits`
        from manifest bytes alone, without opening a single segment
        file.  ``repro-flowstore verify`` recomputes this promoted
        copy against the data exactly as it recomputes footers, so a
        manifest that lies about its segment goes degraded."""

        def _f(value: float):
            return value if math.isfinite(value) else None

        return {
            "min_start": _f(self.min_start),
            "max_start": _f(self.max_start),
            "min_end": _f(self.min_end),
            "max_end": _f(self.max_end),
            "min_client": self.min_client,
            "max_client": self.max_client,
            "min_server": self.min_server,
            "max_server": self.max_server,
            "protocol_mask": self.protocol_mask,
            "fqdn_filter_bits": len(self.fqdn_filter.data) * 8,
            "sld_filter_bits": len(self.sld_filter.data) * 8,
            "fqdn_filter": base64.b64encode(
                self.fqdn_filter.data
            ).decode("ascii"),
            "sld_filter": base64.b64encode(
                self.sld_filter.data
            ).decode("ascii"),
        }

    @classmethod
    def from_manifest(cls, entry) -> Optional["SegmentMeta"]:
        """Rebuild full pruning metadata from a manifest ``meta`` dict.

        Returns ``None`` when the entry is absent, predates the
        filter promotion, or is malformed in any way — the caller
        must then treat the segment as unprunable (conservative
        scan).  A round trip through :meth:`to_manifest` is
        lossless: the rebuilt metadata compares equal to the footer
        it was promoted from.
        """
        if not isinstance(entry, dict):
            return None
        meta = cls()
        try:
            for name, default in (
                ("min_start", math.inf), ("max_start", -math.inf),
                ("min_end", math.inf), ("max_end", -math.inf),
            ):
                value = entry[name]
                if value is None:
                    value = default
                elif not isinstance(value, (int, float)):
                    return None
                setattr(meta, name, float(value))
            for name in ("min_client", "max_client",
                         "min_server", "max_server", "protocol_mask"):
                value = entry[name]
                if not isinstance(value, int):
                    return None
                setattr(meta, name, value)
            meta.fqdn_filter = PresenceFilter(
                base64.b64decode(entry["fqdn_filter"], validate=True)
            )
            meta.sld_filter = PresenceFilter(
                base64.b64decode(entry["sld_filter"], validate=True)
            )
        except (KeyError, TypeError, ValueError, StorageError,
                binascii.Error):
            return None
        return meta

    def __eq__(self, other) -> bool:
        return isinstance(other, SegmentMeta) and all(
            getattr(self, name) == getattr(other, name)
            for name in SegmentMeta.__slots__
        )

    # -- pruning predicates ------------------------------------------------

    def may_contain_fqdn(self, lowered: str) -> bool:
        return lowered in self.fqdn_filter

    def may_contain_sld(self, lowered: str) -> bool:
        return lowered in self.sld_filter

    def may_contain_server(self, server_ip: int) -> bool:
        return self.min_server <= server_ip <= self.max_server

    def may_contain_client(self, client_ip: int) -> bool:
        return self.min_client <= client_ip <= self.max_client

    def may_contain_protocol(self, protocol_index: int) -> bool:
        return bool(self.protocol_mask >> protocol_index & 1)

    def may_overlap_window(self, t0: float, t1: float) -> bool:
        """Could any flow *start* fall in ``[t0, t1)``?

        Written as a double negation so the comparison only *prunes*
        on a provable miss: should a non-finite bound ever reach a
        footer, every comparison against NaN is False and the segment
        is conservatively scanned rather than silently dropped
        (ingestion rejects non-finite timestamps, so this is
        defense in depth).
        """
        return not (self.max_start < t0 or self.min_start >= t1)


def _le(arr: array) -> bytes:
    """Little-endian bytes of an array (byteswap on BE hosts)."""
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        arr = arr[:]
        arr.byteswap()
    return arr.tobytes()


def _finite_bounds(column) -> tuple[float, float]:
    """(min, max) over the *finite* entries of a float column; the
    empty convention ``(inf, -inf)`` when none are.

    The footer's time ranges use it because compaction recomputes a
    footer from column blocks no :meth:`FlowColumns.problem` check has
    passed: ranges over the finite values stay sound — a NaN start
    compares False against every window, so the row can never match a
    window query the range might prune.
    """
    column = np.frombuffer(column, np.float64)
    finite = column[np.isfinite(column)]
    if len(finite):
        return float(finite.min()), float(finite.max())
    return float("inf"), float("-inf")


def _from_le(typecode: str, raw) -> array:
    """Array from little-endian bytes (byteswap on BE hosts)."""
    arr = array(typecode)
    arr.frombytes(raw)
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        arr.byteswap()
    return arr


def _encode_table(table: Iterable[str]) -> bytes:
    """String-table blob: u32 length prefix + UTF-8 bytes per entry."""
    blob = bytearray()
    for text in table:
        raw = text.encode("utf-8")
        blob += _STR_LEN.pack(len(raw))
        blob += raw
    return bytes(blob)


def _intern_rows(values: Sequence[Optional[str]]) -> tuple[array, list[str]]:
    """Intern one per-row optional-string column for the file format:
    an ``i32`` id per row (``-1`` for None) into the table of distinct
    strings in first-appearance order."""
    if values.count(None) == len(values):
        # What the sniffer emits for cert_name / true_fqdn: never set.
        return array("i", [-1]) * len(values), []
    ids = array("i")
    index: dict[str, int] = {}
    append = ids.append
    for value in values:
        if value is None:
            append(-1)
            continue
        entry = index.get(value)
        if entry is None:
            entry = index[value] = len(index)
        append(entry)
    return ids, list(index)


def _parse_table(raw: bytes, count: int, what: str) -> tuple[str, ...]:
    """Decode one string-table block back into a tuple of strings."""
    out: list[str] = []
    append = out.append
    unpack = _STR_LEN.unpack_from
    pos = 0
    total = len(raw)
    try:
        for _ in range(count):
            if pos + _STR_LEN.size > total:
                raise StorageError(f"truncated {what} table")
            (length,) = unpack(raw, pos)
            pos += _STR_LEN.size
            if pos + length > total:
                raise StorageError(f"truncated {what} table entry")
            append(str(raw[pos:pos + length], "utf-8"))
            pos += length
    except UnicodeDecodeError as exc:
        raise StorageError(f"bad UTF-8 in {what} table: {exc}") from exc
    if pos != total:
        raise StorageError(f"{what} table has trailing bytes")
    return tuple(out)


class _OsIO:
    """The store's only gateway to state-changing filesystem calls.

    Every payload write, fsync, rename, truncate and unlink the store
    performs goes through the module-level ``_io`` instance, so the
    fault-injection harness (``tests/faultfs.py``) can swap in a
    counting layer that crashes (or injects an ``OSError``) at any
    single operation and prove crash consistency at *every* injection
    point — without monkeypatching :mod:`os` for unrelated code.

    Segment *reads* also route through the seam (:meth:`read_bytes` /
    :meth:`read_block`) — not because they can lose data, but so the
    shard coordinator's manifest-only pruning claim is falsifiable: a
    test can swap in a counting layer and assert that a prune decision
    touched **zero** segment files.  Reads are observable, never
    crash-injected by the crash sweep (they hold no durability state).
    Manifest/journal reads stay direct: they are not segment payloads.
    """

    @staticmethod
    def read_bytes(path) -> bytes:
        return Path(path).read_bytes()

    @staticmethod
    def read_block(path, offset: int, length: int) -> bytes:
        with open(path, "rb") as handle:
            handle.seek(offset)
            return handle.read(length)

    @staticmethod
    def write(handle, data) -> None:
        handle.write(data)

    @staticmethod
    def fsync(fd: int) -> None:
        os.fsync(fd)

    @staticmethod
    def fsync_dir(fd: int) -> None:
        os.fsync(fd)

    @staticmethod
    def replace(src, dst) -> None:
        os.replace(src, dst)

    @staticmethod
    def truncate(handle, size: int) -> None:
        handle.truncate(size)

    @staticmethod
    def unlink(path) -> None:
        os.unlink(path)


_io = _OsIO()

#: Transient, retryable I/O failures: interrupted or momentarily
#: starved syscalls that genuinely can succeed on the next attempt.
_TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN})
#: Capacity exhaustion: the volume is full (or the quota is), and no
#: 10 ms backoff will un-fill it.  These escalate on *first*
#: occurrence — retrying just delays the serve layer's degradation
#: governor from tripping to read-only, and every half-open recovery
#: probe would pay the full backoff ladder again.
CAPACITY_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT})
#: Bounded backoff: 4 attempts, 10 ms doubling (70 ms worst case).
_IO_ATTEMPTS = 4
_IO_BACKOFF = 0.01
#: Module-level so tests can patch the delay out.
_sleep = time.sleep

#: Directory fsync is genuinely unsupported on some platforms and
#: filesystems; these errnos mean "cannot fsync a directory here",
#: not "your rename was lost".
_DIRSYNC_BENIGN_ERRNOS = frozenset({
    errno.EINVAL, errno.ENOTSUP, errno.EOPNOTSUPP, errno.ENOSYS,
    errno.EBADF, errno.EISDIR, errno.EACCES, errno.EPERM,
    errno.ENOENT, errno.ENOTDIR,
})


def _retry_io(operation, what: str):
    """Run one filesystem operation, retrying transient ``OSError``s
    (:data:`_TRANSIENT_ERRNOS`) with bounded exponential backoff before
    escalating.  Capacity errnos (:data:`CAPACITY_ERRNOS`) escalate on
    the first occurrence — a full volume does not clear in 70 ms, and
    the caller's governor needs to see it *now*.  Callers whose
    operation may partially apply (payload writes) must make
    ``operation`` rewind first — the retry re-runs it from scratch."""
    for attempt in range(_IO_ATTEMPTS):
        try:
            return operation()
        except OSError as exc:
            if (
                exc.errno not in _TRANSIENT_ERRNOS
                or attempt == _IO_ATTEMPTS - 1
            ):
                raise
            delay = _IO_BACKOFF * (1 << attempt)
            logger.warning(
                "transient %s during %s (attempt %d/%d); retrying in "
                "%.0f ms", errno.errorcode.get(exc.errno, exc.errno),
                what, attempt + 1, _IO_ATTEMPTS, delay * 1000.0,
            )
            _sleep(delay)


def _fsync_directory(directory: Path) -> None:
    """Directory fsync so a committed rename survives a crash.

    Best-effort **only** where the platform genuinely cannot do it
    (:data:`_DIRSYNC_BENIGN_ERRNOS`); a real I/O failure (ENOSPC, EIO)
    is data-loss-relevant and escalates through the bounded
    retry/backoff path instead of being silently swallowed.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError as exc:  # pragma: no cover - platform-dependent
        if exc.errno in _DIRSYNC_BENIGN_ERRNOS:
            return
        raise
    try:
        _retry_io(lambda: _io.fsync_dir(fd), f"fsync directory {directory}")
    except OSError as exc:
        if exc.errno in _DIRSYNC_BENIGN_ERRNOS:
            return
        raise
    finally:
        os.close(fd)


def _write_file_atomic(
    path: Path, chunks: Sequence[bytes], what: str
) -> None:
    """Commit ``chunks`` (one write each) to ``path`` via tmp + fsync +
    rename + dir fsync.  A retried write rewinds the tmp file first, so
    a partial attempt can never survive into the committed bytes."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        def _write_all():
            handle.seek(0)
            _io.truncate(handle, 0)
            for chunk in chunks:
                _io.write(handle, chunk)
            handle.flush()
            _io.fsync(handle.fileno())
        _retry_io(_write_all, f"write {what}")
    _retry_io(lambda: _io.replace(tmp, path), f"commit {what}")
    _fsync_directory(path.parent)


def _write_segment_file(
    path: Path,
    n_rows: int,
    blocks: list[bytes],
    n_labels: int,
    n_certs: int,
    n_trues: int,
) -> None:
    """Serialize pre-built payload blocks atomically to ``path``."""
    assert len(blocks) == _N_BLOCKS
    payload_len = sum(len(block) for block in blocks)
    crc = 0
    for block in blocks:
        crc = zlib.crc32(block, crc)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, 0, n_rows,
        n_labels, n_certs, n_trues, crc, payload_len,
    )
    directory = b"".join(_BLOCK_LEN.pack(len(block)) for block in blocks)
    _write_file_atomic(
        path, [header, directory, *blocks], f"segment {path.name}"
    )


def write_segment(path, database: FlowDatabase) -> int:
    """Seal an in-memory columnar database into one segment file.

    Returns the number of rows written.  The write is atomic: the
    segment appears under its final name only after a successful
    ``fsync`` + rename, so a crash mid-write leaves at most a
    ``*.tmp`` file that readers never look at.
    """
    path = Path(path)
    cols = database.columns
    blocks: list[bytes] = [
        _le(getattr(cols, name)) for name, _code in _NUMERIC_COLUMNS
    ]
    interned = [
        _intern_rows(values)
        for values in (cols.raw_fqdn, cols.cert_name, cols.true_fqdn)
    ]
    blocks += [_le(ids) for ids, _table in interned]
    blocks += [_encode_table(table) for _ids, table in interned]
    blocks.append(SegmentMeta.from_blocks(blocks, interned[0][1]).encode())
    _write_segment_file(
        path, len(cols), blocks, *(len(table) for _ids, table in interned)
    )
    return len(cols)


class SegmentWriter:
    """Names and writes sequence-numbered segment files in a directory.

    The writer only produces files; committing them to the store's
    manifest is the :class:`FlowStore`'s job (that ordering is what
    makes a torn spill invisible to readers).
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def next_name(self) -> str:
        """Next free sequence-numbered segment file name.

        Scans the directory (not the manifest) so an uncommitted orphan
        from a crashed spill is never silently overwritten with
        unrelated rows — it just burns one sequence number.
        """
        highest = 0
        for entry in self.directory.iterdir():
            match = _SEGMENT_RE.match(entry.name)
            if match:
                highest = max(highest, int(match.group(1)))
        return f"seg-{highest + 1:08d}{SEGMENT_SUFFIX}"

    def write(self, database: FlowDatabase) -> str:
        """Seal ``database`` into the next segment file; returns its name."""
        name = self.next_name()
        write_segment(self.directory / name, database)
        return name


class SegmentReader:
    """One validated on-disk segment, lazily materializable.

    :meth:`open` reads and fully validates the file (header sanity,
    per-block sizes against ``n_rows``, whole-payload CRC32, string
    tables) and keeps only the small parts resident — the three string
    tables, the block offsets and, once :meth:`bind` has resolved the
    label table against the store's global id tables, the two label
    maps (table entry → local fqdn id, local → global id).
    :meth:`database` re-reads the column blocks and rebuilds an
    in-memory :class:`FlowDatabase` on first use, cached until
    :meth:`release`; its label tables are adopted from the global ones
    through those maps, so no name is lowered, parsed or interned a
    second time.

    A cold open+query therefore reads each segment twice (validate,
    then materialize).  That is deliberate: holding the open-time bytes
    until a query *might* need them would pin the whole store in memory
    at open — the opposite of what spilling exists for — and the second
    read is a page-cache hit right after the first.  Its measured
    price: ~1.2 ms per pass over a 3.6 MB, four-segment store (0.4 ms
    reading, 0.75 ms CRC32) of a ~48 ms cold open + sweep — and the
    CRC is what catches a block that changed on disk before an answer
    uses it.
    """

    __slots__ = (
        "path", "n_rows", "n_labels", "n_certs", "n_trues",
        "labels", "certs", "trues", "crc", "file_size", "meta",
        "_body", "_lengths", "_offsets", "_database", "_summary",
        "fqdn_map", "_fqdn_of_label", "_interns",
    )

    def __init__(self):
        self._database = None
        self._summary = None
        self.fqdn_map: Optional[array] = None

    @property
    def name(self) -> str:
        return self.path.name

    @classmethod
    def open(cls, path) -> "SegmentReader":
        """Validate the segment at ``path``; raises :class:`StorageError`
        on any truncation, corruption or version mismatch — for a
        version-1 segment, one that names the upgrade."""
        path = Path(path)
        try:
            data = _io.read_bytes(path)
        except OSError as exc:
            raise StorageError(f"cannot read segment {path}: {exc}") from exc
        if len(data) < _HEADER.size:
            raise StorageError(f"segment {path.name}: truncated header")
        (magic, version, _flags, n_rows, n_labels, n_certs, n_trues,
         crc, payload_len) = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise StorageError(f"segment {path.name}: bad magic {magic!r}")
        if version == 1:
            raise _Version1Error(f"segment {path.name}")
        if version != FORMAT_VERSION:
            raise StorageError(
                f"segment {path.name}: unsupported version {version}"
            )
        if len(data) < _HEADER.size + _N_BLOCKS * _BLOCK_LEN.size:
            raise StorageError(f"segment {path.name}: truncated header")
        lengths = []
        pos = _HEADER.size
        for _ in range(_N_BLOCKS):
            (length,) = _BLOCK_LEN.unpack_from(data, pos)
            lengths.append(length)
            pos += _BLOCK_LEN.size
        body = pos
        if sum(lengths) != payload_len or body + payload_len != len(data):
            raise StorageError(
                f"segment {path.name}: size mismatch (truncated or "
                f"trailing bytes)"
            )
        for index, (name, code) in enumerate(_NUMERIC_COLUMNS):
            expected = n_rows * array(code).itemsize
            if lengths[index] != expected:
                raise StorageError(
                    f"segment {path.name}: column {name} is "
                    f"{lengths[index]} bytes, expected {expected}"
                )
        for offset in range(_N_ID):
            if lengths[_N_NUMERIC + offset] != n_rows * 4:
                raise StorageError(
                    f"segment {path.name}: id column {offset} has wrong size"
                )
        if zlib.crc32(memoryview(data)[body:]) != crc:
            raise StorageError(f"segment {path.name}: payload CRC mismatch")
        offsets = []
        cursor = body
        for length in lengths:
            offsets.append(cursor)
            cursor += length
        table_base = _N_NUMERIC + _N_ID
        tables = []
        for index, (count, what) in enumerate(
            ((n_labels, "label"), (n_certs, "cert"), (n_trues, "true-fqdn"))
        ):
            block = table_base + index
            start = offsets[block]
            tables.append(_parse_table(
                data[start:start + lengths[block]], count, what
            ))
        reader = cls()
        reader.path = path
        reader.n_rows = n_rows
        reader.n_labels = n_labels
        reader.n_certs = n_certs
        reader.n_trues = n_trues
        reader.labels, reader.certs, reader.trues = tables
        reader.crc = crc
        reader.file_size = len(data)
        reader._body = body
        reader._lengths = lengths
        reader._offsets = offsets
        start = offsets[_META_BLOCK]
        try:
            reader.meta = SegmentMeta.decode(
                memoryview(data)[start:start + lengths[_META_BLOCK]]
            )
        except StorageError as exc:
            raise StorageError(f"segment {path.name}: {exc}") from exc
        return reader

    def bind(self, interns: FlowDatabase,
             fqdn_map: Optional[array] = None) -> None:
        """Resolve the label table against ``interns``, the global id
        tables of the store this segment joins — once: the table is
        lowered here and nowhere else, only names ``interns`` has not
        seen are interned, and materialization reuses both maps.
        ``fqdn_map`` (local fqdn id → global id) is taken as given when
        the caller already holds it — a sealed tail's.  The store binds
        under whatever lock guards ``interns``; a reader nobody bound
        binds itself to an empty table on first use."""
        names, self._fqdn_of_label = _lowered_labels(self.labels)
        if fqdn_map is None:
            known = interns._fqdn_ids.get
            fqdn_map = array("i", map(known, names, repeat(-1)))
            for local, global_id in enumerate(fqdn_map):
                if global_id < 0:
                    fqdn_map[local] = interns._intern_fqdn(names[local])
        self.fqdn_map = fqdn_map
        self._interns = interns

    # -- block access ------------------------------------------------------

    def read_blocks(self) -> list[bytes]:
        """Re-read all payload blocks (compaction's raw input)."""
        data = self._read_validated()
        return [
            data[offset:offset + length]
            for offset, length in zip(self._offsets, self._lengths)
        ]

    def _read_validated(self) -> bytes:
        try:
            data = _io.read_bytes(self.path)
        except OSError as exc:
            raise StorageError(
                f"cannot read segment {self.path}: {exc}"
            ) from exc
        if len(data) != self.file_size or zlib.crc32(
            memoryview(data)[self._body:]
        ) != self.crc:
            raise StorageError(
                f"segment {self.name} changed on disk since open"
            )
        return data

    def _read_block(self, index: int) -> bytes:
        """One payload block by seek+read (sizes/CRC validated at open)."""
        data = _io.read_block(
            self.path, self._offsets[index], self._lengths[index]
        )
        if len(data) != self._lengths[index]:
            raise StorageError(f"segment {self.name} truncated since open")
        return data

    def summary(self) -> dict:
        """Cheap per-segment statistics — ``min_start``/``max_end``,
        the protocol histogram and the tagged-row count — from the
        footer's time range and two column blocks only.  Nothing is
        materialized or cached beyond the small result, so whole-store
        stats (``time_span``, ``count_by_protocol``, ``tagged_count``)
        never force a multi-GB store resident.  Served straight from the
        in-memory form when the segment happens to be resident."""
        if self._database is not None:
            return database_summary(self._database)
        if self._summary is None:
            self._summary = self._compute_summary()
        return self._summary

    def _compute_summary(self) -> dict:
        if not self.n_rows:
            return {
                "min_start": float("inf"), "max_end": float("-inf"),
                "protocol_counts": [0] * len(PROTOCOLS), "tagged_rows": 0,
            }
        protocols = self._read_block(7)                 # protocol column
        label_ids = _from_le("i", self._read_block(_N_NUMERIC))
        # A row is tagged iff its label is truthy — id -1 (None) and
        # entries holding "" both count as untagged, exactly as the
        # materialized database derives fqdn_id.
        untagged_entries = [
            index for index, text in enumerate(self.labels) if not text
        ]
        counts = np.bincount(
            np.frombuffer(protocols, np.uint8), minlength=len(PROTOCOLS),
        ).tolist()
        if len(counts) > len(PROTOCOLS):
            raise StorageError("protocol index out of range")
        ids = np.frombuffer(label_ids, np.int32)
        tagged = int((ids >= 0).sum())
        if untagged_entries:
            tagged -= int(np.isin(ids, untagged_entries).sum())
        return {
            "min_start": self.meta.min_start, "max_end": self.meta.max_end,
            "protocol_counts": counts, "tagged_rows": tagged,
        }

    # -- materialization ---------------------------------------------------

    def database(self) -> FlowDatabase:
        """The segment as an in-memory columnar database (cached)."""
        if self._database is None:
            self._database = self._build_database()
        return self._database

    def release(self) -> None:
        """Drop the cached in-memory form; rebuilt on next query."""
        self._database = None

    @property
    def resident(self) -> bool:
        return self._database is not None

    def _build_database(self) -> FlowDatabase:
        data = self._read_validated()
        offsets, lengths = self._offsets, self._lengths

        def block(index: int):
            return memoryview(data)[
                offsets[index]:offsets[index] + lengths[index]
            ]

        cols = FlowColumns()
        for index, (name, code) in enumerate(_NUMERIC_COLUMNS):
            setattr(cols, name, _from_le(code, block(index)))
        label_ids = _from_le("i", block(_N_NUMERIC))
        cert_ids = _from_le("i", block(_N_NUMERIC + 1))
        true_ids = _from_le("i", block(_N_NUMERIC + 2))
        self._validate_ids(label_ids, self.n_labels, "label")
        self._validate_ids(cert_ids, self.n_certs, "cert")
        self._validate_ids(true_ids, self.n_trues, "true-fqdn")
        problem = cols.problem()
        if problem:
            raise StorageError(f"segment {self.name}: {problem}")
        if self.fqdn_map is None:
            self.bind(FlowDatabase())
        cols.fqdn_id = _remap_ids(label_ids, self._fqdn_of_label)
        cols.raw_fqdn = _table_rows(self.labels, label_ids)
        cols.cert_name = _table_rows(self.certs, cert_ids)
        cols.true_fqdn = _table_rows(self.trues, true_ids)
        return FlowDatabase.from_columns(
            cols, *self._interns.labels_of(self.fqdn_map)
        )

    @staticmethod
    def _validate_ids(ids: array, count: int, what: str) -> None:
        if not len(ids):
            return
        column = np.frombuffer(ids, np.int32)
        lo, hi = int(column.min()), int(column.max())
        if lo < -1 or hi >= count:
            raise StorageError(f"{what} id out of table range")


def _lowered_labels(labels: Sequence[str]) -> tuple[list[str], array]:
    """A segment label table's distinct lowercased FQDNs in
    first-appearance order — the order a database fed the segment's
    rows interns them in, so list position is the segment-local fqdn
    id — and, per table entry, that id (``-1`` for the untagged
    ``""``)."""
    lowered = list(map(str.lower, labels))
    ids = dict.fromkeys(lowered)
    ids.pop("", None)
    names = list(ids)
    if len(names) == len(lowered):      # no case variants, no ""
        return names, array("i", range(len(names)))
    ids = dict(zip(names, range(len(names))))
    ids[""] = -1
    return names, array("i", map(ids.__getitem__, lowered))


def _table_rows(table: tuple, ids: array) -> list:
    """The per-row strings of an id column validated ``>= -1``: ``-1``
    (None) lands on the ``None`` appended to the table."""
    if not table:
        return [None] * len(ids)
    table += (None,)
    return np.array(table, object)[np.frombuffer(ids, np.int32)].tolist()


def _remap_ids(ids: array, lut: array) -> array:
    """``lut[id]`` per row of an ``i32`` id column; ``-1`` (None)
    stays ``-1``.  Ids must already be inside the table."""
    if not len(ids):
        return array("i")
    values = np.frombuffer(ids, np.int32)
    if len(lut):
        remapped = np.where(
            values >= 0,
            np.frombuffer(lut, np.int32)[np.maximum(values, 0)],
            np.int32(-1),
        ).astype(np.int32)
    else:
        remapped = np.full(len(ids), -1, np.int32)
    out = array("i")
    out.frombytes(remapped.tobytes())
    return out


def _call_thunk(thunk):
    """Top-level trampoline for ``Executor.map`` over bound thunks."""
    return thunk()


def _merge_segment_files(
    readers: Sequence[SegmentReader], path: Path
) -> None:
    """Rewrite several adjacent segments as one (compaction's kernel).

    Numeric blocks concatenate verbatim; string tables merge with
    first-appearance dedupe and the id columns are rewritten through
    the resulting lookup tables.  Row order — and therefore every
    query result — is preserved.  Blocks are assembled in memory, so
    one compaction holds roughly the merged file size transiently.

    The output carries a freshly computed metadata footer.
    """
    all_blocks = [reader.read_blocks() for reader in readers]
    merged: list[bytes] = [
        b"".join(blocks[index] for blocks in all_blocks)
        for index in range(_N_NUMERIC)
    ]
    tables: list[list[str]] = []
    for offset, attr in enumerate(("labels", "certs", "trues")):
        index: dict[str, int] = {}
        id_parts: list[bytes] = []
        for reader, blocks in zip(readers, all_blocks):
            lut = array("i", (
                index.setdefault(text, len(index))
                for text in getattr(reader, attr)
            ))
            ids = _from_le("i", blocks[_N_NUMERIC + offset])
            id_parts.append(_le(_remap_ids(ids, lut)))
        merged.append(b"".join(id_parts))
        tables.append(list(index))
    merged += [_encode_table(table) for table in tables]
    merged.append(SegmentMeta.from_blocks(merged, tables[0]).encode())
    _write_segment_file(
        path,
        sum(reader.n_rows for reader in readers),
        merged,
        *(len(table) for table in tables),
    )


def _encode_flow_batch(flows: Iterable[FlowRecord]) -> bytes:
    """Encode flows as one eventcodec batch for the tail journal.

    Validates exactly what :meth:`FlowDatabase.add` validates (protocol,
    field ranges via the codec structs, finite timestamps), so a record
    that reaches the journal is guaranteed to replay — and a flow the
    tail would reject raises *before* the journal is touched.
    """
    encoder = BatchEncoder()
    for flow in flows:
        if not (math.isfinite(flow.start) and math.isfinite(flow.end)):
            raise ValueError("non-finite flow timestamp")
        encoder.add_flow(flow)
    return encoder.take()


class TailJournal:
    """CRC-framed write-ahead journal for the live tail (``tail.wal``).

    Every acknowledged ``add``/``ingest_batch`` appends one frame —
    ``<u32 len><u32 crc32>`` followed by an eventcodec tagged-flow
    batch — and fsyncs before the caller returns, so a crash at any
    instant loses at most the un-acknowledged record being written.
    Recovery reads frames until the first torn one (bad length or CRC)
    and replays the valid prefix bit-identically.

    **Epoch protocol.**  The file starts with a header carrying the
    store's *WAL epoch*.  Sealing the tail first bumps the epoch inside
    ``MANIFEST.json`` (committed atomically, segment included), then
    replaces the journal with a fresh empty one at the new epoch.  A
    surviving journal whose epoch trails the manifest's is therefore
    provably already sealed into a committed segment and is discarded
    at open instead of double-counted; a journal at the current epoch
    holds exactly the rows the manifest does not.
    """

    def __init__(self, path, epoch: int):
        self.path = Path(path)
        self.epoch = epoch
        self._handle = None
        self._size = 0

    @classmethod
    def recover(cls, path) -> tuple[Optional[int], list[bytes], dict]:
        """Read a surviving journal file without mutating it.

        Returns ``(epoch, payloads, report)``: the header epoch (None
        when there is no readable header), every CRC-valid record
        payload in order, and a report with ``bytes`` read,
        ``records`` recovered, ``torn_bytes`` past the valid prefix
        and ``valid_size`` (the byte length of that prefix).
        """
        path = Path(path)
        report = {"bytes": 0, "records": 0, "torn_bytes": 0,
                  "valid_size": 0}
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None, [], report
        except OSError as exc:
            raise StorageError(
                f"cannot read tail journal {path}: {exc}"
            ) from exc
        report["bytes"] = len(data)
        if len(data) < _WAL_HEADER.size:
            # Torn header from a crashed creation: nothing was ever
            # acknowledged against it.
            report["torn_bytes"] = len(data)
            return None, [], report
        magic, version, epoch = _WAL_HEADER.unpack_from(data, 0)
        if magic != _WAL_MAGIC or version != WAL_VERSION:
            report["torn_bytes"] = len(data)
            return None, [], report
        payloads: list[bytes] = []
        pos = _WAL_HEADER.size
        total = len(data)
        while pos < total:
            if pos + _WAL_FRAME.size > total:
                break
            length, crc = _WAL_FRAME.unpack_from(data, pos)
            start = pos + _WAL_FRAME.size
            stop = start + length
            if stop > total or zlib.crc32(data[start:stop]) != crc:
                break
            payloads.append(data[start:stop])
            pos = stop
            report["records"] += 1
        # Appends are strictly sequential, so an invalid frame can only
        # be the torn end of the file — everything after it is the same
        # crashed write.
        report["torn_bytes"] = total - pos
        report["valid_size"] = pos
        return epoch, payloads, report

    def ensure_open(self):
        """Open the journal (creating it, with a header, if needed) and
        position at the end.  Unbuffered, so every append is one write
        syscall and a failed attempt leaves no hidden buffered bytes."""
        if self._handle is None:
            try:
                handle = open(self.path, "r+b", buffering=0)
            except FileNotFoundError:
                handle = open(self.path, "x+b", buffering=0)
            size = handle.seek(0, os.SEEK_END)
            if size < _WAL_HEADER.size:
                header = _WAL_HEADER.pack(
                    _WAL_MAGIC, WAL_VERSION, self.epoch
                )

                def _write_header():
                    handle.seek(0)
                    _io.truncate(handle, 0)
                    _io.write(handle, header)
                    _io.fsync(handle.fileno())
                try:
                    _retry_io(_write_header, "tail journal header")
                except BaseException:
                    handle.close()
                    raise
                size = len(header)
            self._handle = handle
            self._size = size
        return self._handle

    def append(self, payload: bytes) -> None:
        """Durably append one record; the caller may acknowledge its
        rows once this returns."""
        handle = self.ensure_open()
        record = _WAL_FRAME.pack(
            len(payload), zlib.crc32(payload)
        ) + payload
        offset = self._size

        def _write_record():
            # Rewind first: a partially-applied previous attempt (e.g.
            # ENOSPC mid-record) must not leave half a frame in front
            # of the retry.
            handle.seek(offset)
            _io.truncate(handle, offset)
            _io.write(handle, record)
            _io.fsync(handle.fileno())
        _retry_io(_write_record, "tail journal append")
        self._size = offset + len(record)

    def truncate_to(self, size: int) -> None:
        """Drop a torn trailing record detected by :meth:`recover`."""
        handle = self.ensure_open()

        def _do():
            _io.truncate(handle, size)
            _io.fsync(handle.fileno())
        _retry_io(_do, "tail journal truncate")
        self._size = size

    def reset(self, epoch: int) -> None:
        """Atomically replace the journal with a fresh empty one at
        ``epoch`` (called after the manifest committed that epoch)."""
        self.close()
        self.epoch = epoch
        _write_file_atomic(
            self.path,
            [_WAL_HEADER.pack(_WAL_MAGIC, WAL_VERSION, epoch)],
            "tail journal",
        )

    def discard(self) -> None:
        """Remove the journal file (stale epoch, or WAL disabled)."""
        self.close()
        try:
            _retry_io(lambda: _io.unlink(self.path), "remove tail journal")
        except FileNotFoundError:
            pass
        except OSError as exc:  # pragma: no cover - best-effort cleanup
            logger.warning(
                "could not remove tail journal %s: %s", self.path, exc
            )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._size = 0


class _StoreReadMixin(QuerySurface):
    """Merge-on-read query surface shared by :class:`FlowStore` and
    :class:`StoreSnapshot`.

    The public query methods are generated from the query table
    (:mod:`repro.analytics.queries`); this class is the table's
    executor for sources = sealed segments + live tail
    (:meth:`_partial` on top of :meth:`_run_sources`).  Every
    whole-store read goes through one primitive — :meth:`_view`,
    which captures ``(segments, tail, tail_map)`` under the store
    mutex — so a query always executes over one internally-consistent
    member set even while writers keep appending, sealing or
    compacting.  A host class provides the members (``_segments``,
    ``_tail``, ``_tail_map``, ``_interns``, ``_mutex``,
    ``_scan_stats``), the execution knobs (``prune``, ``parallel``,
    ``cache_segments``) and ``_executor()``.

    Concurrency contract (any number of readers; writers serialize on
    the store's own writer lock, see :class:`FlowStore`):

    * sealed segment files are immutable — their kernels run lock-free
      (and concurrently under ``parallel > 1``);
    * the live tail is the one mutable source, so the tail step of
      every pass — bringing the tail's id map up to date, then the
      kernel — runs under the store mutex, serialized against the
      writer;
    * the global intern tables are append-only and ids are stable, so
      a result that references them can never dangle — though the
      tables themselves (:meth:`fqdns`, :meth:`slds`) are shared with
      the live store and keep growing past a snapshot's pin point.
    """

    #: Optional cooperative cancellation token (duck-typed: ``check()``
    #: raising to cancel, ``note_scheduled(n)``/``note_done()`` for
    #: partial-work accounting — :class:`repro.serve.deadline.Deadline`
    #: is the canonical implementation).  Assigned per *instance* —
    #: the serve layer sets it on a pinned :class:`StoreSnapshot`, so
    #: one request's deadline never leaks into another reader.
    #: :meth:`_run_sources` consults it at every kernel boundary,
    #: including kernels running on the ``parallel`` pool.
    cancel_token = None

    # -- consistent view capture ------------------------------------------

    def _view(self) -> tuple[tuple, FlowDatabase, array]:
        """``(segments, tail, tail_map)`` captured atomically.

        The segments tuple is a private copy, so a concurrent
        seal/compact splice of the live list cannot shift this pass;
        the tail reference stays shared — tail steps take the mutex
        (and sync ``tail_map`` there, see :meth:`_sync_tail_map`).
        """
        with self._mutex:
            return tuple(self._segments), self._tail, self._tail_map

    def _sync_tail_map(self, tail: FlowDatabase, tail_map: array) -> None:
        """Extend ``tail_map`` (tail-local fqdn id → global id) over
        every label ``tail`` has interned so far.  Must run under the
        same mutex hold as whatever then reads the tail's ids: a batch
        landing in between would intern a label the map lacks."""
        with self._mutex:
            names = tail._fqdn_names
            intern = self._interns._intern_fqdn
            while len(tail_map) < len(names):
                tail_map.append(intern(names[len(tail_map)]))

    def _label_tables(self) -> FlowDatabase:
        with self._mutex:
            self._sync_tail_map(self._tail, self._tail_map)
            return self._interns

    # -- the executor ------------------------------------------------------

    def _run_sources(self, kernel, hint: Optional[QueryHint] = None,
                     rows=None) -> list:
        """Run ``kernel(db, fqdn_map, local_rows, base_row)`` over every
        surviving source and return the results **in row order** — the
        one execution path behind every query and grouped aggregation.

        Pruning (``self.prune``) drops a sealed segment *before* it is
        materialized when either (a) ``rows`` is given and the
        header-derived row split proves the segment holds none of the
        selected rows, or (b) ``hint`` is given and the segment's
        footer metadata proves no row can match.  The live tail is
        never pruned (it is already resident and has no metadata).

        Both skips — including the exact row-split one — sit behind
        ``self.prune`` on purpose: the PR4 ``_sources_with_rows``
        pass materialized every segment regardless (its generator
        called ``reader.database()`` at yield time; the empty-split
        ``continue`` only skipped the kernel), so ``prune=False``
        reproduces that cost faithfully, which is exactly what the
        differential property suite and the ``flowdb_pruned_query``
        bench's unpruned arm need from it.  A kernel over an empty
        row set is O(1), so re-running it there costs nothing extra.

        With ``parallel > 1`` the surviving kernels run on the thread
        pool; because partials are merged from this ordered result
        list, parallel execution is bit-identical to serial.  The
        member set is the :meth:`_view` capture, and the tail step
        syncs the tail's id map and runs the kernel under one hold of
        the store mutex — so concurrent ingest can never tear a pass
        or hand the kernel a label its map lacks, and a
        :class:`StoreSnapshot` pass never sees a segment retired out
        from under it.

        When :attr:`cancel_token` is set, every kernel boundary calls
        ``token.check()`` first — on the request thread in serial mode
        and on each pool worker under ``parallel > 1`` — so an expired
        request stops before the *next* segment is materialized rather
        than finishing an unbounded scan.  Completed kernels are
        reported via ``token.note_done()`` (the partial-work counters
        behind the serve layer's 504 payload).
        """
        token = self.cancel_token
        segments, tail, tail_map = self._view()
        tail_len = len(tail)
        prune = self.prune
        # Per-source base rows come from the segment headers alone, so
        # splitting a row selection materializes nothing.
        bases: list[int] = []
        total = 0
        for reader in segments:
            bases.append(total)
            total += reader.n_rows
        if tail_len:
            bases.append(total)
            total += tail_len
        split = split_rows(rows, bases, total) if rows is not None else None
        cache = self.cache_segments
        mutex = self._mutex
        thunks = []
        scanned = pruned = 0
        for index, reader in enumerate(segments):
            local = split[index] if split is not None else None
            skip = prune and (
                (split is not None and not len(local))
                or (hint is not None and not hint.admits(reader.meta))
            )
            if skip:
                pruned += 1
                continue
            scanned += 1

            def thunk(reader=reader, local=local, base=bases[index]):
                if token is not None:
                    token.check()
                was_resident = reader.resident
                try:
                    return kernel(
                        reader.database(), reader.fqdn_map, local, base
                    )
                finally:
                    if not cache and not was_resident:
                        reader.release()
                    if token is not None:
                        token.note_done()
            thunks.append(thunk)
        if tail_len:
            local = split[-1] if split is not None else None

            def tail_thunk(local=local, base=bases[-1]):
                if token is not None:
                    token.check()
                with mutex:
                    self._sync_tail_map(tail, tail_map)
                    result = kernel(tail, tail_map, local, base)
                if token is not None:
                    token.note_done()
                return result
            thunks.append(tail_thunk)
        with mutex:
            # The /metrics prune-hit-rate feed; snapshots share their
            # parent store's dict, so the service sees one series.
            stats = self._scan_stats
            stats["queries"] += 1
            stats["segments_scanned"] += scanned
            stats["segments_pruned"] += pruned
        if token is not None:
            token.note_scheduled(len(thunks))
            token.check()
        if self.parallel > 1 and len(thunks) > 1:
            return list(self._executor().map(_call_thunk, thunks))
        return [thunk() for thunk in thunks]

    def _partial(self, query: Query, args: tuple):
        """One table query over this store's sources: kernel per
        source, lifted through the source's id map and base row,
        merged — and left *unfinished*, so a shard worker can hand the
        result to its coordinator to lift and merge once more."""
        if query.scope is INTERNS:
            with self._mutex:  # the tables grow under concurrent syncs
                return query.kernel(self._label_tables(), *args)
        if query.scope is SUMMARY:
            segments, tail, _tail_map = self._view()
            parts = [
                query.kernel(reader.n_rows, reader.summary)
                for reader in segments
            ]
            with self._mutex:
                if len(tail):
                    parts.append(query.kernel(
                        len(tail), partial(database_summary, tail)
                    ))
            return query.merge(parts)
        lift = query.lift

        def kernel(db, fqdn_map, local_rows, base):
            part = query.kernel(db, *query.with_rows(args, local_rows))
            return part if lift is None else lift(part, fqdn_map, base)

        return query.merge(self._run_sources(
            kernel,
            query.hint(*args) if query.hint is not None else None,
            query.rows(args),
        ))


def read_manifest(directory) -> dict:
    """Read and validate ``directory/MANIFEST.json`` — the one parser
    behind :class:`FlowStore`'s open, the shard coordinator's
    manifest-only ``prune_report`` and ``repro-flowstore verify``.

    Returns ``{"segments": [(name, rows, meta), ...], "wal_epoch",
    "quarantined"}`` with ``meta`` the promoted footer copy
    (:meth:`SegmentMeta.from_manifest`; ``None`` = never prune).  A
    missing manifest is an empty store; anything malformed, and a
    version-1 manifest, raises :class:`StorageError`.  Early version-2
    manifests carry neither ``wal_epoch`` nor ``quarantined``.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return {"segments": [], "wal_epoch": 0, "quarantined": []}
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StorageError(f"malformed manifest {path}: {exc}") from exc
    if isinstance(manifest, dict) and manifest.get("format") == 1:
        raise _Version1Error(f"manifest {path}")
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != FORMAT_VERSION
        or not isinstance(manifest.get("segments"), list)
    ):
        raise StorageError(f"unsupported manifest {path}")
    segments: list[tuple[str, int, Optional[SegmentMeta]]] = []
    for entry in manifest["segments"]:
        if not isinstance(entry, dict):
            raise StorageError(f"bad segment entry {entry!r} in manifest")
        name, rows = entry.get("name"), entry.get("rows")
        if not isinstance(name, str) or not _SEGMENT_RE.match(name):
            raise StorageError(f"bad segment name {name!r} in manifest")
        if not isinstance(rows, int) or rows < 0:
            raise StorageError(f"bad row count {rows!r} in manifest")
        segments.append(
            (name, rows, SegmentMeta.from_manifest(entry.get("meta")))
        )
    wal_epoch = manifest.get("wal_epoch", 0)
    if not isinstance(wal_epoch, int) or wal_epoch < 0:
        raise StorageError(f"bad wal_epoch {wal_epoch!r} in manifest")
    quarantined = manifest.get("quarantined", [])
    if not isinstance(quarantined, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("reason"), str)
        for entry in quarantined
    ):
        raise StorageError("bad quarantined list in manifest")
    return {
        "segments": segments,
        "wal_epoch": wal_epoch,
        "quarantined": [
            {"name": entry["name"], "reason": entry["reason"]}
            for entry in quarantined
        ],
    }


def _checked_sizing(spill_rows, spill_bytes, parallel) -> tuple[int, int]:
    """``(spill_rows, parallel)`` with defaults applied; ``ValueError``
    on a non-positive sizing knob.  Run by :class:`FlowStore` and — so
    a bad knob fails before a topology file is committed — by the
    shard coordinator's constructor."""
    if spill_rows is None:
        spill_rows = DEFAULT_SPILL_ROWS
    if spill_rows <= 0:
        raise ValueError("spill_rows must be positive")
    if spill_bytes is not None and spill_bytes <= 0:
        raise ValueError("spill_bytes must be positive")
    if parallel is None:
        parallel = 1
    if parallel <= 0:
        raise ValueError("parallel must be positive")
    return spill_rows, parallel


class FlowStore(_StoreReadMixin):
    """Durable Flow Database: sealed segments plus a live in-memory tail.

    ``FlowStore(directory)`` opens (or creates) a store.  Ingestion
    (:meth:`add`, :meth:`add_all`, :meth:`ingest_batch`) lands in an
    in-memory :class:`FlowDatabase` tail and spills to a new segment
    whenever the tail reaches ``spill_rows`` rows (or, if given,
    ``spill_bytes`` of column/label data).  :meth:`flush` seals the
    tail explicitly; :meth:`compact` merges segment runs.

    Every read method of the in-memory ``FlowDatabase`` is available
    and answers over *all* rows — sealed and live alike: string-keyed
    queries run per segment and concatenate in row order; id-keyed
    grouped aggregations run per segment on local ids, remap through
    per-segment id maps onto one global intern table (built from the
    segment string tables in segment order, which reproduces global
    first-appearance order) and merge.  The analytics layer therefore
    runs unchanged on a store that never held the dataset in one piece.

    Two execution knobs (both answer-preserving):

    * ``prune`` (default True) — skip sealed segments whose footer
      metadata (:class:`SegmentMeta`) proves they cannot contribute to
      a label/domain/server/time-window query, *before* any column is
      read.  ``prune=False`` restores the PR4 scan-everything pass —
      the differential baseline the property suite compares against.
    * ``parallel=N`` — run the surviving per-segment kernels on an
      ``N``-thread pool and merge partials in segment order, so
      results are bit-identical to the serial pass.  Threads (not
      processes) because the kernels live in numpy reductions,
      ``frombytes`` bulk copies and file reads — all GIL-releasing —
      and because the merged results then need no pickling.

    Writes are thread-safe: every writer verb (``add``, ``add_all``
    per journaled chunk, ``ingest_batch``, ``flush``, ``compact``,
    ``close``) runs under the store's own writer lock, so a drain
    loop, an HTTP ingest thread and a compaction timer may share one
    store without an outside lock.  :meth:`counters` is the public
    view of the store's live numbers.  A directory holding a sharded
    root is refused — :func:`repro.analytics.shard.open_store` opens
    either kind.
    """

    #: Flat store; the shard coordinator's twin attribute is True.
    sharded = False

    def __init__(
        self,
        directory,
        spill_rows: Optional[int] = None,
        spill_bytes: Optional[int] = None,
        cache_segments: bool = True,
        parallel: Optional[int] = None,
        prune: bool = True,
        wal: bool = True,
        strict: bool = False,
    ):
        spill_rows, parallel = _checked_sizing(
            spill_rows, spill_bytes, parallel
        )
        self.directory = Path(directory)
        if (self.directory / SHARDS_NAME).exists():
            raise StorageError(
                f"{self.directory} is a sharded store root; open it "
                f"with repro.analytics.shard.open_store"
            )
        self.spill_rows = spill_rows
        self.spill_bytes = spill_bytes
        #: True (default) keeps materialized segments cached for the
        #: next query — right when the dataset fits and queries repeat
        #: (the experiments sweep).  False streams every whole-store
        #: pass load→merge→release, holding one segment at a time —
        #: right for larger-than-memory stores.
        self.cache_segments = cache_segments
        self.parallel = parallel
        self.prune = prune
        #: wal (default True) journals every acknowledged ingest into
        #: ``tail.wal`` before it lands in the in-memory tail, so a
        #: crash loses nothing that was acknowledged.  A surviving
        #: current-epoch journal is replayed at open even with
        #: ``wal=False`` — durability is only ever dropped going
        #: forward, never retroactively.
        self.wal_enabled = wal
        #: strict=True restores PR4/PR5 hard-fail opens: any segment
        #: that fails validation raises ``StorageError``.  The default
        #: quarantines it and degrades gracefully (see :meth:`health`).
        self.strict = strict
        self._pool = None                # lazily-built thread pool
        #: Store mutex (readers, and writers' in-memory commits).
        #: Readers hold it only for view capture and tail kernels;
        #: sealed-segment scans run lock-free.  Reentrant because a
        #: tail kernel may call back into helpers that take it again.
        self._mutex = threading.RLock()
        #: Writer lock — every writer verb runs under it (see the class
        #: docstring).  Distinct from the mutex, so a journal fsync or
        #: a segment write never blocks a query; reentrant because an
        #: ingest spills into ``flush``, and ``compact`` / ``close``
        #: seal first.
        self._write_lock = threading.RLock()
        #: Snapshot bookkeeping: the generation bumps on every member
        #: set change (seal, compact); pins count live readers per
        #: generation; retired holds (generation, path) of compacted
        #: segment files whose unlink waits for the last older pin.
        self._generation = 0
        self._pins: dict[int, int] = {}
        self._retired: list[tuple[int, Path]] = []
        #: Shared pruning counters behind the /metrics prune hit-rate.
        self._scan_stats = {
            "queries": 0, "segments_scanned": 0, "segments_pruned": 0,
        }
        self._writer = SegmentWriter(self.directory)
        self._interns = FlowDatabase()   # global id tables only (0 rows)
        self._segments: list[SegmentReader] = []
        self._tail = FlowDatabase()
        self._tail_map = array("i")      # tail-local fqdn id -> global
        self._tail_label_bytes = 0       # incremental tail_bytes() state
        self._tail_label_count = 0
        manifest = read_manifest(self.directory)
        self._wal_epoch: int = manifest["wal_epoch"]
        self._quarantined: list[dict] = manifest["quarantined"]
        failed = []
        for name, _rows, _meta in manifest["segments"]:
            # Only the name is consumed here: the CRC-covered footer is
            # the store's own authoritative metadata source.
            try:
                reader = SegmentReader.open(self.directory / name)
            except _Version1Error:
                raise       # before anything on disk has been touched
            except StorageError as exc:
                if self.strict:
                    raise
                failed.append((name, exc))
                continue
            reader.bind(self._interns)
            self._segments.append(reader)
        self._swept_tmp = self._sweep_tmp_files()
        for name, exc in failed:
            self._quarantine_segment(name, exc)
        self._wal = TailJournal(self.directory / WAL_NAME, self._wal_epoch)
        self._recover_wal()             # fills self._wal_report
        if failed:
            # Commit the drop: the manifest stops listing the segment
            # and records it under "quarantined" so the degradation is
            # visible to every later open and to the CLI.
            self._write_manifest()

    # -- crash recovery / degradation --------------------------------------

    def _sweep_tmp_files(self) -> int:
        """Unlink ``*.tmp`` orphans left by a crashed atomic rename.

        They are invisible to readers (only renamed files are ever
        opened) but would otherwise accumulate forever.  Swept before
        the journal is opened so a crashed ``tail.wal.tmp`` cannot
        shadow a later reset.
        """
        swept = 0
        try:
            entries = list(self.directory.iterdir())
        except OSError:  # pragma: no cover - directory just created
            return 0
        for entry in entries:
            if not entry.name.endswith(".tmp"):
                continue
            try:
                _retry_io(
                    lambda path=entry: _io.unlink(path),
                    f"sweep {entry.name}",
                )
            except OSError as exc:  # pragma: no cover - best-effort
                logger.warning(
                    "could not sweep orphan %s: %s", entry, exc
                )
                continue
            logger.info("swept orphaned temp file %s", entry.name)
            swept += 1
        return swept

    def _quarantine_segment(self, name: str, exc: Exception) -> None:
        """Move a failed segment aside and record the degradation.

        The store stays open and serves every surviving row; the
        quarantined file keeps its bytes for post-mortem under
        ``quarantine/``.  Note the store's global row numbering shifts
        by the missing segment's rows — degraded means *smaller*, never
        *wrong*.
        """
        logger.error("quarantining segment %s: %s", name, exc)
        entry = {"name": name, "reason": str(exc)}
        source = self.directory / name
        if source.exists():
            qdir = self.directory / QUARANTINE_DIR
            try:
                qdir.mkdir(exist_ok=True)
                _retry_io(
                    lambda: _io.replace(source, qdir / name),
                    f"quarantine {name}",
                )
            except OSError as move_exc:  # pragma: no cover - best-effort
                logger.warning(
                    "could not move %s to quarantine: %s", name, move_exc
                )
                entry["reason"] += f" (quarantine move failed: {move_exc})"
        if not any(
            existing["name"] == name for existing in self._quarantined
        ):
            self._quarantined.append(entry)

    def _recover_wal(self) -> None:
        """Replay (or discard) a journal that survived the last process.

        * epoch == manifest epoch — the journal holds exactly the rows
          the manifest does not: replay into the tail, drop a torn
          trailing record.
        * epoch < manifest epoch — the crash hit between the manifest
          commit and the journal reset of a seal: every journaled row
          already lives in a committed segment; discard.
        * epoch > manifest epoch — cannot happen under the protocol
          (the epoch is bumped manifest-first); seeing it means the
          directory was tampered with, so replaying could double rows.
          Discarded (raised under ``strict=True``).
        """
        report = {
            "enabled": self.wal_enabled,
            "epoch": self._wal_epoch,
            "recovered_batches": 0,
            "recovered_rows": 0,
            "torn_bytes_dropped": 0,
            "skipped_records": 0,
            "stale_dropped": False,
        }
        self._wal_report = report
        epoch, payloads, raw = TailJournal.recover(self._wal.path)
        if raw["bytes"] == 0 and epoch is None and raw["torn_bytes"] == 0:
            return                      # no journal on disk
        if epoch is None:
            # Unreadable header: a crash during journal creation, before
            # anything was acknowledged against it.
            logger.warning(
                "dropping tail journal with unreadable header (%d bytes)",
                raw["bytes"],
            )
            report["torn_bytes_dropped"] = raw["bytes"]
            self._wal.discard()
            return
        if epoch != self._wal_epoch:
            if epoch > self._wal_epoch and self.strict:
                raise StorageError(
                    f"tail journal epoch {epoch} is ahead of manifest "
                    f"epoch {self._wal_epoch}"
                )
            level = logger.error if epoch > self._wal_epoch else logger.info
            level(
                "discarding tail journal at epoch %d (store is at %d)",
                epoch, self._wal_epoch,
            )
            report["stale_dropped"] = True
            self._wal.discard()
            return
        for payload in payloads:
            try:
                rows = self._tail.ingest_batch(payload)
            except ValueError as exc:
                # A record that fails ingest would have raised on the
                # original call too — its rows were never acknowledged.
                logger.warning(
                    "skipping unplayable tail journal record: %s", exc
                )
                report["skipped_records"] += 1
                continue
            report["recovered_batches"] += 1
            report["recovered_rows"] += rows
        report["torn_bytes_dropped"] = raw["torn_bytes"]
        if raw["torn_bytes"]:
            logger.warning(
                "dropped %d torn trailing bytes from tail journal",
                raw["torn_bytes"],
            )
        if self.wal_enabled:
            if raw["torn_bytes"]:
                self._wal.truncate_to(raw["valid_size"])
        # With wal=False the journal file is left in place: its rows are
        # live in the tail but not yet durable, and the file is only
        # discarded once flush() seals them into a committed segment.

    # -- manifest ----------------------------------------------------------

    def _write_manifest(self) -> None:
        payload = json.dumps({
            "format": FORMAT_VERSION,
            "wal_epoch": self._wal_epoch,
            "segments": [
                {
                    "name": reader.name,
                    "rows": reader.n_rows,
                    "meta": reader.meta.to_manifest(),
                }
                for reader in self._segments
            ],
            "quarantined": self._quarantined,
        }, indent=2) + "\n"
        _write_file_atomic(
            self.directory / MANIFEST_NAME,
            [payload.encode("utf-8")],
            "manifest",
        )

    def _executor(self):
        with self._mutex:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.parallel,
                    thread_name_prefix="flowstore",
                )
            return self._pool

    # -- ingestion / spilling ---------------------------------------------

    def add(self, flow: FlowRecord) -> None:
        """Insert one flow record (spills when the budget is crossed);
        see :meth:`add_all`."""
        self.add_all((flow,))

    def _wal_chunk_rows(self) -> int:
        """Rows journaled per ``add_all`` record.

        A journaled chunk must land in the tail whole before a spill
        may seal it: spilling mid-chunk would strand the chunk's later
        rows in the *previous* (now stale) journal epoch and lose them
        on crash.  So spill checks happen only at chunk boundaries, and
        the chunk is sized well under both spill budgets to keep that
        granularity loss negligible.
        """
        chunk = min(4096, self.spill_rows)
        if self.spill_bytes is not None:
            chunk = min(chunk, max(1, self.spill_bytes // _ROW_BYTES))
        return chunk

    def add_all(self, flows: Iterable[FlowRecord]) -> None:
        """Insert many flow records, a chunk at a time.

        Each chunk is validated by encoding it (``ValueError`` with
        nothing written — whatever ``wal`` says, a flow the seal could
        not write never reaches the tail) and, with the journal on,
        durably appended to ``tail.wal`` *before* it lands in the tail:
        once the call returns, the rows survive a crash.
        """
        chunk_rows = self._wal_chunk_rows()
        iterator = iter(flows)
        while True:
            chunk = list(islice(iterator, chunk_rows))
            if not chunk:
                return
            with self._write_lock:
                payload = _encode_flow_batch(chunk)
                if self.wal_enabled:
                    self._wal.append(payload)
                with self._mutex:
                    tail = self._tail
                    for flow in chunk:
                        tail.add(flow)
                self._maybe_spill()

    def ingest_batch(self, payload) -> int:
        """Absorb one eventcodec tagged-flow batch (see
        :meth:`FlowDatabase.ingest_batch`); spills past the budget.

        Parse, journal, commit: the batch is validated first (a
        rejected payload raises ``CodecError`` with nothing written),
        then journaled as-is, then applied — so every journal record is
        playable and an acknowledged batch replays bit-identically
        after a crash.
        """
        with self._write_lock:
            parsed = self._tail.parse_batch(payload)
            if self.wal_enabled:
                self._wal.append(bytes(payload))
            with self._mutex:
                count = self._tail.commit_batch(parsed)
            self._maybe_spill()
        return count

    def tail_bytes(self) -> int:
        """Approximate byte weight of the live tail (columns + labels).

        O(1) amortized — ``_maybe_spill`` calls this per inserted flow
        when a byte budget is set, so the label-byte total is tracked
        incrementally (the intern table is append-only) instead of
        re-summed over every distinct FQDN each time.
        """
        names = self._tail._fqdn_names
        while self._tail_label_count < len(names):
            self._tail_label_bytes += len(names[self._tail_label_count])
            self._tail_label_count += 1
        return len(self._tail) * _ROW_BYTES + self._tail_label_bytes

    def _maybe_spill(self) -> None:
        tail = self._tail
        if not len(tail):
            return
        if len(tail) >= self.spill_rows or (
            self.spill_bytes is not None
            and self.tail_bytes() >= self.spill_bytes
        ):
            self.flush()

    def flush(self) -> Optional[str]:
        """Seal the live tail into a new segment; returns its file name
        (None when the tail is empty).

        The sealed tail is *released*, not cached: spilling is what
        bounds resident memory on a multi-day ingest, so the rows now
        live on disk only and rematerialize lazily if queried.

        Concurrent readers are never torn by a seal: the segment file
        is written and read back outside the mutex (readers keep the
        old view: segments + live tail), then the in-memory commit —
        append the reader, rebind an empty tail, bump the generation —
        happens atomically under the mutex.  A snapshot pinned before
        the commit keeps the *old* tail object, which is frozen forever
        after the rebind, so it still sees every row exactly once."""
        with self._write_lock:
            tail = self._tail
            if not len(tail):
                return None
            self._sync_tail_map(tail, self._tail_map)
            name = self._writer.write(tail)
            # Deliberate read-back: re-opening the file we just wrote
            # verifies the write end to end (size + CRC over what actually
            # hit the filesystem) before the manifest commits it — one
            # extra sequential read per sealed segment, page-cache warm.
            reader = SegmentReader.open(self.directory / name)
            reader.bind(self._interns, self._tail_map)
            with self._mutex:
                self._segments.append(reader)
                # Epoch protocol: the manifest commits the segment AND the
                # new WAL epoch in one atomic rename, and only then is the
                # journal replaced.  A crash before the manifest leaves an
                # orphan segment plus a current-epoch journal (replayed —
                # no loss); a crash after it leaves a stale-epoch journal
                # (discarded — the rows live in the committed segment, no
                # double count).
                self._wal_epoch += 1
                self._generation += 1
                self._tail = FlowDatabase()
                self._tail_map = array("i")
                self._tail_label_bytes = 0
                self._tail_label_count = 0
            self._write_manifest()
            if self.wal_enabled:
                self._wal.reset(self._wal_epoch)
            else:
                # Journal-less mode still clears a journal inherited from a
                # WAL-enabled run: its rows are sealed now.
                self._wal.epoch = self._wal_epoch
                if self._wal.path.exists():
                    self._wal.discard()
            return name

    def close(self) -> None:
        """Seal any live rows and release the worker pool and journal
        handle.  The store object stays usable (both rebuild lazily on
        next use)."""
        with self._write_lock:
            self.flush()
            self._wal.close()
            # Close invalidates outstanding snapshots: anything retired
            # but still pinned is dropped now rather than leaked forever.
            self._drain_retired(force=True)
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "FlowStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- maintenance -------------------------------------------------------

    @property
    def segments(self) -> tuple[SegmentReader, ...]:
        return tuple(self._segments)

    def release_segments(self) -> None:
        """Drop every cached in-memory segment materialization."""
        for reader in self._segments:
            reader.release()

    # -- snapshot isolation ------------------------------------------------

    def pin(self) -> "StoreSnapshot":
        """Pin the current manifest generation and return a read-only
        :class:`StoreSnapshot` over it.

        While the pin is held, :meth:`compact` defers unlinking any
        segment file retired at a later generation, so every query the
        snapshot runs sees exactly the member set of the pin instant —
        bit-identical answers no matter how many seals or compactions
        land meanwhile.  Use as a context manager::

            with store.pin() as snap:
                snap.rows_in_window(t0, t1)

        Pins are cheap (a refcount) but hold disk: release them
        promptly or compacted files accumulate.
        """
        with self._mutex:
            snapshot = StoreSnapshot(self)
            self._pins[snapshot.generation] = (
                self._pins.get(snapshot.generation, 0) + 1
            )
            return snapshot

    def unpin(self, snapshot: "StoreSnapshot") -> None:
        """Release a pin (idempotent); unlinks any retired segment
        files that were waiting on it."""
        with self._mutex:
            if snapshot._released:
                return
            snapshot._released = True
            generation = snapshot.generation
            count = self._pins.get(generation, 0) - 1
            if count > 0:
                self._pins[generation] = count
            else:
                self._pins.pop(generation, None)
        self._drain_retired()

    def _drain_retired(self, force: bool = False) -> None:
        """Unlink retired segment files no pinned reader can still see.

        A file retired at generation G is visible only to snapshots
        pinned at generations < G, so it is due for unlink once the
        oldest outstanding pin is >= G (or there are no pins at all).
        ``force=True`` drops everything regardless — :meth:`close`
        uses it, invalidating any outstanding snapshots.
        """
        with self._mutex:
            floor = min(self._pins) if self._pins else None
            due: list[Path] = []
            keep: list[tuple[int, Path]] = []
            for generation, path in self._retired:
                if force or floor is None or floor >= generation:
                    due.append(path)
                else:
                    keep.append((generation, path))
            self._retired = keep
        for path in due:
            try:
                _io.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def compact(self, small_rows: Optional[int] = None) -> int:
        """Merge segment runs into single segments; returns the number
        of segment files removed.

        With ``small_rows=None`` every sealed segment merges into one.
        Otherwise only *adjacent* runs of two or more segments, each
        smaller than ``small_rows`` rows, are rewritten (adjacency
        preserves global row order, which the query surface relies
        on).  String-table ids are re-interned into the merged tables;
        the old files are unlinked only after the new segment is
        committed to the manifest — and, when readers hold pinned
        snapshots from an earlier generation, deferred further until
        the last such pin is released (:meth:`unpin` drains them), so
        a pinned snapshot can always rematerialize its segments.
        """
        with self._write_lock:
            self.flush()
            segments = self._segments
            if small_rows is None:
                runs = [(0, len(segments))] if len(segments) >= 2 else []
            else:
                runs = []
                start = None
                for index, reader in enumerate(segments):
                    if reader.n_rows < small_rows:
                        if start is None:
                            start = index
                        continue
                    if start is not None and index - start >= 2:
                        runs.append((start, index))
                    start = None
                if start is not None and len(segments) - start >= 2:
                    runs.append((start, len(segments)))
            removed = 0
            for start, stop in reversed(runs):
                run = segments[start:stop]
                name = self._writer.next_name()
                # The merge reads only sealed (immutable) files — no lock.
                _merge_segment_files(run, self.directory / name)
                merged = SegmentReader.open(self.directory / name)
                with self._mutex:
                    # Interning into the shared global tables and splicing
                    # the member list are the commit point for readers.
                    merged.bind(self._interns)
                    segments[start:stop] = [merged]
                    self._generation += 1
                    retire_gen = self._generation
                self._write_manifest()
                with self._mutex:
                    self._retired.extend(
                        (retire_gen, reader.path) for reader in run
                    )
                # With no pins outstanding this unlinks immediately, in
                # the same order the pre-pinning code did (the crash sweep
                # counts on that); otherwise the files wait for unpin.
                self._drain_retired()
                removed += len(run) - 1
            return removed

    def health(self) -> dict:
        """Self-diagnosis of the open store.

        Reports everything graceful degradation and crash recovery did
        at open: quarantined segments (with reasons), journal recovery
        statistics (records replayed, torn bytes dropped, stale epochs
        discarded), and orphaned temp files swept.  ``status`` is
        ``"degraded"`` whenever any sealed data is missing — i.e. a
        segment sits in quarantine or a journal record could not be
        replayed — and ``"ok"`` otherwise.  Surfaced by
        ``repro-flowstore stats`` and checked (non-zero exit) by
        ``repro-flowstore verify``.
        """
        wal = dict(self._wal_report, epoch=self._wal_epoch)
        degraded = bool(self._quarantined) or bool(
            wal.get("skipped_records")
        )
        return {
            "status": "degraded" if degraded else "ok",
            "strict": self.strict,
            "quarantined_segments": [
                dict(entry) for entry in self._quarantined
            ],
            "wal": wal,
            "tmp_files_swept": self._swept_tmp,
        }

    def version(self) -> tuple[int, int]:
        """``(generation, tail rows)`` under one hold of the mutex.
        An acknowledged ingest grows the tail, a seal or compaction
        bumps the generation: equal versions mean equal answers."""
        with self._mutex:
            return self._generation, len(self._tail)

    def counters(self) -> dict[str, int]:
        """The store's live numbers as one flat ``{name: int}``, read
        under a single hold of the store mutex — the public view behind
        the ``flowstore_*`` metric series (each key is its series name
        without the prefix) and the base of :meth:`stats`."""
        with self._mutex:
            tail_rows = len(self._tail)
            scan = self._scan_stats
            wal = self._wal_report
            return {
                "rows": tail_rows + sum(
                    reader.n_rows for reader in self._segments
                ),
                "tail_rows": tail_rows,
                "segments": len(self._segments),
                "quarantined_segments": len(self._quarantined),
                "generation": self._generation,
                "wal_epoch": self._wal_epoch,
                "pinned_readers": sum(self._pins.values()),
                "retired_pending": len(self._retired),
                "scan_queries_total": scan["queries"],
                "segments_scanned_total": scan["segments_scanned"],
                "segments_pruned_total": scan["segments_pruned"],
                "wal_recovered_batches": wal["recovered_batches"],
                "wal_recovered_rows": wal["recovered_rows"],
                "wal_torn_bytes_dropped": wal["torn_bytes_dropped"],
                "wal_skipped_records": wal["skipped_records"],
            }

    def stats(self) -> dict:
        """Inspection summary (the ``repro-flowstore inspect``/``stats``
        payload) — per-segment pruning metadata included, so the store
        is fully introspectable without reading any column block.

        The member set and :meth:`counters` are captured under one
        hold of the store mutex — a concurrent seal or compaction can
        therefore never tear the payload (the segment listing,
        ``sealed_rows`` and ``bytes_on_disk`` always describe the same
        instant)."""
        with self._mutex:
            segments_view = tuple(self._segments)
            counters = self.counters()
            fqdns = len(self._interns._fqdn_names)
            slds = len(self._interns._sld_names)
            pinned = [
                {"generation": generation, "readers": readers}
                for generation, readers in sorted(self._pins.items())
            ]
        segments = [
            {
                "name": reader.name,
                "rows": reader.n_rows,
                "labels": reader.n_labels,
                "bytes": reader.file_size,
                "resident": reader.resident,
                "meta": reader.meta.to_manifest(),
            }
            for reader in segments_view
        ]
        return {
            "directory": str(self.directory),
            "format": FORMAT_VERSION,
            "parallel": self.parallel,
            "prune": self.prune,
            "health": self.health(),
            "segments": segments,
            "sealed_rows": counters["rows"] - counters["tail_rows"],
            "tail_rows": counters["tail_rows"],
            "rows": counters["rows"],
            "fqdns": fqdns,
            "slds": slds,
            "bytes_on_disk": sum(
                reader.file_size for reader in segments_view
            ),
            "wal_epoch": counters["wal_epoch"],
            "generation": counters["generation"],
            "pinned_generations": pinned,
            "retired_pending": counters["retired_pending"],
            "scan_stats": {
                "queries": counters["scan_queries_total"],
                "segments_scanned": counters["segments_scanned_total"],
                "segments_pruned": counters["segments_pruned_total"],
            },
        }

    def prune_report(self, hint: QueryHint) -> dict:
        """Which sealed segments a query carrying ``hint`` would scan.

        Pure metadata arithmetic — no segment is opened beyond what
        :class:`FlowStore` already validated, nothing is materialized.
        The ``repro-flowstore prune-report`` payload.  Works over the
        :meth:`_view` capture, so a concurrent seal or compaction
        cannot shift the segment list mid-report.
        """
        segments_view, tail, _tail_map = self._view()
        with self._mutex:
            tail_rows = len(tail)
        segments = []
        pruned_rows = scanned_rows = 0
        for reader in segments_view:
            admitted = not self.prune or hint.admits(reader.meta)
            segments.append({
                "name": reader.name,
                "rows": reader.n_rows,
                "scan": admitted,
            })
            if admitted:
                scanned_rows += reader.n_rows
            else:
                pruned_rows += reader.n_rows
        return {
            "directory": str(self.directory),
            "prune": self.prune,
            "segments": segments,
            "scanned_segments": sum(1 for s in segments if s["scan"]),
            "pruned_segments": sum(1 for s in segments if not s["scan"]),
            "scanned_rows": scanned_rows,
            "pruned_rows": pruned_rows,
            "tail_rows": tail_rows,
        }


class StoreSnapshot(_StoreReadMixin):
    """A pinned, read-only view of a :class:`FlowStore` generation.

    Constructed only via :meth:`FlowStore.pin` (under the store mutex).
    The snapshot captures the member set of the pin instant — the
    segments tuple plus the then-live tail — and answers the full
    :class:`_StoreReadMixin` query surface over exactly those rows, no
    matter how many seals or compactions the store commits afterwards:
    the pin keeps retired segment files on disk until release.

    The pin freezes the **sealed member set** (the manifest
    generation).  The captured tail is the *live* tail until the next
    seal and then frozen forever (``flush`` rebinds a fresh one), so:

    * on a quiescent store the snapshot is fully immutable;
    * under concurrent ingest, rows acknowledged after the pin remain
      visible in the captured tail until a seal freezes it — every
      answer therefore corresponds to segments + a **batch-aligned
      prefix of the acknowledged stream** (tail appends are atomic
      under the mutex), never a torn state, and never loses a row the
      pin had seen.

    Shared-state caveats (documented, deliberate):

    * the global intern tables are append-only and shared with the
      live store — :meth:`fqdns`/:meth:`slds` may list labels interned
      after the pin (ids in query results are always valid);
    * ``_scan_stats`` is shared too, so snapshot queries feed the same
      prune-hit-rate series the service exports.

    Use as a context manager; :meth:`close`/``unpin`` is idempotent.
    """

    def __init__(self, store: FlowStore):
        self._store = store
        self.generation = store._generation
        self._segments = tuple(store._segments)
        self._tail = store._tail
        self._tail_map = store._tail_map
        self._interns = store._interns
        self._mutex = store._mutex
        self._scan_stats = store._scan_stats
        self.prune = store.prune
        self.parallel = store.parallel
        self.cache_segments = store.cache_segments
        self._released = False

    def _executor(self):
        return self._store._executor()

    @property
    def released(self) -> bool:
        return self._released

    def close(self) -> None:
        self._store.unpin(self)

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

