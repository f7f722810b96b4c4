"""Tests for pcap reader/writer round-trips."""

import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ip import ip_from_str
from repro.net.packet import build_udp_packet, decode_frame
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    PcapFormatError,
    PcapReader,
    PcapRecord,
    PcapWriter,
    write_pcap,
)


def _roundtrip(records, linktype=LINKTYPE_ETHERNET):
    buffer = io.BytesIO()
    writer = PcapWriter(buffer, linktype=linktype)
    writer.write_all(records)
    buffer.seek(0)
    reader = PcapReader(buffer)
    return reader, list(reader)


class TestRoundtrip:
    def test_empty_file(self):
        reader, records = _roundtrip([])
        assert records == []
        assert reader.linktype == LINKTYPE_ETHERNET

    def test_single_record(self):
        reader, records = _roundtrip([PcapRecord(12.5, b"\xAA\xBB")])
        assert len(records) == 1
        assert records[0].data == b"\xAA\xBB"
        assert records[0].timestamp == pytest.approx(12.5, abs=1e-6)

    def test_linktype_raw(self):
        reader, _ = _roundtrip([], linktype=LINKTYPE_RAW)
        assert reader.linktype == LINKTYPE_RAW

    def test_microsecond_rounding_carry(self):
        # 0.9999996 rounds to 1.0s; writer must carry, not emit 1e6 usecs.
        reader, records = _roundtrip([PcapRecord(0.9999996, b"x")])
        assert records[0].timestamp == pytest.approx(1.0, abs=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.binary(min_size=1, max_size=100),
            ),
            max_size=20,
        )
    )
    def test_many_records_roundtrip(self, raw):
        records = [PcapRecord(t, d) for t, d in raw]
        _, out = _roundtrip(records)
        assert [r.data for r in out] == [r.data for r in records]
        for before, after in zip(records, out):
            assert after.timestamp == pytest.approx(before.timestamp, abs=1e-5)


class TestFileHelpers:
    def test_write_and_read_file(self, tmp_path):
        path = str(tmp_path / "trace.pcap")
        frame = build_udp_packet(
            3.25, ip_from_str("10.0.0.1"), ip_from_str("8.8.8.8"), 999, 53, b"q"
        )
        count = write_pcap(path, [PcapRecord(3.25, frame)])
        assert count == 1
        with PcapReader(open(path, "rb")) as reader:
            records = list(reader)
        assert len(records) == 1
        packet = decode_frame(records[0].timestamp, records[0].data)
        assert packet.dst_port == 53


class TestErrorHandling:
    def test_bad_magic(self):
        with pytest.raises(PcapFormatError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_header(self):
        with pytest.raises(PcapFormatError):
            PcapReader(io.BytesIO(b"\xd4\xc3"))

    def test_truncated_record_body(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(0.0, b"ABCDEF")
        data = buffer.getvalue()[:-3]  # chop the body
        reader = PcapReader(io.BytesIO(data))
        with pytest.raises(PcapFormatError):
            list(reader)

    def test_swapped_endianness(self):
        # Write a big-endian header manually; reader must adapt.
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 1, 500000, 3, 3) + b"abc"
        reader = PcapReader(io.BytesIO(header + record))
        records = list(reader)
        assert records[0].data == b"abc"
        assert records[0].timestamp == pytest.approx(1.5)
