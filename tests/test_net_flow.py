"""The flow identifier's value contract, and flow records rebuilt from
stored rows.

``FiveTuple`` is a ``NamedTuple``: it hashes, prints and refuses field
assignment as the frozen dataclass it replaced did, so every set and
dict order (and every golden digest) is unchanged.  The one visible
difference is that it now compares equal to the plain tuple of its
fields; ``TestFiveTupleValue.test_equals_the_plain_tuple_of_its_fields``
pins that so nothing comes to rely on the opposite.
"""

import pickle
from collections import Counter

import pytest

from repro.analytics.shard import ShardCoordinator
from repro.analytics.storage import FlowStore
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.net.ip import ip_from_str
from repro.net.tcp import TcpState
from repro.sniffer.eventcodec import encode_events

CLIENT = ip_from_str("10.1.0.5")
SERVER = ip_from_str("93.184.216.34")
TOP = 2**32 - 1


def _fid(proto=TransportProto.TCP):
    return FiveTuple(CLIENT, SERVER, 40001, 443, proto)


def _fid_fields(fid):
    return (fid.client_ip, fid.server_ip, fid.src_port, fid.dst_port,
            fid.proto)


class TestFiveTupleValue:
    def test_hash_is_the_hash_of_its_fields(self):
        fields = (CLIENT, SERVER, 40001, 443, TransportProto.TCP)
        assert hash(FiveTuple(*fields)) == hash(fields)

    def test_repr_and_str_are_unchanged(self):
        assert repr(_fid()) == (
            "FiveTuple(client_ip=167837701, server_ip=1572395042, "
            "src_port=40001, dst_port=443, proto=<TransportProto.TCP: 6>)"
        )
        assert str(_fid()) == "10.1.0.5:40001 -> 93.184.216.34:443/TCP"
        edge = FiveTuple(0, TOP, 0, 65535, TransportProto.UDP)
        assert repr(edge) == (
            "FiveTuple(client_ip=0, server_ip=4294967295, src_port=0, "
            "dst_port=65535, proto=<TransportProto.UDP: 17>)"
        )
        assert str(edge) == "0.0.0.0:0 -> 255.255.255.255:65535/UDP"

    @pytest.mark.parametrize(
        "field", ["client_ip", "server_ip", "src_port", "dst_port", "proto"]
    )
    def test_assigning_a_field_raises(self, field):
        fid = _fid()
        with pytest.raises(AttributeError):
            setattr(fid, field, 1)
        assert fid == _fid()

    def test_equals_the_plain_tuple_of_its_fields(self):
        fields = (CLIENT, SERVER, 40001, 443, TransportProto.TCP)
        assert _fid() == fields
        assert {_fid(): "flow"}[fields] == "flow"
        assert _fid() != _fid(TransportProto.UDP)

    def test_pickle_round_trip(self):
        fid = _fid(TransportProto.UDP)
        back = pickle.loads(pickle.dumps(fid))
        assert type(back) is FiveTuple
        assert back == fid and hash(back) == hash(fid)
        assert back.proto is TransportProto.UDP

    def test_survives_a_process_shard_answer(self, tmp_path):
        flows = [
            FlowRecord(
                FiveTuple(CLIENT + i, SERVER, 40000 + i, 443,
                          (TransportProto.TCP, TransportProto.UDP)[i % 2]),
                float(i), fqdn="www.example.com",
            )
            for i in range(12)
        ]
        built = ShardCoordinator(tmp_path / "sharded", shards=2)
        built.add_all(flows)
        built.flush()
        built.close()
        coord = ShardCoordinator(tmp_path / "sharded", backend="process")
        try:
            answer = coord.query_by_fqdn("www.example.com")
        finally:
            coord.close()
        assert sorted(answer, key=lambda flow: flow.start) == flows
        for flow in answer:
            assert type(flow.fid) is FiveTuple
            assert type(flow.fid.proto) is TransportProto
            assert hash(flow.fid) == hash(_fid_fields(flow.fid))

    def test_record_clamps_end_to_start(self):
        assert FlowRecord(_fid(), 5.0, 4.0).end == 5.0
        assert FlowRecord(_fid(), 5.0).end == 5.0
        assert FlowRecord(_fid(), 5.0, 6.5).duration == 1.5


class TestEnumIdentityHash:
    """``Protocol`` and ``TcpState`` hash by identity, not by name: the
    members stay singletons through pickling and value lookup, so every
    dict probe and ``Counter`` reads as before."""

    @pytest.mark.parametrize("enum_cls", [Protocol, TcpState])
    def test_members_stay_singletons(self, enum_cls):
        for member in enum_cls:
            assert pickle.loads(pickle.dumps(member)) is member
            assert enum_cls(member.value) is member
            assert enum_cls[member.name] is member
            assert hash(member) == object.__hash__(member)
        assert Protocol("http") is Protocol.HTTP

    def test_dicts_and_counters_read_as_before(self):
        members = list(Protocol) * 3 + [Protocol.TLS, Protocol.HTTP]
        index = {p: i for i, p in enumerate(Protocol)}
        assert [index[p] for p in pickle.loads(pickle.dumps(members))] == [
            index[p] for p in members
        ]
        counts = Counter(members)
        assert list(counts) == list(Protocol)
        assert counts[Protocol.TLS] == counts[Protocol.HTTP] == 4
        assert counts[Protocol("other")] == 3
        by_name = Counter(p.name for p in members)
        assert {p.name: n for p, n in counts.items()} == by_name


class TestRebuiltRecords:
    """Rows written to segments come back as records equal to the flows
    that were ingested, field for field, at every field's edges."""

    FLOWS = [
        FlowRecord(
            FiveTuple(0, TOP, 0, 65535, TransportProto.TCP),
            -12.5, -3.25, Protocol.HTTP, 2**64 - 1, 2**64 - 1, 7,
            "WWW.Example.COM", "Cert.Example.com", "www.example.com",
        ),
        FlowRecord(
            FiveTuple(TOP, 0, 65535, 0, TransportProto.UDP),
            0.0, 1.0, Protocol.P2P, 0, 0, 0, None, None, None,
        ),
        FlowRecord(
            FiveTuple(CLIENT, SERVER, 40001, 443, TransportProto.TCP),
            10.0, 11.0, Protocol.TLS, 1, 2**64 - 1, 2**32 - 1,
            "cdn.Example.com", None, "CDN.example.com",
        ),
    ]

    @staticmethod
    def _fields(flow):
        return (
            _fid_fields(flow.fid), flow.start, flow.end, flow.protocol,
            flow.bytes_up, flow.bytes_down, flow.packets,
            flow.fqdn, flow.cert_name, flow.true_fqdn,
        )

    def test_reopened_store_rebuilds_every_field(self, tmp_path):
        store = FlowStore(tmp_path / "store")
        assert store.ingest_batch(encode_events(self.FLOWS)) == 3
        store.flush()
        store.close()
        store = FlowStore(tmp_path / "store")
        try:
            expected = [self._fields(flow) for flow in self.FLOWS]
            assert [self._fields(flow) for flow in store] == expected
            window = store.query_in_window(-100.0, 100.0)
            assert sorted(map(self._fields, window)) == sorted(expected)
            for flow in [*store, *window]:
                assert type(flow.fid) is FiveTuple
                assert type(flow.fid.proto) is TransportProto
                assert type(flow.protocol) is Protocol
        finally:
            store.close()
