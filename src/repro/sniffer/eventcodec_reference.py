"""Reference batch decoder — the seed per-event generator.

The original one-event-at-a-time inverse of ``encode_events``, retained
verbatim as the behavioural oracle for the block-at-a-time
:func:`repro.sniffer.eventcodec.decode_events`
(``tests/test_eventcodec_differential.py``) and as the seed leg of
``benchmarks/run_bench.py``'s ``flowdb_ingest`` / ``flowdb_spill_ingest``,
so their committed seed-relative speedups do not move when the fast
decoder does.

Do not optimise or harden this module: it slices the variable-length
blocks without checking that they were consumed exactly, so a batch
whose DNS blocks disagree with its hot records decodes short here —
the bulk decoder rejects those.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterator

from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    TransportProto,
)
from repro.sniffer.eventcodec import (
    DNS_COLD,
    DNS_HOT,
    FLOW_COLD,
    FLOW_HOT,
    PROTOCOLS,
    STR_LEN,
    BatchView,
    CodecError,
    Event,
)

_NONE_STR = 0xFFFF


def _decode_str(buf, pos: int):
    (length,) = STR_LEN.unpack_from(buf, pos)
    pos += STR_LEN.size
    if length == _NONE_STR:
        return None, pos
    return bytes(buf[pos:pos + length]).decode("utf-8"), pos + length


def iter_decoded_events(buf) -> Iterator[Event]:
    view = BatchView(buf)
    flow_hot = FLOW_HOT.iter_unpack(view.flow_hot)
    flow_cold = FLOW_COLD.iter_unpack(view.flow_cold)
    dns_hot = DNS_HOT.iter_unpack(view.dns_hot)
    dns_cold = DNS_COLD.iter_unpack(view.dns_cold)
    answers = array("I")
    answers.frombytes(view.dns_answers)
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        answers.byteswap()
    names = view.dns_names
    flow_str = view.flow_str
    str_pos = 0
    a_pos = 0
    n_pos = 0
    try:
        for flag in view.flags:
            if flag == 1:
                client_ip, timestamp, n, name_len = next(dns_hot)
                ttl, useless = next(dns_cold)
                fqdn = bytes(names[n_pos:n_pos + name_len]).decode("utf-8")
                n_pos += name_len
                yield DnsObservation(
                    timestamp=timestamp,
                    client_ip=client_ip,
                    fqdn=fqdn,
                    answers=answers[a_pos:a_pos + n].tolist(),
                    ttl=ttl,
                    useless=bool(useless),
                )
                a_pos += n
            elif flag == 0:
                client_ip, server_ip, start, proto_idx = next(flow_hot)
                (src_port, dst_port, transport, end, bytes_up, bytes_down,
                 packets) = next(flow_cold)
                fqdn, str_pos = _decode_str(flow_str, str_pos)
                cert_name, str_pos = _decode_str(flow_str, str_pos)
                true_fqdn, str_pos = _decode_str(flow_str, str_pos)
                yield FlowRecord(
                    fid=FiveTuple(
                        client_ip, server_ip, src_port, dst_port,
                        TransportProto(transport),
                    ),
                    start=start,
                    end=end,
                    protocol=PROTOCOLS[proto_idx],
                    bytes_up=bytes_up,
                    bytes_down=bytes_down,
                    packets=packets,
                    fqdn=fqdn,
                    cert_name=cert_name,
                    true_fqdn=true_fqdn,
                )
            else:
                raise CodecError(f"invalid interleave flag {flag}")
    except (StopIteration, IndexError, struct.error, ValueError) as exc:
        if isinstance(exc, CodecError):
            raise
        raise CodecError(f"corrupt batch body: {exc!r}") from exc
