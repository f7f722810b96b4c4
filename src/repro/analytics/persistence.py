"""The seed JSON-lines flow format (the first Fig. 1 "Flow Database").

The durable store is :mod:`repro.analytics.storage`; this row format
stays as the baseline the store's benchmark rows are measured against.
JSON-lines keeps the format inspectable and append-friendly; every
field of :class:`FlowRecord` round-trips.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator

from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto

FORMAT_VERSION = 1


def flow_to_dict(flow: FlowRecord) -> dict:
    """One flow as a plain JSON-serializable dict."""
    return {
        "v": FORMAT_VERSION,
        "client": flow.fid.client_ip,
        "server": flow.fid.server_ip,
        "sport": flow.fid.src_port,
        "dport": flow.fid.dst_port,
        "proto": int(flow.fid.proto),
        "start": flow.start,
        "end": flow.end,
        "l7": flow.protocol.value,
        "up": flow.bytes_up,
        "down": flow.bytes_down,
        "pkts": flow.packets,
        "fqdn": flow.fqdn,
        "cert": flow.cert_name,
        "truth": flow.true_fqdn,
    }


def flow_from_dict(data: dict) -> FlowRecord:
    """Inverse of :func:`flow_to_dict`; validates the version marker."""
    version = data.get("v")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported flow record version {version!r}")
    return FlowRecord(
        fid=FiveTuple(
            client_ip=data["client"],
            server_ip=data["server"],
            src_port=data["sport"],
            dst_port=data["dport"],
            proto=TransportProto(data["proto"]),
        ),
        start=data["start"],
        end=data["end"],
        protocol=Protocol(data["l7"]),
        bytes_up=data["up"],
        bytes_down=data["down"],
        packets=data["pkts"],
        fqdn=data["fqdn"],
        cert_name=data["cert"],
        true_fqdn=data["truth"],
    )


def dump_flows(flows: Iterable[FlowRecord], fileobj: IO[str]) -> int:
    """Write flows as JSON lines; returns the count written."""
    count = 0
    for flow in flows:
        fileobj.write(json.dumps(flow_to_dict(flow), separators=(",", ":")))
        fileobj.write("\n")
        count += 1
    return count


def load_flows(fileobj: IO[str]) -> Iterator[FlowRecord]:
    """Stream flows back from a JSON-lines file."""
    for line_number, line in enumerate(fileobj, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"malformed flow record on line {line_number}"
            ) from exc
        yield flow_from_dict(data)
