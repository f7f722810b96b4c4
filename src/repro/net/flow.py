"""Flow-level data model: five-tuples, layer-7 protocols, flow records.

The paper's flow sniffer aggregates packets into layer-4 flows keyed by
``Fid = (clientIP, serverIP, sPort, dPort, protocol)`` (Sec. 3.1).  The
``FlowRecord`` here is the unit stored in the labeled-flows database after
the tagger has attached a FQDN.

``FiveTuple`` is a named tuple with value semantics: it hashes, prints
and refuses field assignment as a frozen record would, and it also
compares equal to the plain tuple of its five fields.  The flow database
keeps rows ingested from codec batches or read from store segments
columnar; it builds a row's ``FlowRecord`` lazily, once, with positional
arguments, when a query first hands that row out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.net.ip import ip_to_str


class TransportProto(enum.IntEnum):
    """IP protocol numbers for the transports we model."""

    TCP = 6
    UDP = 17


class Protocol(enum.Enum):
    """Layer-7 protocol classes used throughout the evaluation.

    The paper breaks hit ratios down by HTTP / TLS / P2P (Tab. 2); the
    remaining values cover the mail and messaging services of Tab. 6/7 and
    a catch-all OTHER.
    """

    HTTP = "http"
    TLS = "tls"
    P2P = "p2p"
    MAIL = "mail"
    CHAT = "chat"
    STREAMING = "streaming"
    DNS = "dns"
    OTHER = "other"

    # Members are singletons compared by identity; Enum's own hash is a
    # Python-level hash of the name, ~200 ns on every dict probe.
    __hash__ = object.__hash__


class FiveTuple(NamedTuple):
    """Flow identifier ``(clientIP, serverIP, sPort, dPort, protocol)``.

    ``client_ip``/``src_port`` always refer to the monitored-customer side,
    matching the paper's convention that the client initiates the flow.
    """

    client_ip: int
    server_ip: int
    src_port: int
    dst_port: int
    proto: TransportProto

    def __str__(self) -> str:
        return (
            f"{ip_to_str(self.client_ip)}:{self.src_port} -> "
            f"{ip_to_str(self.server_ip)}:{self.dst_port}/{self.proto.name}"
        )


@dataclass(slots=True)
class FlowRecord:
    """One reconstructed layer-4 flow, optionally tagged with a FQDN.

    Attributes:
        fid: the five-tuple identifying the flow.
        start: flow start time (seconds since trace epoch).
        end: flow end time; equal to ``start`` for degenerate flows.
        protocol: layer-7 classification (from DPI ground truth or the
            simulator, depending on the pipeline stage).
        bytes_up: client-to-server payload bytes.
        bytes_down: server-to-client payload bytes.
        fqdn: label attached by the flow tagger; ``None`` on cache miss.
        cert_name: server name observed in a TLS certificate, if any
            (used by the Tab. 4 baseline).
        true_fqdn: ground-truth FQDN from the simulator, used only for
            evaluation, never by the sniffer itself.
    """

    fid: FiveTuple
    start: float
    end: float = 0.0
    protocol: Protocol = Protocol.OTHER
    bytes_up: int = 0
    bytes_down: int = 0
    packets: int = 0
    fqdn: Optional[str] = None
    cert_name: Optional[str] = None
    true_fqdn: Optional[str] = None

    def __post_init__(self) -> None:
        if self.end < self.start:
            self.end = self.start

    @property
    def duration(self) -> float:
        """Flow duration in seconds."""
        return self.end - self.start


@dataclass(slots=True)
class DnsObservation:
    """A decoded DNS response as seen on the wire.

    This is the record the DNS response sniffer hands to the resolver:
    which client asked, what FQDN, and the answer list of server addresses.
    ``ttl`` is the minimum answer TTL (used by cache modelling), ``useless``
    marks responses never followed by a flow (ground truth for Tab. 9).
    """

    timestamp: float
    client_ip: int
    fqdn: str
    answers: list[int] = field(default_factory=list)
    ttl: int = 300
    useless: bool = False
