"""DNS substrate: names, records, RFC 1035 wire format, caches, PTR zone.

Everything DN-Hunter consumes from the DNS side is built here from
scratch: a domain-name type with TLD / second-level-domain semantics
(Sec. 2.2 of the paper), resource records, a binary message codec with
name compression, the client-side stub cache whose TTL behaviour drives
the paper's dimensioning analysis (Sec. 6), and the reverse (PTR) zone
the reverse-lookup baseline queries (Tab. 3).
"""

from repro.dns.name import DomainName, effective_tld, second_level_domain
from repro.dns.records import (
    RRClass,
    RRType,
    ResourceRecord,
    a_record,
    cname_record,
    ptr_record,
)
from repro.dns.message import DnsHeader, DnsMessage, Question, ResponseCode
from repro.dns.wire import decode_message, encode_message
from repro.dns.cache import CacheEntry, StubResolverCache

__all__ = [
    "DomainName",
    "effective_tld",
    "second_level_domain",
    "RRType",
    "RRClass",
    "ResourceRecord",
    "a_record",
    "cname_record",
    "ptr_record",
    "DnsHeader",
    "DnsMessage",
    "Question",
    "ResponseCode",
    "encode_message",
    "decode_message",
    "CacheEntry",
    "StubResolverCache",
]
