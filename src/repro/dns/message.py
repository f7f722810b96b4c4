"""DNS message model: header, question, full query/response messages."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dns.records import ResourceRecord, RRClass, RRType


class ResponseCode(enum.IntEnum):
    """RCODEs the simulation produces."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass(frozen=True, slots=True)
class DnsHeader:
    """The 12-byte DNS header, flag bits broken out."""

    ident: int
    is_response: bool = False
    opcode: int = 0
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    rcode: ResponseCode = ResponseCode.NOERROR

    def flags_word(self) -> int:
        """Pack the flag fields into the 16-bit flags word."""
        word = 0
        if self.is_response:
            word |= 0x8000
        word |= (self.opcode & 0xF) << 11
        if self.authoritative:
            word |= 0x0400
        if self.truncated:
            word |= 0x0200
        if self.recursion_desired:
            word |= 0x0100
        if self.recursion_available:
            word |= 0x0080
        word |= int(self.rcode) & 0xF
        return word

    @classmethod
    def from_flags_word(cls, ident: int, word: int) -> "DnsHeader":
        """Unpack the 16-bit flags word."""
        return cls(
            ident=ident,
            is_response=bool(word & 0x8000),
            opcode=(word >> 11) & 0xF,
            authoritative=bool(word & 0x0400),
            truncated=bool(word & 0x0200),
            recursion_desired=bool(word & 0x0100),
            recursion_available=bool(word & 0x0080),
            rcode=ResponseCode(word & 0xF),
        )


@dataclass(frozen=True, slots=True)
class Question:
    """One entry of the question section."""

    name: str
    qtype: RRType = RRType.A
    qclass: RRClass = RRClass.IN


@dataclass(slots=True)
class DnsMessage:
    """A complete DNS message (query or response)."""

    header: DnsHeader
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)

    @classmethod
    def query(
        cls, ident: int, name: str, qtype: RRType = RRType.A
    ) -> "DnsMessage":
        """Build a standard recursive query for ``name``."""
        return cls(
            header=DnsHeader(ident=ident, is_response=False),
            questions=[Question(name=name, qtype=qtype)],
        )

    @classmethod
    def response_to(
        cls,
        query: "DnsMessage",
        answers: list[ResourceRecord],
        rcode: ResponseCode = ResponseCode.NOERROR,
        authoritative: bool = False,
    ) -> "DnsMessage":
        """Build the response matching ``query`` (same id and question)."""
        return cls(
            header=DnsHeader(
                ident=query.header.ident,
                is_response=True,
                authoritative=authoritative,
                recursion_desired=query.header.recursion_desired,
                recursion_available=True,
                rcode=rcode,
            ),
            questions=list(query.questions),
            answers=answers,
        )

    @property
    def question_name(self) -> str:
        """The (single) queried name; raises if the question section is empty."""
        if not self.questions:
            raise ValueError("message has no question")
        return self.questions[0].name

    def a_addresses(self) -> list[int]:
        """All IPv4 addresses in the answer section, following CNAMEs.

        The answer list order is preserved — the paper's resolver stores
        every address of the answer list (Sec. 6).
        """
        return [
            rr.address for rr in self.answers if rr.rtype is RRType.A
        ]

    def min_answer_ttl(self) -> int:
        """The smallest TTL among answers (client cache lifetime)."""
        if not self.answers:
            return 0
        return min(rr.ttl for rr in self.answers)
