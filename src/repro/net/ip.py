"""IPv4 addresses as plain integers.

DN-Hunter's resolver performs a map lookup per flow and per DNS answer, so
the address representation must be cheap to hash and compare.  We therefore
represent IPv4 addresses as ``int`` everywhere inside the library and only
convert to dotted-quad strings at the presentation boundary.  This module
collects the conversion helpers plus small network/pool abstractions used
by the synthetic internet's address plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_IPV4 = 0xFFFFFFFF

_PRIVATE_RANGES = (
    (0x0A000000, 0x0AFFFFFF),  # 10.0.0.0/8
    (0xAC100000, 0xAC1FFFFF),  # 172.16.0.0/12
    (0xC0A80000, 0xC0A8FFFF),  # 192.168.0.0/16
)


def ip_from_str(text: str) -> int:
    """Parse dotted-quad ``text`` into an integer address.

    Raises ``ValueError`` for anything that is not exactly four decimal
    octets in range.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"invalid IPv4 octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def ip_to_str(value: int) -> str:
    """Format integer address ``value`` as a dotted quad."""
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def is_private(value: int) -> bool:
    """Return True if ``value`` falls in an RFC 1918 private range."""
    return any(low <= value <= high for low, high in _PRIVATE_RANGES)


@dataclass(frozen=True)
class IPv4Network:
    """A CIDR block, e.g. ``IPv4Network.parse("192.0.2.0/24")``.

    The network is stored as (base address, prefix length); membership
    tests and enumeration are integer arithmetic.
    """

    base: int
    prefix: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix <= 32:
            raise ValueError(f"invalid prefix length: {self.prefix}")
        if not 0 <= self.base <= MAX_IPV4:
            raise ValueError(f"invalid base address: {self.base}")
        if self.base & ~self.mask:
            raise ValueError("host bits set in network base address")

    @classmethod
    def parse(cls, text: str) -> "IPv4Network":
        """Parse ``a.b.c.d/len`` notation."""
        addr, sep, prefix = text.partition("/")
        if not sep:
            raise ValueError(f"missing prefix length in {text!r}")
        return cls(ip_from_str(addr), int(prefix))

    @property
    def mask(self) -> int:
        """The netmask as an integer."""
        if self.prefix == 0:
            return 0
        return (MAX_IPV4 << (32 - self.prefix)) & MAX_IPV4

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix)

    @property
    def last(self) -> int:
        """Highest address in the block."""
        return self.base | (~self.mask & MAX_IPV4)

    def __contains__(self, address: int) -> bool:
        return (address & self.mask) == self.base

    def address(self, index: int) -> int:
        """Return the ``index``-th address of the block."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside /{self.prefix} block")
        return self.base + index

    def __str__(self) -> str:
        return f"{ip_to_str(self.base)}/{self.prefix}"


@dataclass
class IPv4Pool:
    """Sequential address allocator over one or more CIDR blocks.

    The synthetic internet carves each organization/CDN a set of blocks and
    allocates server addresses from them; the allocator is deterministic so
    traces are reproducible.
    """

    networks: list[IPv4Network] = field(default_factory=list)
    _next: int = 0

    @property
    def capacity(self) -> int:
        """Total number of allocatable addresses."""
        return sum(net.size for net in self.networks)

    @property
    def allocated(self) -> int:
        """Number of addresses handed out so far."""
        return self._next

    def allocate(self) -> int:
        """Return the next unused address, in block order."""
        index = self._next
        for net in self.networks:
            if index < net.size:
                self._next += 1
                return net.address(index)
            index -= net.size
        raise RuntimeError("address pool exhausted")

    def __contains__(self, address: int) -> bool:
        return any(address in net for net in self.networks)
