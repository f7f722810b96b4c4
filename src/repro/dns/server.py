"""The reverse (PTR) zone of the synthetic internet.

Forward answers are rendered straight to wire bytes by the trace
synthesis (:func:`repro.dns.wire.encode_a_response`); what the model
keeps as DNS state is the ``in-addr.arpa`` tree that the Tab. 3
reverse-lookup baseline queries.
"""

from __future__ import annotations

from typing import Optional

from repro.dns.name import DomainName


class ReverseZone:
    """The ``in-addr.arpa`` tree for the simulated address space.

    CDN infrastructure addresses typically answer with machine names such
    as ``a184-25-56-10.deploy.akamaitechnologies.com`` that bear no
    relation to the customer FQDN — the effect Tab. 3 measures.  Addresses
    may also simply have no PTR record.
    """

    def __init__(self) -> None:
        self._ptr: dict[int, str] = {}

    def set_pointer(self, address: int, target: str) -> None:
        """Register the PTR target for ``address``."""
        self._ptr[address] = DomainName(target).fqdn

    def lookup(self, address: int) -> Optional[str]:
        """Return the PTR target or None (NXDOMAIN)."""
        return self._ptr.get(address)

    def __len__(self) -> int:
        return len(self._ptr)
