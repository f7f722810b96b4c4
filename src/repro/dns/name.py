"""Domain names and the label hierarchy the paper's analytics rely on.

Sec. 2.2 defines the terminology this library uses everywhere:

* *label* — one dot-separated component;
* *TLD* — the last label (possibly an effective multi-label suffix such as
  ``co.uk``);
* *second-level domain* (2LD) — the first sub-domain under the TLD, which
  "generally refers to the organization that owns the domain name";
* *FQDN* — the complete name.

The tag-extraction algorithm (Alg. 4) tokenizes every label **except** the
TLD and 2LD, so getting this split right matters for Tables 6/7.
"""

from __future__ import annotations

from functools import lru_cache

MAX_NAME_LENGTH = 253
MAX_LABEL_LENGTH = 63

# A compact effective-TLD list: enough public suffixes to make the
# second-level-domain split correct for the domains the evaluation uses.
# A full public-suffix list would be overkill for the reproduction but the
# mechanism (longest-suffix match) is the real one.
EFFECTIVE_TLDS = frozenset(
    {
        "com", "net", "org", "edu", "gov", "mil", "int", "info", "biz",
        "name", "mobi", "tv", "io", "me", "cc", "us", "uk", "it", "fr",
        "de", "es", "nl", "eu", "ch", "at", "be", "se", "no", "fi", "pl",
        "ru", "cn", "jp", "kr", "in", "au", "ca", "br", "mx", "arpa",
        "co.uk", "org.uk", "ac.uk", "gov.uk", "co.jp", "ne.jp", "or.jp",
        "com.au", "net.au", "org.au", "com.br", "com.cn", "com.mx",
        "co.in", "co.kr", "in-addr.arpa",
    }
)


class DomainNameError(ValueError):
    """Raised for syntactically invalid domain names."""


def _validate_label(label: str) -> None:
    if not label:
        raise DomainNameError("empty label")
    if len(label) > MAX_LABEL_LENGTH:
        raise DomainNameError(f"label too long: {label[:20]}...")
    # Printable ASCII only — hostile captures carry control bytes in
    # "names"; rejecting them here keeps every downstream consumer safe.
    if any(not (33 <= ord(ch) <= 126) for ch in label):
        raise DomainNameError(f"non-printable character in label {label!r}")


@lru_cache(maxsize=65536)
def effective_tld(fqdn: str) -> str:
    """Return the effective TLD of ``fqdn`` (longest known public suffix).

    Falls back to the last label when no suffix matches, so unknown
    country arrangements degrade gracefully.
    """
    labels = fqdn.lower().rstrip(".").split(".")
    for take in (2, 1):
        if len(labels) > take:
            candidate = ".".join(labels[-take:])
            if candidate in EFFECTIVE_TLDS:
                return candidate
    return labels[-1]


@lru_cache(maxsize=65536)
def second_level_domain(fqdn: str) -> str:
    """Return the organization-level domain, e.g. ``mail.google.com`` →
    ``google.com`` and ``static.bbc.co.uk`` → ``bbc.co.uk``.

    A bare TLD (or a name equal to its effective TLD) is returned as-is.
    """
    name = fqdn.lower().rstrip(".")
    tld = effective_tld(name)
    tld_labels = tld.count(".") + 1
    labels = name.split(".")
    if len(labels) <= tld_labels:
        return name
    return ".".join(labels[-(tld_labels + 1):])


class DomainName:
    """An immutable, normalized domain name.

    Instances compare case-insensitively and expose the hierarchy splits
    used throughout the analytics.  Construction validates RFC 1035 length
    limits so the wire codec can assume well-formed names.
    """

    __slots__ = ("_name", "_labels")

    def __init__(self, name: str):
        normalized = name.strip().rstrip(".").lower()
        if not normalized:
            raise DomainNameError("empty domain name")
        if len(normalized) > MAX_NAME_LENGTH:
            raise DomainNameError("domain name too long")
        labels = tuple(normalized.split("."))
        for label in labels:
            _validate_label(label)
        self._name = normalized
        self._labels = labels

    @property
    def fqdn(self) -> str:
        """The normalized textual name (no trailing dot)."""
        return self._name

    @property
    def labels(self) -> tuple[str, ...]:
        """Labels from most-specific to TLD, e.g. ``('www','example','com')``."""
        return self._labels

    @property
    def tld(self) -> str:
        """Effective top-level domain."""
        return effective_tld(self._name)

    @property
    def sld(self) -> str:
        """Second-level (organization) domain."""
        return second_level_domain(self._name)

    @property
    def subdomain_labels(self) -> tuple[str, ...]:
        """Labels before the 2LD — the part Alg. 4 tokenizes.

        ``smtp2.mail.google.com`` → ``('smtp2', 'mail')``.
        """
        sld_count = self.sld.count(".") + 1
        if len(self._labels) <= sld_count:
            return ()
        return self._labels[: len(self._labels) - sld_count]

    def is_subdomain_of(self, other: "DomainName | str") -> bool:
        """True if self equals or is under ``other``."""
        other_name = other.fqdn if isinstance(other, DomainName) else (
            other.strip().rstrip(".").lower()
        )
        return self._name == other_name or self._name.endswith(
            "." + other_name
        )

    def parent(self) -> "DomainName":
        """The name with the leftmost label removed."""
        if len(self._labels) <= 1:
            raise DomainNameError("root-adjacent name has no parent")
        return DomainName(".".join(self._labels[1:]))

    def __str__(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return f"DomainName({self._name!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DomainName):
            return self._name == other._name
        if isinstance(other, str):
            return self._name == other.strip().rstrip(".").lower()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._name)

    def __lt__(self, other: "DomainName") -> bool:
        return self._name < other._name
