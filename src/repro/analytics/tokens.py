"""FQDN tokenization (Sec. 4.3, used by Algorithms 3 and 4).

From the paper: each FQDN is tokenized "to extract all the sub-domains
except for the TLD and second-level domain.  The tokens are further
split by considering non-alphanumeric characters as separators.  Numbers
are replaced by a generic N character."  Example from the paper:
``smtp2.mail.google.com`` → ``{smtpN, mail}``.
"""

from __future__ import annotations

import re

from repro.dns.name import DomainName, DomainNameError

_SEPARATORS = re.compile(r"[^0-9a-z]+")
_DIGIT_RUN = re.compile(r"[0-9]+")


def tokenize_label(label: str) -> list[str]:
    """Split one label on non-alphanumerics and genericize digits.

    Digit runs inside a chunk are replaced in place; a chunk that is all
    digits becomes a bare ``N``: ``smtp2`` → ``['smtpN']``,
    ``fb_client_2`` → ``['fb', 'client', 'N']``, ``12`` → ``['N']``.
    """
    chunks = [c for c in _SEPARATORS.split(label.lower()) if c]
    return [_DIGIT_RUN.sub("N", chunk) for chunk in chunks]


def tokenize_fqdn(fqdn: str) -> list[str]:
    """Tokenize a FQDN per Algorithm 4 (drop TLD and 2LD, split, digits→N).

    Returns an empty list for names with no labels above the 2LD
    (e.g. ``google.com``) and for unparseable names.
    """
    try:
        name = DomainName(fqdn)
    except DomainNameError:
        return []
    tokens: list[str] = []
    for label in name.subdomain_labels:
        tokens.extend(tokenize_label(label))
    return tokens
