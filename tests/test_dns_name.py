"""Tests for domain name parsing and the TLD/2LD hierarchy split."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.name import (
    DomainName,
    DomainNameError,
    effective_tld,
    second_level_domain,
)

_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=10
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))


class TestEffectiveTld:
    @pytest.mark.parametrize(
        "fqdn,tld",
        [
            ("www.example.com", "com"),
            ("example.com", "com"),
            ("static.bbc.co.uk", "co.uk"),
            ("foo.example.it", "it"),
            ("host.example.unknowntld", "unknowntld"),
        ],
    )
    def test_cases(self, fqdn, tld):
        assert effective_tld(fqdn) == tld

    def test_case_insensitive(self):
        assert effective_tld("WWW.EXAMPLE.COM") == "com"


class TestSecondLevelDomain:
    @pytest.mark.parametrize(
        "fqdn,sld",
        [
            ("www.example.com", "example.com"),
            ("example.com", "example.com"),
            ("smtp2.mail.google.com", "google.com"),
            ("static.bbc.co.uk", "bbc.co.uk"),
            ("com", "com"),
            ("a.b.c.d.zynga.com", "zynga.com"),
        ],
    )
    def test_cases(self, fqdn, sld):
        assert second_level_domain(fqdn) == sld


class TestDomainName:
    def test_normalization(self):
        name = DomainName("  WWW.Example.COM. ")
        assert name.fqdn == "www.example.com"
        assert str(name) == "www.example.com"

    def test_labels(self):
        assert DomainName("a.b.com").labels == ("a", "b", "com")

    def test_tld_sld_properties(self):
        name = DomainName("media4.cdn.linkedin.com")
        assert name.tld == "com"
        assert name.sld == "linkedin.com"

    def test_subdomain_labels(self):
        assert DomainName("smtp2.mail.google.com").subdomain_labels == (
            "smtp2",
            "mail",
        )
        assert DomainName("google.com").subdomain_labels == ()
        assert DomainName("static.bbc.co.uk").subdomain_labels == ("static",)

    def test_is_subdomain_of(self):
        name = DomainName("mail.google.com")
        assert name.is_subdomain_of("google.com")
        assert name.is_subdomain_of(DomainName("google.com"))
        assert name.is_subdomain_of("mail.google.com")
        assert not name.is_subdomain_of("oogle.com")
        assert not name.is_subdomain_of("example.com")

    def test_parent(self):
        assert DomainName("a.b.com").parent() == DomainName("b.com")
        with pytest.raises(DomainNameError):
            DomainName("com").parent()

    def test_equality_and_hash(self):
        assert DomainName("A.com") == DomainName("a.com")
        assert DomainName("a.com") == "a.com"
        assert hash(DomainName("a.com")) == hash(DomainName("A.COM."))

    def test_ordering(self):
        assert DomainName("a.com") < DomainName("b.com")

    @pytest.mark.parametrize("bad", ["", ".", "a..b", "-" * 300, "a." + "b" * 64])
    def test_invalid_names(self, bad):
        with pytest.raises(DomainNameError):
            DomainName(bad)

    @given(st.lists(_label, min_size=1, max_size=5))
    def test_roundtrip_arbitrary_labels(self, labels):
        text = ".".join(labels)
        if len(text) > 253:
            return
        name = DomainName(text)
        assert name.labels == tuple(labels)
