"""Tests for the reverse (PTR) zone."""

import pytest

from repro.dns.name import DomainNameError
from repro.dns.server import ReverseZone
from repro.net.ip import ip_from_str


class TestReverseZone:
    def test_set_and_lookup(self):
        reverse = ReverseZone()
        addr = ip_from_str("2.16.0.1")
        reverse.set_pointer(addr, "a2-16-0-1.deploy.akamaitechnologies.com")
        assert reverse.lookup(addr) == (
            "a2-16-0-1.deploy.akamaitechnologies.com"
        )
        assert len(reverse) == 1

    def test_missing_pointer(self):
        reverse = ReverseZone()
        assert reverse.lookup(123) is None

    def test_target_is_normalized(self):
        reverse = ReverseZone()
        reverse.set_pointer(7, "Server-7.Example.NET.")
        assert reverse.lookup(7) == "server-7.example.net"

    def test_repointing_replaces_target(self):
        reverse = ReverseZone()
        reverse.set_pointer(7, "old.example.net")
        reverse.set_pointer(7, "new.example.net")
        assert reverse.lookup(7) == "new.example.net"
        assert len(reverse) == 1

    @pytest.mark.parametrize("target", ["", "a..example.net", "x" * 64 + ".net"])
    def test_malformed_target_is_refused(self, target):
        reverse = ReverseZone()
        with pytest.raises(DomainNameError):
            reverse.set_pointer(7, target)
        assert reverse.lookup(7) is None
        assert len(reverse) == 0
