"""Tests for repro.net.ip: parsing, formatting, networks, pools."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ip import (
    IPv4Network,
    IPv4Pool,
    MAX_IPV4,
    ip_from_str,
    ip_to_str,
    is_private,
)


class TestConversion:
    def test_parse_simple(self):
        assert ip_from_str("1.2.3.4") == 0x01020304

    def test_parse_extremes(self):
        assert ip_from_str("0.0.0.0") == 0
        assert ip_from_str("255.255.255.255") == MAX_IPV4

    def test_format_simple(self):
        assert ip_to_str(0x01020304) == "1.2.3.4"

    @pytest.mark.parametrize(
        "bad",
        ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1.2.3.04", "", "1..2.3"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            ip_from_str(bad)

    @pytest.mark.parametrize("bad", [-1, MAX_IPV4 + 1])
    def test_format_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ip_to_str(bad)

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_roundtrip(self, value):
        assert ip_from_str(ip_to_str(value)) == value


class TestPrivate:
    def test_rfc1918_ranges(self):
        assert is_private(ip_from_str("10.1.2.3"))
        assert is_private(ip_from_str("172.16.0.1"))
        assert is_private(ip_from_str("192.168.255.1"))

    def test_public(self):
        assert not is_private(ip_from_str("8.8.8.8"))
        assert not is_private(ip_from_str("172.32.0.1"))


class TestNetwork:
    def test_parse_and_str(self):
        net = IPv4Network.parse("192.0.2.0/24")
        assert str(net) == "192.0.2.0/24"
        assert net.size == 256

    def test_membership(self):
        net = IPv4Network.parse("192.0.2.0/24")
        assert ip_from_str("192.0.2.77") in net
        assert ip_from_str("192.0.3.77") not in net

    def test_address_indexing(self):
        net = IPv4Network.parse("10.0.0.0/30")
        assert [ip_to_str(net.address(i)) for i in range(4)] == [
            "10.0.0.0",
            "10.0.0.1",
            "10.0.0.2",
            "10.0.0.3",
        ]
        with pytest.raises(IndexError):
            net.address(4)

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            IPv4Network.parse("192.0.2.1/24")

    def test_rejects_missing_prefix(self):
        with pytest.raises(ValueError):
            IPv4Network.parse("192.0.2.0")

    def test_last_address(self):
        net = IPv4Network.parse("10.0.0.0/24")
        assert ip_to_str(net.last) == "10.0.0.255"

    @given(st.integers(min_value=0, max_value=32))
    def test_mask_has_prefix_leading_ones(self, prefix):
        net = IPv4Network(0, prefix)
        assert bin(net.mask).count("1") == prefix


def _pool(*cidrs: str) -> IPv4Pool:
    return IPv4Pool([IPv4Network.parse(cidr) for cidr in cidrs])


class TestPool:
    def test_allocation_order(self):
        pool = _pool("10.0.0.0/30", "10.1.0.0/31")
        addrs = [ip_to_str(pool.allocate()) for _ in range(6)]
        assert addrs == [
            "10.0.0.0",
            "10.0.0.1",
            "10.0.0.2",
            "10.0.0.3",
            "10.1.0.0",
            "10.1.0.1",
        ]

    def test_exhaustion(self):
        pool = _pool("10.0.0.0/31")
        pool.allocate()
        pool.allocate()
        with pytest.raises(RuntimeError):
            pool.allocate()

    def test_capacity_and_contains(self):
        pool = _pool("10.0.0.0/24")
        assert pool.capacity == 256
        assert ip_from_str("10.0.0.200") in pool
        assert ip_from_str("10.0.1.0") not in pool

    def test_allocated_counter(self):
        pool = _pool("10.0.0.0/24")
        for _ in range(5):
            pool.allocate()
        assert pool.allocated == 5
