"""Tests for the client stub resolver cache (TTL + LRU behaviour)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.cache import StubResolverCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = StubResolverCache()
        assert cache.lookup("a.com", now=0.0) is None
        cache.insert("a.com", (1, 2), ttl=60, now=0.0)
        entry = cache.lookup("a.com", now=30.0)
        assert entry is not None
        assert entry.addresses == (1, 2)

    def test_case_insensitive(self):
        cache = StubResolverCache()
        cache.insert("A.COM", (1,), ttl=60, now=0.0)
        assert cache.lookup("a.com", now=1.0) is not None

    def test_ttl_expiry(self):
        cache = StubResolverCache()
        cache.insert("a.com", (1,), ttl=60, now=0.0)
        assert cache.lookup("a.com", now=59.9) is not None
        assert cache.lookup("a.com", now=60.1) is None
        assert cache.stats["expired"] == 1

    def test_max_lifetime_caps_ttl(self):
        cache = StubResolverCache(max_lifetime=3600)
        cache.insert("a.com", (1,), ttl=86400, now=0.0)
        assert cache.lookup("a.com", now=3599) is not None
        assert cache.lookup("a.com", now=3601) is None

    def test_reinsert_refreshes(self):
        cache = StubResolverCache()
        cache.insert("a.com", (1,), ttl=10, now=0.0)
        cache.insert("a.com", (2,), ttl=10, now=8.0)
        entry = cache.lookup("a.com", now=15.0)
        assert entry is not None
        assert entry.addresses == (2,)


class TestCapacity:
    def test_lru_eviction(self):
        cache = StubResolverCache(capacity=2)
        cache.insert("a.com", (1,), ttl=600, now=0.0)
        cache.insert("b.com", (2,), ttl=600, now=1.0)
        cache.lookup("a.com", now=2.0)  # refresh a.com's recency
        cache.insert("c.com", (3,), ttl=600, now=3.0)
        assert cache.lookup("b.com", now=4.0) is None  # evicted
        assert cache.lookup("a.com", now=4.0) is not None
        assert cache.lookup("c.com", now=4.0) is not None
        assert cache.stats["evicted"] == 1

    def test_len(self):
        cache = StubResolverCache(capacity=10)
        for i in range(5):
            cache.insert(f"host{i}.com", (i,), ttl=60, now=0.0)
        assert len(cache) == 5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StubResolverCache(capacity=0)
        with pytest.raises(ValueError):
            StubResolverCache(max_lifetime=0)


class TestPurgeAndStats:

    def test_hit_ratio(self):
        cache = StubResolverCache()
        cache.insert("a.com", (1,), ttl=60, now=0.0)
        cache.lookup("a.com", now=1.0)
        cache.lookup("missing.com", now=1.0)
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_hit_ratio_empty(self):
        assert StubResolverCache().hit_ratio == 0.0


class TestPropertyInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a.com", "b.com", "c.com", "d.com"]),
                st.floats(min_value=0, max_value=1000),
            ),
            max_size=50,
        )
    )
    def test_capacity_never_exceeded(self, operations):
        cache = StubResolverCache(capacity=3)
        for name, now in sorted(operations, key=lambda op: op[1]):
            cache.insert(name, (1,), ttl=100, now=now)
            assert len(cache) <= 3

    @given(st.floats(min_value=0, max_value=1e6))
    def test_fresh_entry_always_hits(self, now):
        cache = StubResolverCache()
        cache.insert("x.com", (9,), ttl=50, now=now)
        assert cache.lookup("x.com", now=now + 49) is not None
