"""Unit tests for the LRU cache behind CFSF's online phase."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.cache import LRUCache


class TestBasics:
    def test_put_get_roundtrip(self):
        c = LRUCache(4)
        c.put("a", 1)
        assert c.get("a") == 1

    def test_missing_returns_default(self):
        c = LRUCache(4)
        assert c.get("nope") is None
        assert c.get("nope", 42) == 42

    def test_len_and_contains(self):
        c = LRUCache(4)
        c.put("a", 1)
        assert len(c) == 1 and "a" in c and "b" not in c

    def test_overwrite_does_not_grow(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.put("a", 2)
        assert len(c) == 1 and c.get("a") == 2

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestEviction:
    def test_lru_order(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")          # refresh a
        c.put("c", 3)       # evicts b
        assert "a" in c and "c" in c and "b" not in c

    def test_put_refreshes_recency(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)      # refresh a by overwrite
        c.put("c", 3)       # evicts b
        assert c.get("a") == 10 and "b" not in c

    def test_zero_capacity_disables_caching(self):
        c = LRUCache(0)
        c.put("a", 1)
        assert len(c) == 0 and c.get("a") is None


class TestCounters:
    def test_hit_miss_accounting(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.get("a")
        c.get("b")
        assert (c.hits, c.misses) == (1, 1)
        assert c.hit_rate == 0.5

    def test_hit_rate_empty(self):
        assert LRUCache(4).hit_rate == 0.0

    def test_clear_resets_everything(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert len(c) == 0 and c.hits == 0 and c.misses == 0


class TestGetOrCompute:
    def test_computes_once(self):
        c = LRUCache(4)
        calls = []
        for _ in range(3):
            v = c.get_or_compute("k", lambda: calls.append(1) or "value")
        assert v == "value" and len(calls) == 1

    def test_caches_none_values(self):
        """A factory returning None must still be cached (sentinel test)."""
        c = LRUCache(4)
        calls = []
        for _ in range(2):
            c.get_or_compute("k", lambda: calls.append(1))
        assert len(calls) == 1


class TestDiscard:
    def test_discard_removes_one_key_and_keeps_counters(self):
        c = LRUCache(3)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        c.get("a")
        counts = (c.hits, c.misses)
        c.discard("b")
        c.discard("b")  # already gone: a no-op
        assert list(c) == ["c", "a"]
        assert (c.hits, c.misses) == counts
        c.put("d", 4)
        c.put("e", 5)  # over capacity again: evicts "c", the LRU entry
        assert list(c) == ["a", "d", "e"]


class TestGetMany:
    """``get_many`` is sequential ``get`` under one lock."""

    keys = st.lists(st.integers(0, 6), max_size=12)

    @settings(max_examples=200, deadline=None)
    @given(
        maxsize=st.integers(0, 4),
        stored=keys,
        probes=st.lists(keys, max_size=4),
        later=keys,
    )
    def test_matches_sequential_get(self, maxsize, stored, probes, later):
        one_by_one, batched = LRUCache(maxsize), LRUCache(maxsize)
        for cache in (one_by_one, batched):
            for key in stored:
                cache.put(key, f"v{key}")
        for keys in probes:
            expected = [one_by_one.get(key, "miss") for key in keys]
            assert batched.get_many(keys, "miss") == expected
            assert (batched.hits, batched.misses) == (one_by_one.hits, one_by_one.misses)
            assert list(batched) == list(one_by_one)
        # Recency decides what later inserts evict.
        for key in later:
            one_by_one.put(key, key)
            batched.put(key, key)
        assert list(batched) == list(one_by_one)



class TestPutMany:
    """``put_many`` is sequential ``put`` under one lock."""

    keys = st.lists(st.integers(0, 6), max_size=12)

    @settings(max_examples=200, deadline=None)
    @given(
        maxsize=st.integers(0, 4),
        stored=keys,
        writes=st.lists(keys, max_size=4),
        later=keys,
    )
    def test_matches_sequential_put(self, maxsize, stored, writes, later):
        one_by_one, batched = LRUCache(maxsize), LRUCache(maxsize)
        for cache in (one_by_one, batched):
            for key in stored:
                cache.put(key, f"v{key}")
        for n, keys in enumerate(writes):
            values = [f"w{n}.{key}" for key in keys]
            for key, value in zip(keys, values):
                one_by_one.put(key, value)
            batched.put_many(keys, values)
            # Same entries, values and recency order (so same evictions).
            assert list(batched) == list(one_by_one)
            assert [batched._data[k] for k in batched] == [one_by_one._data[k] for k in one_by_one]
        assert (batched.hits, batched.misses) == (one_by_one.hits, one_by_one.misses)
        for key in later:
            one_by_one.put(key, key)
            batched.put(key, key)
        assert list(batched) == list(one_by_one)
