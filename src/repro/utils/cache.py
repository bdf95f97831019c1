"""A small bounded LRU cache.

The paper attributes part of CFSF's online response-time advantage to
"using the locally reduced item-user matrix and caching intermediate
results" (Section V-D).  The intermediate results worth caching are the
per-active-user artefacts of the online phase — the selected top-K
like-minded users and their similarity weights — because a recommender
serves many requests for the same user against different items.

:class:`functools.lru_cache` is unsuitable here because the cached
values are keyed by user index but depend on mutable model state (the
cache must be invalidated on refit/incremental update), and because we
want introspection (hit/miss counters) for the scalability benchmarks.

The cache is thread-safe: a single mutex guards the ordered dict and
the hit/miss counters, so the concurrent serving front (the
micro-batcher's dispatch workers plus any direct callers) can share
one cache without corrupting the recency list.  ``OrderedDict``
operations are O(1) and the critical sections hold no other locks, so
contention stays well below the cost of the cached computations.  The
mutex is excluded from pickling (a model carrying this cache is
shipped to spawn-mode pool workers); each process re-creates its own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, Sequence

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded mapping with least-recently-used eviction (thread-safe).

    Parameters
    ----------
    maxsize:
        Maximum number of entries.  ``0`` disables caching entirely
        (every lookup misses), which the ablation benchmarks use to
        quantify the cache's contribution to online latency.

    Examples
    --------
    >>> cache = LRUCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)      # evicts "b", the least recently used
    >>> cache.get("b") is None
    True
    """

    __slots__ = ("_data", "_maxsize", "_mutex", "hits", "misses")

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self._maxsize = int(maxsize)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._mutex = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def maxsize(self) -> int:
        """The configured capacity."""
        return self._maxsize

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value for *key*, refreshing its recency."""
        with self._mutex:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def get_many(self, keys: Sequence[Hashable], default: Any = None) -> list:
        """:meth:`get` for each of *keys* in turn, under one lock.

        Values, hit/miss counts and the recency order it leaves are
        those of sequential :meth:`get` calls; a batch of lookups just
        takes the mutex once instead of once per key.

        >>> cache = LRUCache(maxsize=2)
        >>> cache.put("a", 1); cache.put("b", 2)
        >>> cache.get_many(["a", "x", "a"], default=0)
        [1, 0, 1]
        >>> cache.hits, cache.misses
        (2, 1)
        >>> cache.put("c", 3)      # "a" was refreshed, so "b" goes
        >>> list(cache)
        ['a', 'c']
        """
        data = self._data
        move_to_end = data.move_to_end
        values = []
        hits = 0
        with self._mutex:
            for key in keys:
                try:
                    value = data[key]
                except KeyError:
                    values.append(default)
                    continue
                move_to_end(key)
                values.append(value)
                hits += 1
            self.hits += hits
            self.misses += len(values) - hits
        return values

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite *key*, evicting the LRU entry when full."""
        self.put_many((key,), (value,))

    def put_many(self, keys: Sequence[Hashable], values: Sequence[Any]) -> None:
        """:meth:`put` for each ``(key, value)`` pair in turn, under one lock.

        Contents, recency order and evictions are those of sequential
        :meth:`put` calls; a batch of writes just takes the mutex once
        instead of once per key.

        >>> cache = LRUCache(maxsize=2)
        >>> cache.put_many(["a", "b", "a", "c"], [1, 2, 3, 4])
        >>> list(cache)            # "b" was the least recently written
        ['a', 'c']
        >>> cache.get("a")
        3
        """
        if self._maxsize == 0:
            return
        data = self._data
        move_to_end = data.move_to_end
        with self._mutex:
            for key, value in zip(keys, values):
                if key in data:
                    move_to_end(key)
                data[key] = value
                if len(data) > self._maxsize:
                    data.popitem(last=False)

    def discard(self, key: Hashable) -> None:
        """Remove *key* if present (a missing key is not an error).

        Frees an entry the caller knows is superseded before LRU
        eviction would reach it.  Hit/miss counters are untouched.

        >>> cache = LRUCache(maxsize=2)
        >>> cache.put("a", 1)
        >>> cache.discard("a"); cache.discard("a")
        >>> len(cache)
        0
        """
        with self._mutex:
            self._data.pop(key, None)

    def get_or_compute(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return cached value for *key*, computing and storing on a miss.

        The factory runs outside the mutex (it may be expensive); two
        threads missing concurrently both compute, and the last write
        wins — acceptable because cached values are deterministic
        functions of the key.
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._mutex:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # The mutex cannot cross a pickle boundary (spawn-mode pool workers
    # receive the model, cache included); state travels without it.
    def __getstate__(self) -> tuple:
        with self._mutex:
            return (self._maxsize, list(self._data.items()), self.hits, self.misses)

    def __setstate__(self, state: tuple) -> None:
        maxsize, items, hits, misses = state
        self._maxsize = maxsize
        self._data = OrderedDict(items)
        self._mutex = threading.Lock()
        self.hits = hits
        self.misses = misses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRUCache(maxsize={self._maxsize}, len={len(self._data)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
