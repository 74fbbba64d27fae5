"""A small LRU cache.

Shared by the hot-path caches the online tier leans on: optimized plans
(``Database.explain``) and prepared statements (``PreparedStatements``).
Like the rest of the engine it is used from one thread at a time.  Values
are returned by reference: what the two caches hold (plans and verdicts
over them) is read-only once stored.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LruCache:
    """Bounded mapping with LRU eviction; every ``get`` counts a hit or miss."""

    def __init__(self, capacity: int):
        self.capacity = max(1, capacity)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or None (misses are counted here)."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)
