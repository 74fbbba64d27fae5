"""``LruCache``: the bounded LRU behind the explain cache and the prepared lane.

One thread owns a cache, so its counters are exact: every ``get`` counts
one hit or one miss (``Database.explain_cache_hits`` / ``_misses`` read
them), and eviction drops the least recently used key.
"""

import random
from collections import OrderedDict

import pytest

from repro.cache import LruCache


class TestLruCache:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_get_counts_one_hit_or_one_miss(self, seed):
        """Random gets, puts and clears against an ``OrderedDict`` model:
        each ``get`` answers what the model holds and moves exactly one of
        the two counters."""
        rng = random.Random(seed)
        capacity = rng.randint(1, 5)
        cache = LruCache(capacity)
        model = OrderedDict()
        gets = hits = 0
        for step in range(500):
            key = rng.randrange(8)
            roll = rng.random()
            if roll < 0.55:
                expected = model.get(key)
                if key in model:
                    model.move_to_end(key)
                    hits += 1
                gets += 1
                assert cache.get(key) == expected, f"step {step}"
            elif roll < 0.97:
                model[key] = step
                model.move_to_end(key)
                while len(model) > capacity:
                    model.popitem(last=False)
                cache.put(key, step)
            else:
                model.clear()
                cache.clear()
            assert (cache.hits, cache.misses) == (hits, gets - hits), f"step {step}"
            assert len(cache) == len(model) <= capacity

    def test_a_hit_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)
        assert cache.get("b") is None
        assert (cache.get("a"), cache.get("c")) == (1, 3)
        assert (cache.hits, cache.misses) == (3, 1)

    def test_clear_drops_entries_and_keeps_counters(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("z")
        cache.clear()
        assert len(cache) == 0 and cache.get("a") is None
        assert (cache.hits, cache.misses) == (1, 2)
