"""Router-side units of the sharded serving tier (no worker processes).

The consistent-hash ring, the routing-key plumbing, the metrics merge the
aggregated ``/metrics`` page relies on, and the per-shard ServiceConfig
derivation are all deterministic pure logic -- tested here without spawning
anything.  End-to-end multi-process behaviour lives in
``tests/integration/test_sharded_service.py``.
"""

import pytest

from repro.service import (
    ConsistentHashRouter,
    ServiceConfig,
    ServiceMetrics,
    ShardedGaloService,
    ShardedServiceConfig,
    sql_fingerprint,
)
from repro.service.sharded import _default_routing_key, _worker_service_config


class TestConsistentHashRouter:
    def test_route_is_deterministic_across_instances(self):
        ring_a = ConsistentHashRouter(4)
        ring_b = ConsistentHashRouter(4)
        keys = [sql_fingerprint(f"SELECT {i} FROM t") for i in range(200)]
        assert [ring_a.route(k) for k in keys] == [ring_b.route(k) for k in keys]

    def test_same_fingerprint_same_shard(self):
        ring = ConsistentHashRouter(4)
        sql = "SELECT i_category FROM item WHERE i_category = 'Music'"
        # Whitespace variants fingerprint identically, so they co-locate:
        # per-shard feedback history and memo warmth depend on it.
        variant = "SELECT   i_category\nFROM item WHERE i_category = 'Music'"
        assert sql_fingerprint(sql) == sql_fingerprint(variant)
        assert ring.route(_default_routing_key(sql, "a")) == ring.route(
            _default_routing_key(variant, "b")
        )

    def test_every_shard_owns_keys(self):
        shard_count = 4
        ring = ConsistentHashRouter(shard_count)
        hits = [0] * shard_count
        for i in range(2000):
            hits[ring.route(f"key-{i}")] += 1
        assert all(count > 0 for count in hits)
        # Virtual nodes keep the split from degenerating: no shard owns more
        # than half the keyspace at 4 shards.
        assert max(hits) < 1000

    def test_resize_moves_a_minority_of_keys(self):
        small = ConsistentHashRouter(3)
        large = ConsistentHashRouter(4)
        keys = [f"key-{i}" for i in range(2000)]
        moved = sum(1 for k in keys if small.route(k) != large.route(k))
        # Consistent hashing moves ~1/N of the keyspace on a resize; a
        # modulo router would move ~3/4 of it.
        assert moved < len(keys) / 2

    def test_single_shard_routes_everything_to_zero(self):
        ring = ConsistentHashRouter(1)
        assert {ring.route(f"k{i}") for i in range(50)} == {0}

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(0)


class TestShardedServiceConfig:
    def test_defaults_valid(self):
        config = ShardedServiceConfig()
        assert config.num_workers == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_workers=0),
            dict(max_pending_per_shard=0),
            dict(kb_poll_interval_seconds=0),
            dict(kb_publish_interval_seconds=0),
            dict(learner_shard=2, num_workers=2),
            dict(learner_shard=-1),
            dict(max_worker_restarts=-1),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            ShardedServiceConfig(**overrides)

    @pytest.mark.parametrize(
        "knob", ["virtual_nodes", "start_timeout_seconds", "watchdog_interval_seconds"]
    )
    def test_constant_knobs_are_not_fields(self, knob):
        with pytest.raises(TypeError):
            ShardedServiceConfig(**{knob: 1})

    def test_service_ring_uses_the_router_default(self):
        service = ShardedGaloService(object, ShardedServiceConfig(num_workers=3))
        reference = ConsistentHashRouter(3)
        keys = [f"key-{i}" for i in range(300)]
        assert [service.router.route(k) for k in keys] == [
            reference.route(k) for k in keys
        ]

    def test_learner_shard_keeps_learning_and_publishes(self, tmp_path):
        config = ShardedServiceConfig(
            num_workers=2,
            kb_directory=str(tmp_path),
            learner_shard=0,
            kb_publish_interval_seconds=3.0,
            worker_config=ServiceConfig(learning_enabled=True),
        )
        learner = _worker_service_config(config, 0)
        follower = _worker_service_config(config, 1)
        assert learner.learning_enabled
        assert learner.kb_checkpoint_directory == str(tmp_path)
        assert learner.kb_checkpoint_interval_seconds == 3.0
        assert not follower.learning_enabled
        assert follower.kb_checkpoint_directory is None
        assert follower.kb_checkpoint_interval_seconds is None

    def test_worker_admission_cap_at_least_router_cap(self):
        config = ShardedServiceConfig(
            num_workers=2,
            max_pending_per_shard=128,
            worker_config=ServiceConfig(max_pending=8),
        )
        derived = _worker_service_config(config, 0)
        # The router is the single place requests are shed: a worker whose
        # own cap were lower would double-reject admitted requests.
        assert derived.max_pending >= 128


class TestMetricsMerge:
    def test_merge_equals_manually_combined_run(self):
        """Merged counters/extremes match one metrics fed both streams."""
        first, second, combined = ServiceMetrics(), ServiceMetrics(), ServiceMetrics()
        for i in range(40):
            first.increment("completed")
            first.record_latency(10.0 + i)
            combined.record_latency(10.0 + i)
        for i in range(25):
            second.increment("completed")
            second.increment("steered")
            second.record_latency(200.0 + i)
            combined.record_latency(200.0 + i)
        combined.increment("completed", 65)
        combined.increment("steered", 25)

        merged = ServiceMetrics.merge([first, second])
        merged_snap = merged.snapshot()
        combined_snap = combined.snapshot()
        for name in ("completed", "steered", "latency_samples",
                     "latency_min_ms", "latency_max_ms"):
            assert merged_snap[name] == combined_snap[name]
        # No reservoir halving happened, so percentiles are exact too.
        assert merged.latency_percentile(95) == combined.latency_percentile(95)
        assert merged.latency_percentile(50) == combined.latency_percentile(50)

    def test_merge_counters_are_summed(self):
        parts = []
        for amount in (3, 5, 9):
            metrics = ServiceMetrics()
            metrics.increment("submitted", amount)
            metrics.increment("rejected", amount * 2)
            parts.append(metrics)
        merged = ServiceMetrics.merge(parts)
        assert merged.count("submitted") == 17
        assert merged.count("rejected") == 34

    def test_merge_min_max_exact_even_after_reservoir_halving(self):
        lossy = ServiceMetrics()
        lossy.MAX_LATENCY_SAMPLES = 8  # force halving on this instance
        for value in (100.0, 1.0, 50.0, 999.0, 40.0, 41.0, 42.0, 43.0, 44.0):
            lossy.record_latency(value)
        assert lossy._latency_stride > 1  # the reservoir really did halve
        other = ServiceMetrics()
        other.record_latency(0.5)
        merged = ServiceMetrics.merge([lossy, other])
        assert merged.latency_min_ms == 0.5
        assert merged.latency_max_ms == 999.0

    def test_merge_accepts_state_dicts(self):
        metrics = ServiceMetrics()
        metrics.increment("completed", 4)
        metrics.record_latency(12.0)
        merged = ServiceMetrics.merge([metrics.state()])
        assert merged.count("completed") == 4
        assert merged.latency_max_ms == 12.0

    def test_state_roundtrip(self):
        metrics = ServiceMetrics()
        metrics.increment("completed", 7)
        for value in (5.0, 6.0, 7.0):
            metrics.record_latency(value)
        clone = ServiceMetrics.from_state(metrics.state())
        assert clone.snapshot() == metrics.snapshot()

    def test_merge_of_nothing_is_empty(self):
        merged = ServiceMetrics.merge([])
        assert merged.count("completed") == 0
        assert merged.latency_min_ms is None
