"""Unit and integration tests for scatter-gather sharded serving.

`tests/test_properties_ann.py` pins the randomized sharded/unsharded parity;
this file covers the deterministic surface: routing, growth, maintenance
fan-out, the `UserNeighborhoodComponent` / `SCCFConfig` knobs, and the
`RealTimeServer.maintain()` hook.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import (
    DEFAULT_RETRAIN_THRESHOLD,
    BruteForceIndex,
    IVFIndex,
    NeighborIndex,
    ShardedIndex,
)
from repro.core import SCCF, RealTimeServer, SCCFConfig, UserNeighborhoodComponent


class TestShardedIndex:
    def test_protocol_conformance(self):
        assert isinstance(ShardedIndex(), NeighborIndex)

    def test_round_robin_partitioning(self, rng):
        index = ShardedIndex(num_shards=3).build(rng.normal(size=(10, 4)))
        assert index.shard_of(0) == (0, 0)
        assert index.shard_of(1) == (1, 0)
        assert index.shard_of(5) == (2, 1)
        assert index.shard_of(9) == (0, 3)
        sizes = [shard.size for shard in index.shards]
        assert sizes == [4, 3, 3]  # balanced to within one row

    def test_self_is_top_neighbor(self, rng):
        vectors = rng.normal(size=(30, 8))
        index = ShardedIndex(num_shards=4).build(vectors)
        ids, sims = index.search(vectors[7], k=3)
        assert ids[0] == 7
        assert sims[0] == pytest.approx(1.0)

    def test_exclusions_pass_through(self, rng):
        vectors = rng.normal(size=(30, 8))
        index = ShardedIndex(num_shards=3).build(vectors)
        ids, _ = index.search(vectors[7], k=5, exclude=np.array([7]))
        assert 7 not in ids

    def test_update_routes_to_owning_shard(self, rng):
        vectors = rng.normal(size=(12, 4))
        index = ShardedIndex(num_shards=3).build(vectors)
        fresh = rng.normal(size=4)
        index.update(7, fresh)
        shard, local = index.shard_of(7)
        np.testing.assert_allclose(
            index.shards[shard]._vectors[local], fresh.astype(np.float32), rtol=1e-6
        )
        ids, _ = index.search(fresh, k=1)
        assert ids[0] == 7

    def test_add_continues_round_robin(self, rng):
        index = ShardedIndex(num_shards=3).build(rng.normal(size=(7, 4)))
        index.add(rng.normal(size=(5, 4)))
        assert index.size == 12
        assert [shard.size for shard in index.shards] == [4, 4, 4]
        ids, _ = index.search(index.shards[0]._vectors[3].astype(np.float64), k=1)
        assert ids[0] == 9  # global position 9 lives at (shard 0, local 3)

    def test_add_into_empty_shard_builds_it(self, rng):
        # 2 rows over 4 shards leaves shards 2 and 3 empty at build time.
        index = ShardedIndex(num_shards=4).build(rng.normal(size=(2, 4)))
        assert [shard.size for shard in index.shards] == [1, 1, 0, 0]
        index.add(rng.normal(size=(4, 4)))
        assert [shard.size for shard in index.shards] == [2, 2, 1, 1]
        flat_ids, _ = index.search(rng.normal(size=4), k=6)
        assert sorted(flat_ids.tolist()) == list(range(6))

    def test_custom_ids(self, rng):
        vectors = rng.normal(size=(6, 3))
        ids = np.array([10, 20, 30, 40, 50, 60])
        index = ShardedIndex(num_shards=2).build(vectors, ids=ids)
        got, _ = index.search(vectors[2], k=1)
        assert got[0] == 30

    def test_duplicate_ids_rejected_globally(self, rng):
        index = ShardedIndex(num_shards=2).build(rng.normal(size=(6, 3)))
        with pytest.raises(ValueError, match="collide"):
            index.add(rng.normal(size=(1, 3)), ids=np.array([4]))
        with pytest.raises(ValueError, match="unique"):
            index.add(rng.normal(size=(2, 3)), ids=np.array([7, 7]))
        with pytest.raises(ValueError, match="unique"):
            ShardedIndex(num_shards=2).build(rng.normal(size=(2, 3)), ids=np.array([1, 1]))

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            ShardedIndex(num_shards=0)
        with pytest.raises(ValueError):
            ShardedIndex(num_threads=0)
        index = ShardedIndex(num_shards=2)
        with pytest.raises(RuntimeError):
            index.search(np.ones(3), k=1)
        with pytest.raises(RuntimeError):
            index.update(0, np.ones(3))
        with pytest.raises(RuntimeError):
            index.add(np.ones((1, 3)))
        with pytest.raises(ValueError, match="zero vectors"):
            index.build(np.empty((0, 3)))
        built = ShardedIndex(num_shards=2).build(rng.normal(size=(6, 3)))
        with pytest.raises(ValueError):
            built.search(np.ones(3), k=0)
        with pytest.raises(ValueError):
            built.update(9, np.ones(3))
        with pytest.raises(ValueError):
            built.update_batch([0], np.ones((1, 7)))

    def test_ivf_shards_and_maintenance_fanout(self, rng):
        vectors = rng.normal(size=(40, 6))
        index = ShardedIndex(
            num_shards=2,
            # n_probe=4 of 4 cells: each shard scans all its cells, so the
            # scatter-gather result must match an exact scan even after retrain
            shard_factory=lambda: IVFIndex(num_cells=4, n_probe=4, rng=np.random.default_rng(0)),
        ).build(vectors)
        assert all(isinstance(shard, IVFIndex) for shard in index.shards)
        assert index.imbalance() >= 1.0
        index.retrain(num_iterations=5)
        exact = BruteForceIndex().build(vectors)
        query = rng.normal(size=6)
        approx_ids, _ = index.search(query, k=8)
        exact_ids, _ = exact.search(query, k=8)
        np.testing.assert_array_equal(np.sort(approx_ids), np.sort(exact_ids))

    def test_shard_retrain_threshold_surfaces_most_conservative(self, rng):
        index = ShardedIndex(num_shards=2).build(rng.normal(size=(8, 4)))
        assert index.retrain_threshold is None  # brute-force shards carry none
        thresholds = iter([4.0, 1.5])
        ivf_backed = ShardedIndex(
            num_shards=2,
            shard_factory=lambda: IVFIndex(
                num_cells=2, n_probe=2, retrain_threshold=next(thresholds)
            ),
        ).build(rng.normal(size=(8, 4)))
        assert ivf_backed.retrain_threshold == 1.5

    def test_brute_force_shards_report_balanced(self, rng):
        index = ShardedIndex(num_shards=2).build(rng.normal(size=(10, 4)))
        assert index.imbalance() == 1.0
        index.retrain()  # no-op, must not raise

    def test_close_is_idempotent(self, rng):
        index = ShardedIndex(num_shards=2, num_threads=2).build(rng.normal(size=(8, 4)))
        index.search_batch(rng.normal(size=(3, 4)), k=2)
        index.close()
        index.close()
        # searches still work after close (executor is recreated lazily)
        index.search_batch(rng.normal(size=(3, 4)), k=2)
        index.close()


class TestNeighborhoodSharding:
    def test_num_shards_knob_builds_sharded_index(self):
        component = UserNeighborhoodComponent(num_neighbors=5, num_shards=3)
        assert isinstance(component.index, ShardedIndex)
        assert component.index.num_shards == 3

    def test_index_factory_without_shards(self):
        component = UserNeighborhoodComponent(
            num_neighbors=5, index_factory=lambda: IVFIndex(num_cells=2, n_probe=2)
        )
        assert isinstance(component.index, IVFIndex)

    def test_index_factory_supplies_shard_indexes(self):
        component = UserNeighborhoodComponent(
            num_neighbors=5,
            num_shards=2,
            index_factory=lambda: IVFIndex(num_cells=2, n_probe=2),
        )
        assert isinstance(component.index, ShardedIndex)

    def test_explicit_index_takes_precedence(self):
        explicit = BruteForceIndex()
        component = UserNeighborhoodComponent(num_neighbors=5, index=explicit, num_shards=4)
        assert component.index is explicit

    def test_invalid_num_shards(self):
        with pytest.raises(ValueError):
            UserNeighborhoodComponent(num_shards=0)
        with pytest.raises(ValueError):
            SCCFConfig(num_shards=0)

    def test_sharded_scoring_matches_unsharded(self, tiny_dataset, trained_fism):
        flat = UserNeighborhoodComponent(num_neighbors=8).fit(trained_fism, tiny_dataset)
        sharded = UserNeighborhoodComponent(num_neighbors=8, num_shards=2).fit(
            trained_fism, tiny_dataset
        )
        users = list(range(0, tiny_dataset.num_users, 7))
        np.testing.assert_allclose(
            flat.score_for_users(users), sharded.score_for_users(users), atol=1e-9
        )

    def test_sccf_config_num_shards_reaches_index(self, trained_fism):
        sccf = SCCF(trained_fism, SCCFConfig(num_neighbors=5, merger_epochs=1, num_shards=2))
        assert isinstance(sccf.neighborhood.index, ShardedIndex)

    def test_sccf_rejects_explicit_index_plus_num_shards(self, trained_fism):
        """An explicit index would silently override the sharding knob."""

        with pytest.raises(ValueError, match="not both"):
            SCCF(
                trained_fism,
                SCCFConfig(num_neighbors=5, merger_epochs=1, num_shards=2),
                neighbor_index=BruteForceIndex(),
            )


class TestRealTimeMaintain:
    def _server(self, dataset, fism, index) -> RealTimeServer:
        sccf = SCCF(
            fism,
            SCCFConfig(num_neighbors=8, candidate_list_size=20, merger_epochs=1, seed=3),
            neighbor_index=index,
        )
        sccf.fit(dataset, fit_ui_model=False)
        return RealTimeServer(sccf, dataset)

    def test_unsupported_index_is_noop(self, tiny_dataset, trained_fism):
        server = self._server(tiny_dataset, trained_fism, BruteForceIndex())
        report = server.maintain()
        assert report.supported is False
        assert report.retrained is False
        assert report.imbalance_before is None

    def test_balanced_index_not_retrained(self, tiny_dataset, trained_fism):
        server = self._server(
            tiny_dataset, trained_fism, IVFIndex(num_cells=4, n_probe=4, rng=np.random.default_rng(0))
        )
        report = server.maintain(imbalance_threshold=50.0)
        assert report.supported and not report.retrained
        assert report.imbalance_after == report.imbalance_before

    def test_skewed_index_retrained_below_threshold(self, tiny_dataset, trained_fism):
        index = IVFIndex(num_cells=8, n_probe=8, rng=np.random.default_rng(0))
        server = self._server(tiny_dataset, trained_fism, index)
        # skew the pool the way a drifted stream would
        rng = np.random.default_rng(9)
        drift = rng.normal(size=(300, trained_fism.embedding_dim))
        drift[:, 0] += 4.0
        index.add(drift)
        assert index.imbalance() > DEFAULT_RETRAIN_THRESHOLD
        report = server.maintain()
        assert report.supported and report.retrained
        assert report.threshold == DEFAULT_RETRAIN_THRESHOLD
        assert report.imbalance_before > DEFAULT_RETRAIN_THRESHOLD
        assert report.imbalance_after < DEFAULT_RETRAIN_THRESHOLD
        assert report.duration_ms >= 0.0

    def test_index_own_threshold_wins(self, tiny_dataset, trained_fism):
        index = IVFIndex(
            num_cells=4, n_probe=4, rng=np.random.default_rng(0), retrain_threshold=100.0
        )
        server = self._server(tiny_dataset, trained_fism, index)
        report = server.maintain()
        assert report.threshold == 100.0
        assert not report.retrained
