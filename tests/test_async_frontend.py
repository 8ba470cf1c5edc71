"""Tests for ``repro.serving`` — the cross-request micro-batching front-end.

The contract under test, in rough order of importance:

* **Parity** — recommendations served from coalesced windows are identical
  to the sequential batch-of-one loop, including through observes (version
  bumps) and cache interplay (repeat users inside and across windows).
* **Deadlines include queue wait** — a request that expires while queued
  short-circuits to the stale/empty fallback tail without consuming a
  scoring slot, and the latency sample covers the wait.
* **Backpressure** — at queue capacity ``"reject"`` raises
  :class:`QueueFull` immediately, ``"wait"`` suspends the caller.
* **Chaos** — a shard failing mid-stream (thread-sharded index,
  ``failure_policy="degrade"``) never loses or duplicates a request: every
  caller gets exactly one response.

The suite drives the front-end with ``asyncio.run`` inside ordinary sync
tests — no async test plugin needed.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

import repro.ann.ivf as ivf_module
from repro.ann import IVFIndex
from repro.core import SCCF, SCCFConfig
from repro.core.realtime import RealTimeServer, RecommendRequest
from repro.serving import AsyncFrontend, FrontendStats, QueueFull
from repro.testing import FaultInjector, InjectedFault


def _fresh_server(tiny_dataset, trained_fism, cache_capacity=None) -> RealTimeServer:
    """A server over its own SCCF instance, so mutations don't leak across tests."""

    config = SCCFConfig(
        num_neighbors=10,
        candidate_list_size=30,
        merger_epochs=3,
        seed=3,
        **({} if cache_capacity is None else {"cache_capacity": cache_capacity}),
    )
    sccf = SCCF(trained_fism, config).fit(tiny_dataset, fit_ui_model=False)
    return RealTimeServer(sccf, tiny_dataset)


def _mixed_workload(tiny_dataset, num_requests: int = 48, seed: int = 7):
    """Zipf-ish seeded request mix with repeat users (dedup + cache coverage)."""

    rng = np.random.default_rng(seed)
    users = tiny_dataset.evaluation_users()[:8]
    recommends = [int(users[rng.integers(0, len(users))]) for _ in range(num_requests)]
    observes = [
        (int(users[rng.integers(0, len(users))]), int(rng.integers(0, tiny_dataset.num_items)))
        for _ in range(num_requests // 2)
    ]
    return recommends, observes


# --------------------------------------------------------------------- #
# parity: coalesced output == sequential batch-of-one output
# --------------------------------------------------------------------- #
class TestCoalescedParity:
    @pytest.mark.parametrize("cache_capacity", [None, 256])
    def test_windows_match_sequential_serving(self, tiny_dataset, trained_fism, cache_capacity):
        coalesced = _fresh_server(tiny_dataset, trained_fism, cache_capacity)
        sequential = _fresh_server(tiny_dataset, trained_fism, cache_capacity)
        recommends, observes = _mixed_workload(tiny_dataset)

        async def through_frontend():
            async with AsyncFrontend(coalesced, max_batch=16, max_wait_ms=5.0) as frontend:
                first = await asyncio.gather(
                    *(frontend.recommend(user, k=10) for user in recommends)
                )
                await asyncio.gather(
                    *(frontend.observe(user, item) for user, item in observes)
                )
                second = await asyncio.gather(
                    *(frontend.recommend(user, k=10) for user in recommends)
                )
                assert frontend.stats.mean_recommend_window() > 1.0  # it did coalesce
            return first, second

        first, second = asyncio.run(through_frontend())

        seq_first = [sequential.recommend(user, k=10) for user in recommends]
        for user, item in observes:
            sequential.observe(user, item)
        seq_second = [sequential.recommend(user, k=10) for user in recommends]

        assert list(first) == seq_first
        assert list(second) == seq_second
        # ingestion state is identical too, not just the served lists
        for user in {user for user, _ in observes}:
            assert coalesced.history(user) == sequential.history(user)

    def test_interleaved_singles_match(self, tiny_dataset, trained_fism):
        # A lone request per window (no concurrency) is the degenerate case:
        # the front-end must not change anything relative to direct calls.
        coalesced = _fresh_server(tiny_dataset, trained_fism)
        direct = _fresh_server(tiny_dataset, trained_fism)
        user = tiny_dataset.evaluation_users()[0]

        async def singles():
            async with AsyncFrontend(coalesced, max_batch=8, max_wait_ms=0.0) as frontend:
                out = []
                for item in (1, 3, 5):
                    out.append(await frontend.recommend(user, k=5))
                    await frontend.observe(user, item)
                return out

        results = asyncio.run(singles())
        expected = []
        for item in (1, 3, 5):
            expected.append(direct.recommend(user, k=5))
            direct.observe(user, item)
        assert results == expected


# --------------------------------------------------------------------- #
# deadlines include queue wait
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_expired_request_short_circuits_without_scoring(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        user = tiny_dataset.evaluation_users()[0]
        calls = []
        original = server.sccf.score_items_batch
        server.sccf.score_items_batch = lambda *a, **kw: calls.append(a) or original(*a, **kw)

        # start stamped one full second ago: the 50 ms deadline was blown in
        # the queue, so the request must not reach the scoring pass at all
        expired = RecommendRequest(
            user_id=user, k=5, deadline_ms=50.0, start=time.perf_counter() - 1.0
        )
        misses_before = server.deadline_misses
        assert server.recommend_batch([expired]) == [[]]
        assert server.deadline_misses == misses_before + 1
        assert calls == []
        # the latency sample covers the queue wait, not just server time
        assert server.recommend_latencies[-1] >= 1000.0

        # same request with headroom scores normally
        fresh = RecommendRequest(user_id=user, k=5, deadline_ms=10_000.0)
        assert server.recommend_batch([fresh])[0]
        assert len(calls) == 1

    def test_expired_request_prefers_stale_cache(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism, cache_capacity=64)
        user = tiny_dataset.evaluation_users()[0]
        baseline = server.recommend(user, k=5)
        server.observe(user, 1)  # token-stale but still stored
        expired = RecommendRequest(
            user_id=user, k=5, deadline_ms=50.0, start=time.perf_counter() - 1.0
        )
        assert server.recommend_batch([expired]) == [baseline]
        assert server.served_stale == 1

    def test_frontend_queue_wait_counts_against_deadline(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        users = tiny_dataset.evaluation_users()[:4]

        async def burst():
            # max_batch above the request count: the window cannot fill, so
            # it waits out max_wait_ms before it is built.
            async with AsyncFrontend(server, max_batch=8, max_wait_ms=20.0) as frontend:
                # 0.01 ms expires during the window-build wait alone; every
                # request short-circuits to [] and counts a miss
                return await asyncio.gather(
                    *(frontend.recommend(u, k=5, deadline_ms=0.01) for u in users)
                )

        results = asyncio.run(burst())
        assert list(results) == [[] for _ in users]
        assert server.deadline_misses == len(users)
        # the recorded samples include the queue wait they actually suffered
        assert all(sample >= 0.01 for sample in server.recommend_latencies)


# --------------------------------------------------------------------- #
# backpressure at queue capacity
# --------------------------------------------------------------------- #
class TestBackpressure:
    @staticmethod
    async def _frozen_frontend(server, **kwargs):
        """A started frontend whose drainers are stopped: the queue only fills.

        Execution is synchronous on the loop thread, so a live drainer can
        empty the queue between any two enqueues — freezing it is the only
        deterministic way to observe the at-capacity boundary.
        """

        frontend = AsyncFrontend(server, **kwargs)
        await frontend.start()
        for task in frontend._drainers:
            task.cancel()
        await asyncio.gather(*frontend._drainers, return_exceptions=True)
        frontend._drainers = []
        return frontend

    def test_reject_mode_raises_queue_full(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        user = tiny_dataset.evaluation_users()[0]

        async def scenario():
            frontend = await self._frozen_frontend(
                server, max_queue=2, backpressure="reject"
            )
            waiters = [
                asyncio.ensure_future(frontend.recommend(user, k=5)) for _ in range(2)
            ]
            await asyncio.sleep(0)  # both enqueue (queue now at capacity)
            with pytest.raises(QueueFull, match="capacity"):
                await frontend.recommend(user, k=5)
            assert frontend.stats.rejected_requests == 1
            assert frontend.stats.recommend_requests == 2  # rejects aren't admitted
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)

        asyncio.run(scenario())

    def test_wait_mode_suspends_the_caller(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        user = tiny_dataset.evaluation_users()[0]

        async def scenario():
            frontend = await self._frozen_frontend(server, max_queue=1, backpressure="wait")
            first = asyncio.ensure_future(frontend.recommend(user, k=5))
            await asyncio.sleep(0)  # first fills the queue
            second = asyncio.ensure_future(frontend.recommend(user, k=5))
            await asyncio.sleep(0.05)
            # the second caller is parked in queue.put, not rejected
            assert not second.done()
            assert frontend.stats.rejected_requests == 0
            for task in (first, second):
                task.cancel()
            await asyncio.gather(first, second, return_exceptions=True)

        asyncio.run(scenario())

    def test_invalid_knobs_rejected(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        with pytest.raises(ValueError, match="max_batch"):
            AsyncFrontend(server, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            AsyncFrontend(server, max_wait_ms=-1.0)
        with pytest.raises(ValueError, match="max_queue"):
            AsyncFrontend(server, max_queue=0)
        with pytest.raises(ValueError, match="backpressure"):
            AsyncFrontend(server, backpressure="drop")

    def test_unstarted_frontend_refuses_requests(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        frontend = AsyncFrontend(server)

        async def call():
            await frontend.recommend(tiny_dataset.evaluation_users()[0], k=5)

        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(call())


# --------------------------------------------------------------------- #
# admission validation (the validate-first bugfix, at both layers)
# --------------------------------------------------------------------- #
class TestAdmissionValidation:
    def test_degenerate_k_is_validated_first(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        user = tiny_dataset.evaluation_users()[0]
        # the old path returned [] before looking at user_id or deadline_ms
        with pytest.raises(ValueError, match="user_id"):
            server.recommend(float("nan"), k=0)
        with pytest.raises(ValueError, match="deadline_ms"):
            server.recommend(user, k=0, deadline_ms=-5.0)
        # ... and a valid degenerate request still returns [] with a sample
        samples_before = len(server.recommend_latencies)
        assert server.recommend(user, k=-3) == []
        assert len(server.recommend_latencies) == samples_before + 1

    def test_one_bad_request_fails_the_whole_window_upfront(self, tiny_dataset, trained_fism):
        # recommend_batch is validate-first: nothing is served, no telemetry
        # moves, when any request in the window is malformed
        server = _fresh_server(tiny_dataset, trained_fism)
        good = RecommendRequest(user_id=tiny_dataset.evaluation_users()[0], k=5)
        bad = RecommendRequest(user_id=float("inf"), k=5)
        samples_before = len(server.recommend_latencies)
        with pytest.raises(ValueError, match="user_id"):
            server.recommend_batch([good, bad])
        assert len(server.recommend_latencies) == samples_before

    def test_frontend_rejects_malformed_requests_at_the_caller(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        user = tiny_dataset.evaluation_users()[0]

        async def scenario():
            async with AsyncFrontend(server, max_batch=4, max_wait_ms=1.0) as frontend:
                with pytest.raises(ValueError, match="user_id"):
                    await frontend.recommend(float("nan"), k=5)
                with pytest.raises(ValueError, match="item_id"):
                    await frontend.observe(user, float("nan"))
                # a malformed request never reaches a window, so well-formed
                # neighbours are unaffected
                assert await frontend.recommend(user, k=5)
                assert frontend.stats.recommend_requests == 1

        asyncio.run(scenario())

    def test_empty_score_row_returns_empty_list(self, tiny_dataset, trained_fism):
        # the argpartition(kth=-1) guard: a zero-width score row (zero-item
        # catalog, fully-degraded shard answer) yields [] instead of crashing
        server = _fresh_server(tiny_dataset, trained_fism)
        user = tiny_dataset.evaluation_users()[0]
        server.sccf.score_items_batch = lambda users, histories=None: np.empty(
            (len(users), 0)
        )
        assert server.recommend(user, k=5, exclude_seen=False) == []
        assert server._rank_rows(np.empty((1, 0)), 5) == [[]]


# --------------------------------------------------------------------- #
# SLO accounting
# --------------------------------------------------------------------- #
class TestSloAccounting:
    def test_percentiles_surface_through_health(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        report = server.health()
        assert report.recommend_p50_ms is None and report.observe_p99_ms is None

        recommends, observes = _mixed_workload(tiny_dataset, num_requests=16)

        async def drive():
            async with AsyncFrontend(server, max_batch=8, max_wait_ms=2.0) as frontend:
                await asyncio.gather(*(frontend.recommend(u, k=5) for u in recommends))
                await asyncio.gather(*(frontend.observe(u, i) for u, i in observes))

        asyncio.run(drive())
        report = server.health()
        assert 0.0 < report.recommend_p50_ms <= report.recommend_p99_ms
        assert 0.0 < report.observe_p50_ms <= report.observe_p99_ms

    def test_observe_samples_are_per_request_not_per_window(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        users = tiny_dataset.evaluation_users()[:6]

        async def drive():
            async with AsyncFrontend(server, max_batch=6, max_wait_ms=5.0) as frontend:
                await asyncio.gather(*(frontend.observe(u, 0) for u in users))
                assert frontend.stats.observe_windows < len(users)  # it coalesced

        asyncio.run(drive())
        assert len(server.observe_request_latencies) == len(users)

    def test_request_starts_length_is_validated(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        with pytest.raises(ValueError, match="request_starts"):
            server.observe_batch([(0, 0), (1, 1)], request_starts=[time.perf_counter()])


# --------------------------------------------------------------------- #
# chaos: a shard fault mid-stream never loses or duplicates a request
# --------------------------------------------------------------------- #
class TestChaos:
    @pytest.fixture()
    def sharded_server(self, tiny_dataset, trained_fism):
        config = SCCFConfig(
            num_neighbors=8,
            candidate_list_size=20,
            merger_epochs=1,
            num_shards=2,
            failure_policy="degrade",
            cache_capacity=64,
            seed=3,
        )
        sccf = SCCF(trained_fism, config).fit(tiny_dataset, fit_ui_model=False)
        server = RealTimeServer(sccf, tiny_dataset, default_deadline_ms=10_000.0)
        yield server
        server.close()

    def test_shard_fault_mid_stream_answers_every_request_exactly_once(
        self, sharded_server, tiny_dataset
    ):
        server = sharded_server
        index = server.sccf.neighborhood.index
        injector = FaultInjector(seed=5)
        recommends, observes = _mixed_workload(tiny_dataset, num_requests=24, seed=5)

        async def drive():
            async with AsyncFrontend(server, max_batch=8, max_wait_ms=2.0) as frontend:
                first = await asyncio.gather(
                    *(frontend.recommend(u, k=5) for u in recommends[:12])
                )
                # mid-stream, windows keep flowing; a cold cache makes the
                # next window search the index and hit the failing shard
                server.sccf.cache.clear()
                injector.fail_shard(index, shard=0)
                second = await asyncio.gather(
                    *(frontend.recommend(u, k=5) for u in recommends[12:]),
                    *(frontend.observe(u, i) for u, i in observes),
                )
                return first, second, frontend.stats

        first, second, stats = asyncio.run(drive())

        # exactly one response per admitted request — nothing lost, nothing
        # duplicated, nothing raised (degrade policy absorbs the fault)
        assert len(first) + len(second) == len(recommends) + len(observes)
        assert all(isinstance(result, list) for result in first)
        assert stats.recommend_requests == len(recommends)
        assert stats.observe_requests == len(observes)
        assert server.recommend_failures == 0
        assert index.degraded_requests == 1  # the fault was hit, exactly once
        # ... and the shard answers again afterwards
        degraded_before = server.served_degraded
        server.sccf.cache.clear()
        assert isinstance(server.recommend(recommends[0], k=5), list)
        assert server.served_degraded == degraded_before
        assert index.degraded_requests == 1
        assert server.health().healthy

    @pytest.fixture()
    def ivf_server(self, tiny_dataset, trained_fism):
        sccf = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
            neighbor_index=IVFIndex(num_cells=4, n_probe=2, rng=np.random.default_rng(7)),
        ).fit(tiny_dataset, fit_ui_model=False)
        return RealTimeServer(sccf, tiny_dataset, default_deadline_ms=10_000.0)

    def test_shadow_retrain_under_open_loop_burst(self, ivf_server, tiny_dataset, trained_fism):
        """A background shadow retrain publishes mid-burst: every admitted
        request is answered, no request ever sees the half-built shadow (the
        epoch only moves at the publish poll), and the post-swap index is
        bit-identical to a quiet synchronous retrain plus the same mutations."""

        server = ivf_server
        control_sccf = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
            neighbor_index=IVFIndex(num_cells=4, n_probe=2, rng=np.random.default_rng(7)),
        ).fit(tiny_dataset, fit_ui_model=False)
        control = RealTimeServer(control_sccf, tiny_dataset)
        recommends, observes = _mixed_workload(tiny_dataset, num_requests=24, seed=11)
        live = server.sccf.neighborhood.index

        async def drive():
            async with AsyncFrontend(server, max_batch=8, max_wait_ms=2.0) as frontend:
                first = await asyncio.gather(
                    *(frontend.recommend(u, k=5) for u in recommends[:12])
                )
                assert server.begin_shadow_maintenance(imbalance_threshold=0.5) is None
                # burst keeps flowing while the worker re-clusters the clone;
                # observes land on the live index and the journal
                second = await asyncio.gather(
                    *(frontend.recommend(u, k=5) for u in recommends[12:]),
                    *(frontend.observe(u, i) for u, i in observes),
                )
                # nothing served from the half-built shadow: the live index
                # object keeps serving until the publish poll below
                assert server.sccf.neighborhood.index is live
                epoch_at_publish = live.epoch
                report = server.poll_shadow_maintenance(wait=True)
                third = await asyncio.gather(
                    *(frontend.recommend(u, k=5) for u in recommends)
                )
                return first, second, third, report, epoch_at_publish, frontend.stats

        first, second, third, report, epoch_at_publish, stats = asyncio.run(drive())

        # every admitted request got exactly one answer
        assert len(first) + len(second) + len(third) == 2 * len(recommends) + len(observes)
        assert all(isinstance(r, list) for r in first + third)
        assert stats.recommend_requests == 2 * len(recommends)
        assert stats.observe_requests == len(observes)
        assert server.recommend_failures == 0

        # the swap happened exactly once, with the mid-burst mutations replayed
        assert report is not None and report.retrained and report.shadow
        assert report.journaled_mutations >= 1
        assert server.sccf.neighborhood.index is not live
        assert server.sccf.neighborhood.index.epoch >= epoch_at_publish + 1
        assert server.health().last_maintenance_error is None

        # bit-identity vs. a quiet sync retrain followed by the same mutations
        control.maintain(imbalance_threshold=0.5, shadow=True)
        control.observe_batch(list(observes))
        expected = [control.recommend(u, k=5) for u in recommends]
        assert list(third) == expected

    def test_shadow_failure_under_burst_leaves_serving_available(
        self, ivf_server, tiny_dataset, monkeypatch
    ):
        """A shadow build that dies mid-burst is contained: the burst is still
        fully answered from the untouched live index, the failure lands in
        ``health()``, and the next retrain succeeds."""

        server = ivf_server
        recommends, observes = _mixed_workload(tiny_dataset, num_requests=16, seed=13)
        live = server.sccf.neighborhood.index

        def exploding_kmeans(*args, **kwargs):
            raise InjectedFault("kmeans died mid-recluster")

        monkeypatch.setattr(ivf_module, "kmeans", exploding_kmeans)

        async def drive():
            async with AsyncFrontend(server, max_batch=8, max_wait_ms=2.0) as frontend:
                assert server.begin_shadow_maintenance(imbalance_threshold=0.5) is None
                burst = await asyncio.gather(
                    *(frontend.recommend(u, k=5) for u in recommends),
                    *(frontend.observe(u, i) for u, i in observes),
                )
                with pytest.raises(InjectedFault):
                    server.poll_shadow_maintenance(wait=True)
                # serving never blinked: the live index answers after the wreck
                after = await asyncio.gather(
                    *(frontend.recommend(u, k=5) for u in recommends[:4])
                )
                return burst, after, frontend.stats

        burst, after, stats = asyncio.run(drive())
        monkeypatch.undo()

        assert len(burst) == len(recommends) + len(observes)
        assert all(isinstance(r, list) for r in after)
        assert stats.recommend_requests == len(recommends) + 4
        assert server.recommend_failures == 0
        # live index still installed, failure on the record for operators
        assert server.sccf.neighborhood.index is live
        assert not server.sccf.neighborhood.index_journal_active
        health = server.health()
        assert health.last_maintenance_error is not None
        assert "InjectedFault" in health.last_maintenance_error
        # ... and the system recovers: the next shadow pass publishes
        assert server.begin_shadow_maintenance(imbalance_threshold=0.5) is None
        report = server.poll_shadow_maintenance(wait=True)
        assert report is not None and report.retrained and report.error is None


# --------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_close_flushes_admitted_requests(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        users = tiny_dataset.evaluation_users()[:4]

        async def scenario():
            frontend = AsyncFrontend(server, max_batch=64, max_wait_ms=50.0)
            await frontend.start()
            pending = [
                asyncio.ensure_future(frontend.recommend(u, k=5)) for u in users
            ]
            await asyncio.sleep(0)  # enqueued, window still open
            await frontend.close()  # must flush, not drop
            results = await asyncio.gather(*pending)
            assert all(results)
            await frontend.close()  # idempotent

        asyncio.run(scenario())

    def test_close_drains_observes_through_wal(self, tiny_dataset, trained_fism, tmp_path):
        # A lazy fsync policy that never flushes on its own: if close() did
        # not force a sync after draining the observe window, acknowledged
        # events would sit in the OS cache when the process exits.
        from repro.core.wal import WriteAheadLog, decode_payload, replay_wal

        server = _fresh_server(tiny_dataset, trained_fism)
        server.wal = WriteAheadLog(tmp_path, fsync="interval", interval_ms=1e9)
        users = tiny_dataset.evaluation_users()[:4]
        events = [(int(user), 1 + i) for i, user in enumerate(users)]

        async def scenario():
            frontend = AsyncFrontend(server, max_batch=64, max_wait_ms=50.0)
            await frontend.start()
            pending = [
                asyncio.ensure_future(frontend.observe(u, i)) for u, i in events
            ]
            await asyncio.sleep(0)  # admitted, window still open
            await frontend.close()
            await asyncio.gather(*pending)

        asyncio.run(scenario())
        stats = server.wal.stats()
        assert stats.fsyncs >= 1  # close() forced the flush the policy never would
        assert stats.pending == 0  # nothing acknowledged is still cache-only
        journaled = [
            pair
            for _, payload in replay_wal(tmp_path)
            for pair in decode_payload(payload)[1]
        ]
        assert journaled == events
        server.wal.close()

    def test_double_start_rejected(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)

        async def scenario():
            async with AsyncFrontend(server) as frontend:
                with pytest.raises(RuntimeError, match="already started"):
                    await frontend.start()

        asyncio.run(scenario())

    def test_stats_window_means(self):
        stats = FrontendStats()
        assert stats.mean_recommend_window() is None
        stats.recommend_requests, stats.recommend_windows = 12, 3
        assert stats.mean_recommend_window() == 4.0
