"""Micro-batched streaming ingestion: EventBuffer, observe_batch, cold-start growth.

Covers the streaming ingestion subsystem plus the serving-path regression
fixes that shipped with it:

* ``recommend`` no longer pads results with non-candidate placeholder items
  (the finite ``_NEG_INF`` sentinel used to slip past the ``isfinite`` filter)
  and returns ``[]`` for ``k <= 0`` instead of wrapping ``argpartition``;
* ``observe`` rejects negative user ids instead of silently creating state;
* the latency log is a bounded window, not an unbounded list;
* ``observe_batch`` over a shuffled event stream leaves histories, embeddings
  and recommendations bit-identical to sequential ``observe`` calls;
* a brand-new streamed user grows the neighborhood pool and becomes
  retrievable as a neighbor (cold start), instead of being silently excluded
  from the index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SCCF, EventBuffer, RealTimeServer, SCCFConfig


def _fresh_server(tiny_dataset, trained_fism) -> RealTimeServer:
    """A server over its own SCCF instance, so mutations don't leak across tests."""

    sccf = SCCF(
        trained_fism,
        SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=3, seed=3),
    )
    sccf.fit(tiny_dataset, fit_ui_model=False)
    return RealTimeServer(sccf, tiny_dataset)


def _event_stream(tiny_dataset, num_events: int = 36, seed: int = 11):
    """A shuffled multi-user stream: users interleave, items are random."""

    rng = np.random.default_rng(seed)
    users = tiny_dataset.evaluation_users()[:6]
    return [
        (int(rng.choice(users)), int(rng.integers(0, tiny_dataset.num_items)))
        for _ in range(num_events)
    ]


class TestRecommendFixes:
    def test_no_padding_with_unscored_items(self, fitted_sccf, tiny_dataset):
        """In "sccf" mode, items the merger never scored must not fill the list."""

        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        recommendations = server.recommend(user, k=tiny_dataset.num_items)
        assert recommendations  # some candidates exist
        scores = fitted_sccf.score_items(user, history=server.history(user))
        for item in recommendations:
            assert scores[item] > -1e12  # strictly above the sentinel

    def test_k_nonpositive_returns_empty(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        assert server.recommend(user, k=0) == []
        assert server.recommend(user, k=-3) == []


class TestObserveValidation:
    def test_negative_user_id_rejected(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        with pytest.raises(ValueError):
            server.observe(-1, 0)
        assert server.history(-1) == []  # no state was silently created

    def test_batch_validates_before_ingesting(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        before = server.history(user)
        with pytest.raises(ValueError):
            server.observe_batch([(user, 0), (user, tiny_dataset.num_items + 5)])
        assert server.history(user) == before  # bad batch left no partial state


class TestLatencyWindow:
    def test_latencies_bounded(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset, latency_window=4)
        user = tiny_dataset.evaluation_users()[0]
        for _ in range(7):
            server.observe(user, 0)
        assert len(server.latencies) == 4
        average = server.average_latency()
        assert average is not None and average.total_ms >= 0.0

    def test_invalid_window(self, fitted_sccf, tiny_dataset):
        with pytest.raises(ValueError):
            RealTimeServer(fitted_sccf, tiny_dataset, latency_window=0)

    def test_average_latency_event_weighted(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        breakdown = server.observe_batch(_event_stream(tiny_dataset, num_events=8))
        assert breakdown is not None and breakdown.num_events == 8
        average = server.average_latency()
        assert average.inferring_ms == pytest.approx(breakdown.inferring_ms / 8)
        assert average.identifying_ms == pytest.approx(breakdown.identifying_ms / 8)


class TestEventBuffer:
    def test_invalid_flush_size(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        with pytest.raises(ValueError):
            EventBuffer(server, flush_size=0)

    def test_auto_flush_at_flush_size(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        buffer = EventBuffer(server, flush_size=3)
        user = tiny_dataset.evaluation_users()[0]
        assert buffer.push(user, 0) is None
        assert buffer.push(user, 1) is None
        breakdown = buffer.push(user, 2)
        assert breakdown is not None and breakdown.num_events == 3
        assert len(buffer) == 0
        assert server.history(user)[-3:] == [0, 1, 2]

    def test_push_validates_eagerly(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        buffer = EventBuffer(server, flush_size=10)
        with pytest.raises(ValueError):
            buffer.push(-1, 0)
        with pytest.raises(ValueError):
            buffer.push(0, tiny_dataset.num_items)
        assert len(buffer) == 0

    def test_flush_empty_returns_none(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        assert EventBuffer(server).flush() is None

    def test_context_manager_flushes_tail(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        with EventBuffer(server, flush_size=100) as buffer:
            buffer.push(user, 4)
            buffer.push(user, 5)
        assert len(buffer) == 0
        assert server.history(user)[-2:] == [4, 5]

    def test_failed_flush_restores_events(self, tiny_dataset, trained_fism):
        # A failing observe_batch (shard failure under failure_policy="raise",
        # a propagating maintenance error) must put the micro-batch back so a
        # retrying caller loses nothing — the old code swapped the list out
        # first and silently dropped it.
        server = _fresh_server(tiny_dataset, trained_fism)
        user = tiny_dataset.evaluation_users()[0]
        buffer = EventBuffer(server, flush_size=10)
        buffer.push(user, 0)
        buffer.push(user, 1)

        original = server.observe_batch

        def explode(events, request_starts=None):
            raise RuntimeError("all shards down")

        server.observe_batch = explode
        with pytest.raises(RuntimeError, match="all shards down"):
            buffer.flush()
        # nothing lost, order preserved, later pushes queue *behind* the
        # restored batch
        assert buffer.pending == [(user, 0), (user, 1)]
        buffer.push(user, 2)
        assert buffer.pending == [(user, 0), (user, 1), (user, 2)]

        server.observe_batch = original
        breakdown = buffer.flush()
        assert breakdown is not None and breakdown.num_events == 3
        assert len(buffer) == 0
        assert server.history(user)[-3:] == [0, 1, 2]


class TestObserveBatchParity:
    def test_batch_matches_sequential_bit_exact(self, tiny_dataset, trained_fism):
        """A shuffled stream through EventBuffer == the same events one at a time."""

        sequential = _fresh_server(tiny_dataset, trained_fism)
        batched = _fresh_server(tiny_dataset, trained_fism)
        events = _event_stream(tiny_dataset)
        touched = sorted({user for user, _ in events})

        # both servers start from identical state (deterministic fit)
        for user in touched:
            assert sequential.recommend(user, k=10) == batched.recommend(user, k=10)

        for user, item in events:
            sequential.observe(user, item)
        with EventBuffer(batched, flush_size=7) as buffer:  # several partial flushes
            for user, item in events:
                buffer.push(user, item)

        for user in touched:
            assert sequential.history(user) == batched.history(user)
        assert np.array_equal(
            sequential.sccf.neighborhood._user_embeddings,
            batched.sccf.neighborhood._user_embeddings,
        )
        assert np.array_equal(
            sequential.sccf.neighborhood.index._normalized,
            batched.sccf.neighborhood.index._normalized,
        )
        for user in touched:
            assert sequential.recommend(user, k=10) == batched.recommend(user, k=10)

    def test_empty_batch_is_a_noop(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        assert server.observe_batch([]) is None
        assert len(server.latencies) == 0


class TestColdStartGrowth:
    def test_streamed_new_user_joins_neighborhood(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        neighborhood = server.sccf.neighborhood
        base_users = neighborhood.num_users
        other = tiny_dataset.evaluation_users()[1]
        new_user = tiny_dataset.num_users + 3  # non-contiguous id: gap users are zero-filled

        # Give the new user the exact history of `other`, event by event.
        for item in tiny_dataset.train.user_sequence(other):
            server.observe(new_user, item)

        assert neighborhood.num_users == new_user + 1
        assert neighborhood.index.size == new_user + 1
        assert neighborhood.recent_items(new_user)  # votes recent items to neighbors
        ids, sims = neighborhood.neighbors(
            neighborhood.user_embedding(other), exclude_user=other
        )
        assert new_user in ids  # retrievable as a neighbor after index growth
        # gap users (zero embeddings) never carry positive similarity, so they
        # can never vote items into anyone's candidates
        gap_users = set(range(base_users, new_user))
        positive = {int(i) for i, s in zip(ids, sims) if s > 0}
        assert not gap_users & positive

    def test_scoring_still_works_after_growth(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        other = tiny_dataset.evaluation_users()[1]
        new_user = tiny_dataset.num_users
        server.observe_batch(
            [(new_user, item) for item in tiny_dataset.train.user_sequence(other)]
        )
        # UU scoring with the grown pool (exercises the CSR overlay for new ids)
        scores = server.sccf.neighborhood.uu_scores(
            server.sccf.neighborhood.user_embedding(other), exclude_user=other
        )
        assert scores.shape == (tiny_dataset.num_items,)
        # the full serving path works for both old and new users
        assert isinstance(server.recommend(other, k=5), list)
        assert isinstance(server.recommend(new_user, k=5), list)

    def test_growth_capped_against_huge_ids(self, tiny_dataset, trained_fism):
        """A single malformed/hostile event must not allocate an unbounded block."""

        server = _fresh_server(tiny_dataset, trained_fism)
        neighborhood = server.sccf.neighborhood
        huge = neighborhood.num_users + neighborhood.max_user_growth
        with pytest.raises(ValueError):
            server.observe(huge, 0)
        assert server.history(huge) == []  # rejected before any state was touched
        with pytest.raises(ValueError):
            EventBuffer(server).push(huge, 0)
        with pytest.raises(ValueError):
            neighborhood.add_users([huge], trained_fism, [[0]])
        # just inside the cap is accepted
        server.observe(huge - 1, 0)
        assert neighborhood.num_users == huge

    def test_batch_mixing_new_and_known_users(self, tiny_dataset, trained_fism):
        server = _fresh_server(tiny_dataset, trained_fism)
        known = tiny_dataset.evaluation_users()[0]
        new_user = tiny_dataset.num_users + 1
        breakdown = server.observe_batch(
            [(known, 0), (new_user, 1), (known, 2), (new_user, 3)]
        )
        assert breakdown is not None and breakdown.num_events == 4
        assert server.history(known)[-2:] == [0, 2]
        assert server.history(new_user) == [1, 3]
        assert server.sccf.neighborhood.num_users == new_user + 1
