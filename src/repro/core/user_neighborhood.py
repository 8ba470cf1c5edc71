"""The SCCF user-based component (Section III-C of the paper).

Given the user representations produced by an inductive UI model, this
component:

1. identifies each user's neighborhood ``N_u`` — the β most similar users by
   cosine similarity of their embeddings (eq. 11), with ``u ∉ N_u``;
2. scores items by the similarity-weighted votes of those neighbors
   (eq. 12): ``r̂^UU_{ui} = Σ_{v ∈ N_u} δ_{vi} · sim(u, v)``, where ``δ_{vi}``
   indicates that neighbor ``v`` recently interacted with item ``i``.

The paper's deployment recommends "each user's latest 15 items to her/his
similar users", so neighbor votes come from a recency window rather than the
full profile; the window is configurable.

No parameters are learned here — the component is a pure function of the UI
model's embeddings, which is what makes it a drop-in, real-time plugin.

Implementation: the recent-items table is kept both as per-user lists (the
mutable source of truth for real-time updates) and as a CSR-style pair of
``(indptr, indices)`` arrays over users, with real-time updates overlaid on
it.  :meth:`score_for_users` identifies a whole window's neighborhoods with
one ``search_batch`` call, and eq. 12 for the window is one flat gather of
every neighbor's recent items plus one ``bincount`` over
``row · num_items + item`` — a sparse-matrix product with no per-user loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..ann import (
    BruteForceIndex,
    NeighborIndex,
    ShardedIndex,
    search_batch,
    update_batch,
)
from ..data.datasets import RecDataset
from ..data.sequences import recent_window
from ..models.base import InductiveUIModel, history_coordinates
from .cache import ServingCache, history_fingerprint, serve_batch

__all__ = ["UserNeighborhoodComponent"]


def _gather_slices(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[j]:starts[j]+counts[j]]`` without a Python loop."""

    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    block_ends = np.cumsum(counts)
    offsets = np.arange(total) - np.repeat(block_ends - counts, counts)
    return values[np.repeat(starts, counts) + offsets]


class UserNeighborhoodComponent:
    """Real-time user-neighborhood scoring on top of an inductive UI model.

    Parameters
    ----------
    num_neighbors:
        Neighborhood size β (the paper sweeps {50, 100, 200}; 100 is the
        default best value).
    recency_window:
        How many of each neighbor's most recent items are eligible to be
        recommended to similar users (15 in the paper's deployment).
    index:
        A neighbor-search index implementing :class:`repro.ann.NeighborIndex`.
        Defaults to exact cosine search; pass an
        :class:`~repro.ann.ivf.IVFIndex` for the approximate variant.  Takes
        precedence over ``index_factory``/``num_shards``.
    index_factory:
        Zero-argument callable producing a fresh backend index.  With
        ``num_shards == 1`` it builds the index itself; with
        ``num_shards > 1`` it builds each shard of a
        :class:`~repro.ann.sharded.ShardedIndex`.
    num_shards:
        Partition the user index across this many scatter-gather shards of a
        :class:`~repro.ann.sharded.ShardedIndex`, searched from a thread pool
        with one thread per shard.  ``1`` (default) keeps the single-index
        layout.
    failure_policy:
        Forwarded to the sharded index (only consulted when
        ``num_shards > 1``): ``"raise"`` propagates shard failures,
        ``"degrade"`` serves neighborhoods from the surviving shards —
        degraded neighborhoods are never written to the serving cache.
    max_user_growth:
        Upper bound on how many rows a single :meth:`add_users` call may
        append (streamed ids are dense, so growth is backed by a dense zero
        block — an unboundedly large id would otherwise allocate unboundedly
        much memory from one malformed event).
    """

    def __init__(
        self,
        num_neighbors: int = 100,
        recency_window: int = 15,
        index: Optional[NeighborIndex] = None,
        max_user_growth: int = 10_000,
        index_factory: Optional[Callable[[], NeighborIndex]] = None,
        num_shards: int = 1,
        failure_policy: str = "raise",
    ) -> None:
        if num_neighbors <= 0:
            raise ValueError("num_neighbors must be positive")
        if recency_window <= 0:
            raise ValueError("recency_window must be positive")
        if max_user_growth <= 0:
            raise ValueError("max_user_growth must be positive")
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if failure_policy not in ("raise", "degrade"):
            raise ValueError("failure_policy must be 'raise' or 'degrade'")
        self.num_neighbors = num_neighbors
        self.recency_window = recency_window
        self.max_user_growth = max_user_growth
        if index is not None:
            self.index: NeighborIndex = index
        elif num_shards > 1:
            self.index = ShardedIndex(
                num_shards=num_shards,
                shard_factory=index_factory,
                num_threads=num_shards,
                failure_policy=failure_policy,
            )
        elif index_factory is not None:
            self.index = index_factory()
        else:
            self.index = BruteForceIndex(metric="cosine")
        self.num_users: int = 0
        self.num_items: int = 0
        self._user_embeddings: Optional[np.ndarray] = None
        self._recent_items: Dict[int, List[int]] = {}
        self._recent_indptr: Optional[np.ndarray] = None
        self._recent_indices: Optional[np.ndarray] = None
        self._recent_dirty = True
        # Users whose recent list changed since the last full CSR build; their
        # rows are overlaid at scoring time so a real-time update stream never
        # pays an O(num_users) rebuild per event.
        self._recent_overrides: Dict[int, np.ndarray] = {}
        # (starts, counts, values) per user over the CSR with the overrides
        # folded in; rebuilt lazily after any recent-items change.
        self._recent_slices: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # Per-user embedding version counters: bumped by update_users/add_users
        # (and therefore by every RealTimeServer.observe), so serving caches
        # can validate anything derived from a user's state in O(1).
        self._user_versions: Dict[int, int] = {}
        # Active mutation journal for a blue-green shadow retrain: while set,
        # every index mutation is recorded so the maintenance path can replay
        # it onto the shadow before the publish swap.  Bounded by the shadow
        # build's duration — begin/end bracket one maintenance pass.
        self._mutation_journal: Optional[List[Tuple[str, np.ndarray, Optional[np.ndarray]]]] = None
        #: optional :class:`~repro.core.cache.ServingCache`; when set (SCCF
        #: attaches its own), :meth:`score_for_users` serves repeat
        #: neighborhoods from the cache's ``neighbors`` layer.
        self.cache: Optional[ServingCache] = None
        self._fitted = False

    # ------------------------------------------------------------------ #
    # fitting = embedding every user and indexing the embeddings
    # ------------------------------------------------------------------ #
    def fit(
        self,
        ui_model: InductiveUIModel,
        dataset: RecDataset,
        histories: Optional[Dict[int, Sequence[int]]] = None,
    ) -> "UserNeighborhoodComponent":
        """Index user embeddings inferred by ``ui_model`` from ``dataset``'s histories.

        ``histories`` optionally overrides the training histories (e.g. with
        validation items merged back in for final test-time evaluation).
        Embedding inference runs through the model's batched forward
        (``infer_user_embeddings_batch``) — one vectorized pass over all
        users instead of ``num_users`` single-history calls.
        """

        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        base_histories = dataset.train.user_sequences()
        if histories is not None:
            for user, sequence in histories.items():
                base_histories[user] = list(sequence)

        sequences = [list(base_histories.get(user, [])) for user in range(self.num_users)]
        embeddings = np.asarray(ui_model.infer_user_embeddings_batch(sequences), dtype=np.float64)
        self._recent_items = {
            user: recent_window(sequence, self.recency_window) if sequence else []
            for user, sequence in enumerate(sequences)
        }
        self._recent_dirty = True
        self._user_embeddings = embeddings
        self.index.build(embeddings)
        # A re-fit changes every user's embedding under reset version
        # counters, so any attached cache must start empty.
        self._user_versions = {}
        if self.cache is not None:
            self.cache.clear()
        self._fitted = True
        return self

    def user_version(self, user_id: int) -> int:
        """Monotonic per-user mutation counter (0 until the user is first updated).

        Bumped by :meth:`update_users` / :meth:`add_users`; cache entries
        derived from a user's history or embedding are validated against it.
        """

        return self._user_versions.get(int(user_id), 0)

    def _bump_versions(self, user_ids: Sequence[int]) -> None:
        for user in user_ids:
            self._user_versions[user] = self._user_versions.get(user, 0) + 1

    def _require_fitted(self) -> None:
        if not self._fitted or self._user_embeddings is None:
            raise RuntimeError("UserNeighborhoodComponent has not been fitted")

    def _ensure_recent_csr(self) -> None:
        """(Re)build the CSR view of the recent-items table when stale.

        Single-user updates do not mark the table stale — they land in
        ``_recent_overrides`` (consulted at scoring time) until enough of them
        accumulate to be worth folding into a fresh CSR build.
        """

        if not self._recent_dirty and self._recent_indptr is not None:
            return
        counts = np.zeros(self.num_users, dtype=np.int64)
        chunks: List[List[int]] = []
        for user in range(self.num_users):
            items = [
                item for item in self._recent_items.get(user, []) if 0 <= item < self.num_items
            ]
            counts[user] = len(items)
            if items:
                chunks.append(items)
        self._recent_indptr = np.zeros(self.num_users + 1, dtype=np.int64)
        np.cumsum(counts, out=self._recent_indptr[1:])
        self._recent_indices = (
            np.concatenate([np.asarray(chunk, dtype=np.int64) for chunk in chunks])
            if chunks
            else np.empty(0, dtype=np.int64)
        )
        self._recent_overrides = {}
        self._recent_slices = None
        self._recent_dirty = False

    def _recent_item_slices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, counts, values)``: user ``u``'s recent items are
        ``values[starts[u]:starts[u] + counts[u]]``, overrides included.

        The overrides are appended after the CSR values and their users'
        slices point there, so eq. 12 never branches on them.
        """

        self._ensure_recent_csr()
        if self._recent_slices is None:
            indptr = self._recent_indptr
            built = len(indptr) - 1
            starts = np.zeros(self.num_users, dtype=np.int64)
            counts = np.zeros(self.num_users, dtype=np.int64)
            starts[:built] = indptr[:-1]
            counts[:built] = np.diff(indptr)
            values = self._recent_indices
            if self._recent_overrides:
                users = np.fromiter(self._recent_overrides, dtype=np.int64)
                chunks = list(self._recent_overrides.values())
                sizes = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks))
                starts[users] = len(values) + np.cumsum(sizes) - sizes
                counts[users] = sizes
                values = np.concatenate([values, *chunks])
            self._recent_slices = (starts, counts, values)
        return self._recent_slices

    # ------------------------------------------------------------------ #
    # neighborhood identification (eq. 11)
    # ------------------------------------------------------------------ #
    def neighbors(
        self,
        user_embedding: np.ndarray,
        exclude_user: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, similarities)`` ordered by descending similarity."""

        self._require_fitted()
        exclude = np.asarray([exclude_user], dtype=np.int64) if exclude_user is not None else None
        ids, similarities = self.index.search(
            np.asarray(user_embedding, dtype=np.float64),
            k=self.num_neighbors,
            exclude=exclude,
        )
        return ids, similarities

    # ------------------------------------------------------------------ #
    # local scoring (eq. 12)
    # ------------------------------------------------------------------ #
    def _votes(self, neighborhoods: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Eq. (12) for a window: ``(B, num_items)`` similarity-weighted votes.

        Every positive-similarity neighbor of every row contributes its
        recent items through one flat gather, and one ``bincount`` over
        ``row · num_items + item`` sums the votes of the whole window.
        """

        starts, counts, values = self._recent_item_slices()
        num_rows = len(neighborhoods)
        sizes = [len(ids) for ids, _ in neighborhoods]
        if not num_rows or not sum(sizes):
            return np.zeros((num_rows, self.num_items), dtype=np.float64)
        neighbor_ids = np.concatenate([ids for ids, _ in neighborhoods]).astype(np.int64, copy=False)
        weights = np.concatenate([sims for _, sims in neighborhoods]).astype(np.float64, copy=False)
        rows = np.repeat(np.arange(num_rows), sizes)
        positive = weights > 0
        neighbor_ids, weights, rows = neighbor_ids[positive], weights[positive], rows[positive]
        counts = counts[neighbor_ids]
        items = _gather_slices(values, starts[neighbor_ids], counts)
        cells = np.repeat(rows * self.num_items, counts) + items
        return np.bincount(
            cells, weights=np.repeat(weights, counts), minlength=num_rows * self.num_items
        ).reshape(num_rows, self.num_items)

    def _zero_excluded(
        self, scores: np.ndarray, exclude_items: Sequence[Optional[Sequence[int]]]
    ) -> np.ndarray:
        """Zero each row's excluded items (ids outside the catalog are ignored)."""

        rows, items = history_coordinates([() if items is None else items for items in exclude_items])
        inside = (items >= 0) & (items < scores.shape[1])
        scores[rows[inside], items[inside]] = 0.0
        return scores

    def uu_scores(
        self,
        user_embedding: np.ndarray,
        exclude_user: Optional[int] = None,
        exclude_items: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Similarity-weighted neighbor votes for every item in the catalog."""

        self._require_fitted()
        scores = self._votes([self.neighbors(user_embedding, exclude_user)])
        exclusions = None if exclude_items is None else list(exclude_items)
        return self._zero_excluded(scores, [exclusions])[0]

    def score_for_user(
        self,
        user_id: int,
        user_embedding: np.ndarray,
        history: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """eq. (12) with the paper's convention of never re-recommending ``R⁺_u``."""

        embedding = np.asarray(user_embedding, dtype=np.float64)[None, :]
        return self.score_for_users([user_id], user_embeddings=embedding, histories=[history])[0]

    def score_for_users(
        self,
        user_ids: Sequence[int],
        user_embeddings: Optional[np.ndarray] = None,
        histories: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> np.ndarray:
        """Batched :meth:`score_for_user`; returns ``(B, num_items)``.

        Neighborhoods for the whole batch come from one ``search_batch`` call
        (a single query-matrix matmul on the default brute-force index), and
        eq. (12) for the whole batch is one gather + ``bincount``.
        ``user_embeddings`` defaults to the fitted embeddings of
        ``user_ids``; ``histories`` optionally overrides the per-user
        exclusion lists exactly like the ``history`` argument of
        :meth:`score_for_user`.
        """

        self._require_fitted()
        user_ids = [int(user) for user in user_ids]
        if histories is not None and len(histories) != len(user_ids):
            raise ValueError("histories must have one entry per user id")
        explicit_embeddings = user_embeddings is not None
        if user_embeddings is None:
            for user in user_ids:
                if not 0 <= user < self.num_users:
                    raise ValueError("user_id out of range")
            user_embeddings = self._user_embeddings[np.asarray(user_ids, dtype=np.int64)]
        else:
            user_embeddings = np.asarray(user_embeddings, dtype=np.float64)
            if user_embeddings.shape[0] != len(user_ids):
                raise ValueError("user_embeddings must have one row per user id")

        neighborhoods = self._batch_neighborhoods(
            user_ids, user_embeddings, histories, explicit_embeddings
        )
        exclusions = [
            histories[row]
            if histories is not None and histories[row] is not None
            else self._recent_items.get(user, [])
            for row, user in enumerate(user_ids)
        ]
        return self._zero_excluded(self._votes(neighborhoods), exclusions)

    def _batch_neighborhoods(
        self,
        user_ids: Sequence[int],
        user_embeddings: np.ndarray,
        histories: Optional[Sequence[Optional[Sequence[int]]]],
        explicit_embeddings: bool = False,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-user ``(neighbor_ids, similarities)`` with cache-aware batching.

        Without a cache this is one ``search_batch`` over the whole batch.
        With one, each user's stored result is keyed on the inputs the
        version counters cannot see — the history fingerprint and, when the
        caller supplied the query embeddings explicitly
        (``explicit_embeddings``), a hash of her query row — and validated
        against ``(user_version, index_epoch)``: any index mutation anywhere
        bumps the epoch and invalidates it.  Only the remaining rows pay the
        batched search.  Indexes without an ``epoch`` counter (third-party
        backends) disable this layer; results are then always recomputed.
        """

        epoch = getattr(self.index, "epoch", None)
        cache_layer = self.cache.neighbors if self.cache is not None and epoch is not None else None
        keys: List[Optional[Tuple]] = [None] * len(user_ids)
        tokens: List[Optional[Tuple]] = [None] * len(user_ids)
        if cache_layer is not None:  # keep the uncached path free of hashing
            for row, user in enumerate(user_ids):
                history = histories[row] if histories is not None else None
                query_key = (
                    hash(np.ascontiguousarray(user_embeddings[row]).tobytes())
                    if explicit_embeddings
                    else None
                )
                keys[row] = (user, history_fingerprint(history), query_key)
                tokens[row] = (self.user_version(user), epoch)

        def compute(missing: List[int]) -> List[Tuple[np.ndarray, np.ndarray]]:
            rows = np.asarray(missing, dtype=np.int64)
            exclusions = [np.asarray([user_ids[row]], dtype=np.int64) for row in missing]
            return search_batch(
                self.index, user_embeddings[rows], self.num_neighbors, exclude_per_query=exclusions
            )

        # Neighborhoods computed while the index was serving degraded (a
        # shard down under failure_policy="degrade") must be served but not
        # memoized: the epoch does not move when the shard heals, so a cached
        # survivors-only neighborhood would outlive the outage.
        degraded_before = getattr(self.index, "degraded_requests", 0)
        cacheable = lambda: (
            getattr(self.index, "degraded_requests", 0) == degraded_before
        )
        return serve_batch(cache_layer, keys, tokens, compute, cacheable=cacheable)

    # ------------------------------------------------------------------ #
    # real-time maintenance
    # ------------------------------------------------------------------ #
    def update_user(
        self,
        user_id: int,
        ui_model: InductiveUIModel,
        history: Sequence[int],
    ) -> np.ndarray:
        """Re-infer a user's embedding from a fresh history and refresh the index.

        Returns the new embedding.  This is the "infer user representations on
        the fly" step that distinguishes SCCF from transductive user-based
        methods: cost is one UI forward pass plus an index row update.  This
        is :meth:`update_users` with a batch of one, so the streaming and
        per-event maintenance paths cannot drift.
        """

        return self.update_users([user_id], ui_model, [history])[0]

    def update_users(
        self,
        user_ids: Sequence[int],
        ui_model: InductiveUIModel,
        histories: Sequence[Sequence[int]],
        embeddings: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched :meth:`update_user`: refresh many users' embeddings at once.

        One ``infer_user_embeddings_batch`` forward (skipped when the caller
        passes precomputed ``embeddings``), one batched index row replacement,
        and a bulk recent-item overlay.  Returns the ``(U, dim)`` embeddings.
        With duplicate user ids the last entry wins.
        """

        self._require_fitted()
        user_ids = [int(user) for user in user_ids]
        if len(histories) != len(user_ids):
            raise ValueError("histories must have one entry per user id")
        for user in user_ids:
            if not 0 <= user < self.num_users:
                raise ValueError("user_id out of range")
        embeddings = self._resolve_embeddings(user_ids, ui_model, histories, embeddings)
        if not user_ids:
            return embeddings
        positions = np.asarray(user_ids, dtype=np.int64)
        self._user_embeddings[positions] = embeddings
        update_batch(self.index, positions, embeddings)
        if self._mutation_journal is not None:
            self._mutation_journal.append(
                ("update", positions.copy(), np.array(embeddings, dtype=np.float64, copy=True))
            )
        self._set_recent_items(user_ids, histories)
        self._bump_versions(user_ids)
        return embeddings

    def add_users(
        self,
        user_ids: Sequence[int],
        ui_model: InductiveUIModel,
        histories: Sequence[Sequence[int]],
        embeddings: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Grow the neighborhood pool with users beyond the fitted id range.

        Cold-start users streamed in at serve time join the index instead of
        being silently excluded: the embedding matrix and the index are
        extended so the new users can serve as other users' neighbors.  Ids
        must be ``>= num_users``; gaps between ``num_users`` and the largest
        added id are filled with zero embeddings (an all-zero row has cosine
        similarity 0 with everything, so gap users are never voted neighbors),
        which assumes streamed ids stay reasonably dense.
        """

        self._require_fitted()
        user_ids = [int(user) for user in user_ids]
        if len(histories) != len(user_ids):
            raise ValueError("histories must have one entry per user id")
        for user in user_ids:
            if user < self.num_users:
                raise ValueError("add_users takes ids >= num_users; use update_users")
            if user >= self.num_users + self.max_user_growth:
                raise ValueError(
                    "user_id too far beyond the fitted range "
                    f"(growth capped at {self.max_user_growth} rows per call)"
                )
        embeddings = self._resolve_embeddings(user_ids, ui_model, histories, embeddings)
        if not user_ids:
            return embeddings
        dim = self._user_embeddings.shape[1]
        block = np.zeros((max(user_ids) + 1 - self.num_users, dim), dtype=np.float64)
        for row, user in enumerate(user_ids):
            block[user - self.num_users] = embeddings[row]
        self._user_embeddings = np.concatenate([self._user_embeddings, block])
        if hasattr(self.index, "add"):
            self.index.add(block)
            if self._mutation_journal is not None:
                self._mutation_journal.append(("add", block.copy(), None))
        else:
            # Third-party index without a grow path: rebuild from scratch.
            self.index.build(self._user_embeddings)
            if self._mutation_journal is not None:
                self._mutation_journal.append(("build", self._user_embeddings.copy(), None))
        self.num_users = len(self._user_embeddings)
        self._set_recent_items(user_ids, histories)
        self._bump_versions(user_ids)
        return embeddings

    def _resolve_embeddings(
        self,
        user_ids: Sequence[int],
        ui_model: InductiveUIModel,
        histories: Sequence[Sequence[int]],
        embeddings: Optional[np.ndarray],
    ) -> np.ndarray:
        dim = self._user_embeddings.shape[1]
        if embeddings is None:
            if not user_ids:
                return np.zeros((0, dim), dtype=np.float64)
            return np.asarray(
                ui_model.infer_user_embeddings_batch([list(history) for history in histories]),
                dtype=np.float64,
            )
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.shape != (len(user_ids), dim):
            raise ValueError("embeddings must have one row of width dim per user id")
        return embeddings

    def _set_recent_items(self, user_ids: Sequence[int], histories: Sequence[Sequence[int]]) -> None:
        """Refresh the recent-items table for a batch of users.

        Rows land in ``_recent_overrides`` (consulted at scoring time) instead
        of invalidating the whole CSR; the overlays are folded into a full
        rebuild only once they pile up — same policy as the original
        single-user path, applied per user in order.
        """

        self._recent_slices = None
        for user, history in zip(user_ids, histories):
            recent = recent_window(list(history), self.recency_window)
            self._recent_items[user] = recent
            if not self._recent_dirty:
                self._recent_overrides[user] = np.asarray(
                    [item for item in recent if 0 <= item < self.num_items], dtype=np.int64
                )
                if len(self._recent_overrides) > max(64, self.num_users // 20):
                    self._recent_dirty = True

    # ------------------------------------------------------------------ #
    # blue-green maintenance: mutation journal + snapshot persistence
    # ------------------------------------------------------------------ #
    def begin_index_journal(self) -> None:
        """Start recording index mutations (one shadow build at a time)."""

        if self._mutation_journal is not None:
            raise RuntimeError("an index mutation journal is already active")
        self._mutation_journal = []

    @property
    def index_journal_active(self) -> bool:
        return self._mutation_journal is not None

    def end_index_journal(self) -> List[Tuple[str, np.ndarray, Optional[np.ndarray]]]:
        """Stop recording and hand the journal to the caller for replay."""

        if self._mutation_journal is None:
            raise RuntimeError("no index mutation journal is active")
        journal, self._mutation_journal = self._mutation_journal, None
        return journal

    @staticmethod
    def replay_index_journal(
        journal: List[Tuple[str, np.ndarray, Optional[np.ndarray]]],
        index: NeighborIndex,
    ) -> int:
        """Apply journaled mutations to ``index`` in arrival order.

        Entries carry the exact payloads the live index received, so after
        replay the shadow has seen the same mutation stream — the foundation
        of the publish-is-bit-identical contract.  Returns the entry count.
        """

        for op, payload, extra in journal:
            if op == "update":
                update_batch(index, payload, extra)
            elif op == "add":
                index.add(payload)
            elif op == "build":
                index.build(payload)
            else:  # pragma: no cover — journal writers emit only these ops
                raise ValueError(f"unknown journal op {op!r}")
        return len(journal)

    def snapshot_state(self) -> Dict[str, object]:
        """Serializable state tree for :mod:`repro.core.snapshot`.

        Recent-item lists and version counters are packed into flat arrays
        (users / offsets / values) so the snapshot stays JSON + ``.npy``.
        """

        self._require_fitted()
        recent_users = sorted(self._recent_items)
        recent_offsets = np.zeros(len(recent_users) + 1, dtype=np.int64)
        chunks: List[np.ndarray] = []
        for row, user in enumerate(recent_users):
            items = np.asarray(self._recent_items[user], dtype=np.int64)
            recent_offsets[row + 1] = recent_offsets[row] + len(items)
            chunks.append(items)
        recent_values = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        version_users = sorted(self._user_versions)
        return {
            "meta": {
                "num_neighbors": self.num_neighbors,
                "recency_window": self.recency_window,
                "max_user_growth": self.max_user_growth,
                "num_users": self.num_users,
                "num_items": self.num_items,
            },
            "arrays": {
                "user_embeddings": self._user_embeddings,
                "recent_users": np.asarray(recent_users, dtype=np.int64),
                "recent_offsets": recent_offsets,
                "recent_values": recent_values,
                "version_users": np.asarray(version_users, dtype=np.int64),
                "version_values": np.asarray(
                    [self._user_versions[user] for user in version_users], dtype=np.int64
                ),
            },
            "index": self.index.snapshot_state(),
        }

    def restore_snapshot_state(self, state: Dict[str, object]) -> None:
        """Overwrite this component's fitted state from a snapshot tree.

        The construction-time knobs (shard layout) stay whatever this
        instance was built with; the *data* — embeddings, recent items,
        version counters, and the index itself — comes back exactly as
        saved.  The previous index is closed after the swap.
        """

        from ..ann import restore_index

        meta = state["meta"]
        arrays = state["arrays"]
        self.num_neighbors = int(meta["num_neighbors"])
        self.recency_window = int(meta["recency_window"])
        self.max_user_growth = int(meta["max_user_growth"])
        self.num_users = int(meta["num_users"])
        self.num_items = int(meta["num_items"])
        self._user_embeddings = np.asarray(
            arrays["user_embeddings"], dtype=np.float64
        ).copy()
        recent_users = np.asarray(arrays["recent_users"], dtype=np.int64)
        recent_offsets = np.asarray(arrays["recent_offsets"], dtype=np.int64)
        recent_values = np.asarray(arrays["recent_values"], dtype=np.int64)
        self._recent_items = {
            int(user): recent_values[recent_offsets[row] : recent_offsets[row + 1]].tolist()
            for row, user in enumerate(recent_users)
        }
        self._recent_indptr = None
        self._recent_indices = None
        self._recent_dirty = True
        self._recent_overrides = {}
        self._recent_slices = None
        self._user_versions = {
            int(user): int(version)
            for user, version in zip(arrays["version_users"], arrays["version_values"])
        }
        old_index = self.index
        self.index = restore_index(state["index"])
        if old_index is not None and old_index is not self.index:
            closer = getattr(old_index, "close", None)
            if closer is not None:
                closer()
        self._fitted = True

    def user_embedding(self, user_id: int) -> np.ndarray:
        self._require_fitted()
        if not 0 <= user_id < self.num_users:
            raise ValueError("user_id out of range")
        return self._user_embeddings[user_id].copy()

    def recent_items(self, user_id: int) -> List[int]:
        """Items this user currently contributes to her neighbors' candidates."""

        return list(self._recent_items.get(user_id, []))

    def close(self) -> None:
        """Release the index's shard thread pool, if it has one.

        Part of the lifecycle cascade: ``RealTimeServer.close()`` →
        ``SCCF.close()`` → here → ``index.close()``.  Safe on indexes with no
        close surface (brute force, IVF) and idempotent on the rest.
        """

        closer = getattr(self.index, "close", None)
        if closer is not None:
            closer()
