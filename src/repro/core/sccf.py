"""The SCCF framework: Self-Complementary Collaborative Filtering.

This is the paper's primary contribution (Section III, Figure 2).  SCCF wraps
any *inductive* UI model and complements it with local information from the
user's neighborhood:

1. **UI component** — the wrapped model produces user/item embeddings and the
   global candidate list ``C^u_UI`` ranked by ``r̂^UI_{ui} = m_uᵀ q_i``.
2. **User-based component** — neighbors identified by cosine similarity of the
   inferred user embeddings vote for their recent items, producing the local
   candidate list ``C^u_UU`` ranked by ``r̂^UU`` (eqs. 11-12); no extra
   parameters are introduced.
3. **Integrating component** — a small MLP fuses ``[m_u ⊕ q_i ⊕ r̃^UI ⊕ r̃^UU]``
   into the final score over the union of the two candidate lists
   (eqs. 15-17).

Three scoring modes are exposed because the paper evaluates all three columns
per base model in Table II: ``"ui"`` (the base model alone), ``"uu"`` (the
user-based component alone, e.g. FISM_UU), and ``"sccf"`` (the full fused
framework, e.g. FISM_SCCF).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ann import NeighborIndex
from ..data.datasets import RecDataset
from ..models.base import InductiveUIModel, Recommender, exclude_seen_items, exclude_seen_rows
from .cache import CacheStats, ServingCache, history_fingerprint, serve_batch
from .merger import CandidateFeatures, IntegratingMLP
from .user_neighborhood import UserNeighborhoodComponent

__all__ = ["SCCFConfig", "SCCF"]

_NEG_INF = -1e12

#: users per candidate build when collecting the merger's training examples
_FIT_WINDOW = 256


@dataclass(frozen=True)
class SCCFConfig:
    """Hyper-parameters of the SCCF framework.

    ``candidate_list_size`` is N, the length of each of the two candidate
    lists handed to the integrating component; the online deployment uses 500,
    offline evaluation needs at least the largest k reported (100).
    ``num_shards > 1`` partitions the user-neighbor index across that many
    scatter-gather shards searched from a thread pool (bit-identical
    results, lower per-shard load).
    ``cache_capacity > 0`` attaches a versioned
    :class:`~repro.core.cache.ServingCache` of that per-layer capacity, so
    repeat requests skip recomputing embeddings, neighbor lists and fused
    scores whose version/epoch counters are unchanged.
    ``failure_policy`` governs what the sharded neighbor index does when a
    shard cannot answer: ``"raise"`` propagates the failure, ``"degrade"``
    serves from the surviving shards (partial answers are never cached — the
    stack snapshots the index's ``degraded_requests`` counter around every
    compute to keep them out of the serving cache).
    """

    num_neighbors: int = 100
    candidate_list_size: int = 100
    recency_window: int = 15
    merger_hidden_dims: Tuple[int, ...] = (64, 32)
    merger_epochs: int = 80
    merger_learning_rate: float = 0.003
    merger_batch_size: int = 256
    num_shards: int = 1
    failure_policy: str = "raise"
    cache_capacity: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_neighbors <= 0:
            raise ValueError("num_neighbors must be positive")
        if self.candidate_list_size <= 0:
            raise ValueError("candidate_list_size must be positive")
        if self.recency_window <= 0:
            raise ValueError("recency_window must be positive")
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.failure_policy not in ("raise", "degrade"):
            raise ValueError("failure_policy must be 'raise' or 'degrade'")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative (0 disables the cache)")


class SCCF(Recommender):
    """Self-Complementary Collaborative Filtering on top of an inductive UI model."""

    def __init__(
        self,
        ui_model: InductiveUIModel,
        config: Optional[SCCFConfig] = None,
        neighbor_index: Optional[NeighborIndex] = None,
        cache: Optional[ServingCache] = None,
    ) -> None:
        if not isinstance(ui_model, InductiveUIModel):
            raise TypeError("SCCF requires an inductive UI model (FISM, SASRec, YouTubeDNN, ...)")
        self.ui_model = ui_model
        self.config = config or SCCFConfig()
        if neighbor_index is not None and self.config.num_shards > 1:
            raise ValueError(
                "pass either an explicit neighbor_index or num_shards > 1, not both "
                "(an explicit index would silently serve unsharded)"
            )
        self.neighborhood = UserNeighborhoodComponent(
            num_neighbors=self.config.num_neighbors,
            recency_window=self.config.recency_window,
            index=neighbor_index,
            num_shards=self.config.num_shards,
            failure_policy=self.config.failure_policy,
        )
        if cache is None and self.config.cache_capacity > 0:
            cache = ServingCache(self.config.cache_capacity)
        #: the versioned serving cache shared by the scoring stack (or None)
        self.cache: Optional[ServingCache] = None
        self.attach_cache(cache)
        self.merger: Optional[IntegratingMLP] = None
        self.mode: str = "sccf"
        self._user_histories: Dict[int, List[int]] = {}
        self._fitted = False

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, dataset: RecDataset, fit_ui_model: bool = True) -> "SCCF":
        """Fit the whole pipeline.

        ``fit_ui_model=False`` lets callers reuse an already-trained UI model
        (SCCF is "a post-processing plugin to any inductive UI models"), in
        which case only the neighborhood index and the integrating MLP are
        built.
        """

        if fit_ui_model:
            self.ui_model.fit(dataset)
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        self._user_histories = dataset.train.user_sequences()

        self.neighborhood.fit(self.ui_model, dataset)
        self.merger = IntegratingMLP(
            embedding_dim=self.ui_model.embedding_dim,
            hidden_dims=self.config.merger_hidden_dims,
            num_epochs=self.config.merger_epochs,
            learning_rate=self.config.merger_learning_rate,
            batch_size=self.config.merger_batch_size,
            seed=self.config.seed,
        )
        self._train_merger(dataset)
        self._fitted = True
        return self

    def _train_merger(self, dataset: RecDataset) -> None:
        """Train the integrating MLP with each user's validation item as the label.

        Per Section IV-A4: "To train the integrating model, we utilize each
        user's item just before the last as the training label" — i.e. the
        validation item, predicted from the training-only history.  Examples
        come from the serving path's candidate build, run over windows of
        ``_FIT_WINDOW`` users so the padded intermediates stay small.
        """

        users: List[int] = []
        targets: List[int] = []
        histories: List[List[int]] = []
        for user, target in dataset.validation_items.items():
            history = self._user_histories.get(user, [])
            if not history:
                continue
            users.append(user)
            targets.append(target)
            histories.append(list(history))
        item_embeddings = self.ui_model.item_embeddings()
        examples: List[Tuple[CandidateFeatures, int]] = []
        for start in range(0, len(users), _FIT_WINDOW):
            window = slice(start, start + _FIT_WINDOW)
            features = self._candidate_features_batch(
                users[window], histories[window], item_embeddings=item_embeddings
            )
            if features is None:
                continue
            examples.extend(
                (user_features, target)
                for user_features, target in zip(features.split(), targets[window])
                if user_features is not None
            )
        self.merger.fit(examples)

    # ------------------------------------------------------------------ #
    # candidate construction shared by training and serving
    # ------------------------------------------------------------------ #
    def _candidate_features(
        self,
        user_id: int,
        history: Sequence[int],
        item_embeddings: Optional[np.ndarray] = None,
    ) -> Optional[CandidateFeatures]:
        return self._candidate_features_batch(
            [user_id], [list(history)], item_embeddings=item_embeddings
        )

    def _candidate_features_batch(
        self,
        user_ids: Sequence[int],
        histories: Sequence[Sequence[int]],
        item_embeddings: Optional[np.ndarray] = None,
        user_embeddings: Optional[np.ndarray] = None,
    ) -> Optional[CandidateFeatures]:
        """Candidate construction (eqs. 14 and 16) for a window of users.

        UI scores come from one ``(B×d)·(d×num_items)`` matmul, UU scores from
        one :meth:`UserNeighborhoodComponent.score_for_users` call, the eq. 14
        union from :meth:`_merge_candidates_batch` as a padded candidate
        matrix with a validity mask, and the eq. 16 features of every valid
        candidate from one ``build_features`` call.  ``None`` when no user of
        the window has a candidate.
        """

        if item_embeddings is None:
            item_embeddings = self.ui_model.item_embeddings()
        if user_embeddings is None:
            user_embeddings = self.ui_model.infer_user_embeddings_batch(histories)
        ui_matrix = user_embeddings @ item_embeddings.T
        uu_matrix = self.neighborhood.score_for_users(
            user_ids, user_embeddings=user_embeddings, histories=histories
        )
        candidates, valid = self._merge_candidates_batch(ui_matrix, uu_matrix, histories)
        if not valid.any():
            return None
        return self.merger.build_features(
            user_id=user_ids,
            user_embedding=user_embeddings,
            item_embeddings=item_embeddings,
            candidate_items=candidates,
            ui_scores=ui_matrix,
            uu_scores=uu_matrix,
            valid=valid,
        )

    def _merge_candidates(
        self,
        ui_scores: np.ndarray,
        uu_scores: np.ndarray,
        history: Sequence[int],
    ) -> np.ndarray:
        """One user's eq. 14 union: :meth:`_merge_candidates_batch` for a batch of one."""

        candidates, valid = self._merge_candidates_batch(
            np.asarray(ui_scores)[None, :], np.asarray(uu_scores)[None, :], [history]
        )
        return candidates[0][valid[0]]

    def _merge_candidates_batch(
        self,
        ui_matrix: np.ndarray,
        uu_matrix: np.ndarray,
        histories: Sequence[Sequence[int]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """C^u_I = C^u_UI ∪ C^u_UU (eq. 14) for a window, excluding seen items.

        Returns a padded ``(B, 2N)`` candidate-id matrix and its validity
        mask.  Columns ``[0, N)`` hold each row's UI top-N, ``[N, 2N)`` its UU
        top-N; masked out are non-finite scores, non-positive UU votes and UU
        candidates already in the row's UI list.  A row's valid ids, in
        column order, are its union: UI candidates first, then the UU
        candidates not already present.
        """

        size = min(self.config.candidate_list_size, self.num_items)
        ui_top, ui_valid = self._top_k_rows(exclude_seen_rows(ui_matrix, histories), size)
        uu_top, uu_valid = self._top_k_rows(
            exclude_seen_rows(uu_matrix, histories), size, positive_only=True
        )
        in_ui = np.zeros(ui_matrix.shape, dtype=bool)
        in_ui[np.nonzero(ui_valid)[0], ui_top[ui_valid]] = True
        uu_valid &= ~in_ui[np.arange(len(uu_top))[:, None], uu_top]
        return (
            np.concatenate([ui_top, uu_top], axis=1),
            np.concatenate([ui_valid, uu_valid], axis=1),
        )

    @staticmethod
    def _top_k(scores: np.ndarray, k: int, positive_only: bool = False) -> np.ndarray:
        """One score row's top-``k`` ids (unordered): :meth:`_top_k_rows` for one row."""

        top, valid = SCCF._top_k_rows(np.asarray(scores)[None, :], k, positive_only)
        return top[0][valid[0]]

    @staticmethod
    def _top_k_rows(
        scores: np.ndarray, k: int, positive_only: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-wise top-``k`` columns (unordered) and which of them are usable.

        Usable means a finite score — and a positive one with
        ``positive_only``.
        """

        k = min(k, scores.shape[1])
        if k == 0:
            return np.empty((len(scores), 0), dtype=np.int64), np.empty((len(scores), 0), dtype=bool)
        top = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
        top_scores = scores[np.arange(len(scores))[:, None], top]
        valid = np.isfinite(top_scores)
        if positive_only:
            valid &= top_scores > 0
        return top.astype(np.int64, copy=False), valid

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def set_mode(self, mode: str) -> "SCCF":
        """Switch between ``"ui"``, ``"uu"`` and ``"sccf"`` scoring (Table II columns)."""

        if mode not in ("ui", "uu", "sccf"):
            raise ValueError("mode must be one of 'ui', 'uu', 'sccf'")
        self.mode = mode
        return self

    def score_items(self, user_id: int, history: Optional[Sequence[int]] = None) -> np.ndarray:
        """Single-user scoring — the batch path with a batch of one."""

        return self.score_items_batch([user_id], histories=[history])[0]

    def score_items_batch(
        self,
        user_ids: Sequence[int],
        histories: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> np.ndarray:
        """Score the catalog for many users at once; returns ``(B, num_items)``.

        All three Table II modes are batched: ``"ui"`` is one scoring matmul,
        ``"uu"`` one batched neighborhood query, and ``"sccf"`` builds the
        whole window's candidates as one padded matrix, runs one merger
        forward over every valid candidate and scatters the fused scores into
        the ``(B, num_items)`` result.
        """

        self._require_fitted()
        resolved = self._resolve_batch_histories(user_ids, histories)
        if self.mode == "sccf":
            # Embeddings are fetched lazily inside the fused path: a request
            # served from the scores layer never needs them.
            return self._fused_scores_batch(user_ids, resolved)
        user_embeddings = self._batch_user_embeddings(user_ids, resolved)
        if self.mode == "ui":
            return user_embeddings @ self.ui_model.item_embeddings().T
        return self.neighborhood.score_for_users(
            user_ids, user_embeddings=user_embeddings, histories=resolved
        )

    # ------------------------------------------------------------------ #
    # versioned serving cache
    # ------------------------------------------------------------------ #
    def attach_cache(self, cache: Optional[ServingCache]) -> "SCCF":
        """Attach a serving cache to every layer of this stack (``None`` detaches).

        The one sanctioned wiring path: binds the cache to this SCCF (one
        stack per cache — entry keys carry no model discriminator, so a
        shared cache would cross-serve entries) and hands it to the
        neighborhood component.
        """

        if cache is not None:
            cache.bind(self)  # before the swap: a rejected bind changes nothing
        outgoing = getattr(self, "cache", None)
        if outgoing is not None and outgoing is not cache:
            outgoing.unbind(self)
        self.cache = cache
        self.neighborhood.cache = cache
        return self

    def cache_stats(self) -> Optional[CacheStats]:
        """Hit/miss/invalidation counters of the serving cache (None when disabled)."""

        return self.cache.stats() if self.cache is not None else None

    def _serving_token(self, user_id: int, epoch: int) -> Tuple[int, int, int]:
        """The monotonic counter triple every fused-result cache entry validates against.

        One definition consumed by both the ``scores`` layer
        (:meth:`_fused_scores_batch`) and the server's ``recommendations``
        layer, so the invalidation contract cannot drift between them.
        """

        return (self.neighborhood.user_version(user_id), epoch, self.merger.generation)

    def _batch_user_embeddings(
        self, user_ids: Sequence[int], resolved: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Per-user embeddings with the cache's ``embeddings`` layer applied.

        An embedding is a pure function of the history (model weights only
        change through :meth:`fit`, which clears the cache), so entries are
        keyed on ``(user, history fingerprint)`` with a constant token: they
        survive every mutation elsewhere, including ``retrain``.  Only the
        cache misses pay the batched UI forward.
        """

        if self.cache is None or not len(user_ids):
            return self.ui_model.infer_user_embeddings_batch(resolved)
        keys = [
            (int(user), history_fingerprint(history))
            for user, history in zip(user_ids, resolved)
        ]

        def compute(missing: List[int]) -> List[np.ndarray]:
            fresh = np.asarray(
                self.ui_model.infer_user_embeddings_batch([resolved[i] for i in missing])
            )
            # copy(): caching a view would pin the whole batch array in
            # memory for the life of each entry
            return [row.copy() for row in fresh]

        # No cacheable= guard on purpose: user embeddings derive only from the
        # user's own history (no index scatter-gather is involved), so this
        # layer can never observe a degraded result.
        rows = serve_batch(  # repolint: disable=RL004
            self.cache.embeddings, keys, [0] * len(keys), compute
        )
        return np.stack(rows)

    def _fused_scores_batch(
        self,
        user_ids: Sequence[int],
        resolved: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """Fused ("sccf"-mode) score rows with the ``scores`` cache layer applied.

        Rows are keyed on ``(user, history fingerprint)`` and validated
        against ``(user_version, index_epoch, merger generation)`` — any
        mutation anywhere in the neighbor index bumps the epoch (other
        users' embeddings and recent items feed the fused scores), and a
        re-trained merger bumps its generation.  Misses run batched
        candidate construction as before, fetching their user embeddings
        (through the embeddings layer) only for the rows that need them.
        """

        if not len(user_ids):
            return np.empty((0, self.num_items), dtype=np.float64)
        item_embeddings = self.ui_model.item_embeddings()
        epoch = getattr(self.neighborhood.index, "epoch", None)
        cache_layer = self.cache.scores if self.cache is not None and epoch is not None else None
        keys: List[Optional[Tuple]] = [None] * len(user_ids)
        tokens: List[Optional[Tuple]] = [None] * len(user_ids)
        if cache_layer is not None:  # keep the uncached path free of hashing
            for row, (user, history) in enumerate(zip(user_ids, resolved)):
                keys[row] = (int(user), history_fingerprint(history))
                tokens[row] = self._serving_token(user, epoch)

        def fused(missing: Sequence[int]) -> np.ndarray:
            missing_users = [user_ids[row] for row in missing]
            missing_histories = [resolved[row] for row in missing]
            features = self._candidate_features_batch(
                missing_users,
                missing_histories,
                item_embeddings=item_embeddings,
                user_embeddings=self._batch_user_embeddings(missing_users, missing_histories),
            )
            scores = np.full((len(missing), self.num_items), _NEG_INF, dtype=np.float64)
            if features is not None:
                scores[features.rows, features.candidate_items] = self.merger.predict(features)
            return scores

        if cache_layer is None:
            return fused(range(len(user_ids)))

        def compute(missing: List[int]) -> List[np.ndarray]:
            # copy(): a cached view would pin the whole window's matrix
            return [row.copy() for row in fused(missing)]

        # Rows computed while the neighbor index was serving degraded (some
        # shard down) are valid to *serve* but must never be memoized: the
        # token counters do not change when the shard comes back, so a cached
        # partial row would outlive the outage.
        degraded_before = getattr(self.neighborhood.index, "degraded_requests", 0)
        cacheable = lambda: (
            getattr(self.neighborhood.index, "degraded_requests", 0) == degraded_before
        )
        rows = serve_batch(cache_layer, keys, tokens, compute, cacheable=cacheable)
        # stack() copies, so cached rows stay private to the cache.
        return np.stack(rows)

    def candidate_lists(
        self, user_id: int, history: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The two ranked candidate lists (UI, UU) before fusion — used by Figure 4."""

        self._require_fitted()
        if history is None:
            history = self._user_histories.get(user_id, [])
        user_embedding = self.ui_model.infer_user_embedding(history)
        ui_scores = exclude_seen_items(self.ui_model.ui_scores(user_embedding), history)
        uu_scores = exclude_seen_items(
            self.neighborhood.score_for_user(user_id, user_embedding, history=history), history
        )
        size = min(self.config.candidate_list_size, self.num_items)
        ui_top = self._top_k(ui_scores, size)
        ui_top = ui_top[np.argsort(-ui_scores[ui_top], kind="stable")]
        uu_top = self._top_k(uu_scores, size, positive_only=True)
        uu_top = uu_top[np.argsort(-uu_scores[uu_top], kind="stable")]
        return ui_top, uu_top

    def _require_fitted(self) -> None:
        if not self._fitted or self.merger is None:
            raise RuntimeError("SCCF has not been fitted")

    # ------------------------------------------------------------------ #
    # snapshot persistence
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, Any]:
        """Everything needed to rebuild this fitted stack, ndarray leaves intact.

        Covers the neighbor index (nested inside the neighborhood state), the
        integrating MLP (weights plus frozen predict state) and the serving
        cache's *configuration* — cache entries are derivable and are re-warmed
        after restore, never persisted.  The UI model is out of scope: it is
        immutable at serving time and is supplied separately on restore.
        """

        self._require_fitted()
        config = asdict(self.config)
        config["merger_hidden_dims"] = list(config["merger_hidden_dims"])
        return {
            "meta": {
                "mode": self.mode,
                "num_users": int(self.num_users),
                "num_items": int(self.num_items),
                "config": config,
            },
            "neighborhood": self.neighborhood.snapshot_state(),
            "merger": self.merger.snapshot_state(),
            "cache": self.cache.snapshot_config() if self.cache is not None else None,
        }

    def restore_snapshot_state(self, state: Dict[str, Any]) -> None:
        """Overwrite this stack's serving state from a :meth:`snapshot_state` tree.

        The caller constructs the SCCF with the *same config and UI model* the
        snapshot was taken from, then calls this instead of :meth:`fit`.  User
        histories are not part of the snapshot (they belong to the dataset) —
        the caller re-supplies them, as :meth:`RealTimeServer.load_snapshot`
        does.
        """

        meta = state["meta"]
        self.mode = str(meta["mode"])
        self.num_users = int(meta["num_users"])
        self.num_items = int(meta["num_items"])
        self.neighborhood.restore_snapshot_state(state["neighborhood"])
        self.merger = IntegratingMLP.restore_state(state["merger"])
        cache_config = state.get("cache")
        self.attach_cache(
            ServingCache.from_config(cache_config) if cache_config is not None else None
        )
        self._fitted = True

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the neighborhood index's shard thread pool (lifecycle cascade).

        Safe and idempotent for every index; a no-op for unsharded ones.
        """

        self.neighborhood.close()

    def __enter__(self) -> "SCCF":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        self.close()

    @property
    def name(self) -> str:
        suffix = {"ui": "", "uu": "UU", "sccf": "SCCF"}[self.mode]
        return f"{self.ui_model.name}{suffix}" if suffix else self.ui_model.name
