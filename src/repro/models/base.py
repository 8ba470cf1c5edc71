"""Model interfaces for candidate generation.

Two levels of capability matter in this reproduction:

* :class:`Recommender` — anything that can score the whole item catalog for a
  user and emit a top-N candidate list (all baselines qualify).
* :class:`InductiveUIModel` — a UI model that can additionally *infer* a user
  representation from an arbitrary interaction history **without retraining**
  and expose its item embedding table.  This inductive property is what makes
  the SCCF user-based component feasible in real time (Section III-C2): when
  a user clicks a new item, her embedding is recomputed by a forward pass and
  her neighborhood is re-identified by similarity search.

Both interfaces operate on item ids in ``[0, num_items)`` and return dense
score vectors over the full catalog, matching the paper's full-item-set
evaluation protocol.
"""

from __future__ import annotations

import abc
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.datasets import RecDataset

__all__ = [
    "Recommender",
    "InductiveUIModel",
    "exclude_seen_items",
    "exclude_seen_rows",
    "history_coordinates",
]


def exclude_seen_items(scores: np.ndarray, seen: Iterable[int]) -> np.ndarray:
    """Return a copy of ``scores`` with already-interacted items set to -inf.

    The paper "assume[s] that user u will not click items in R⁺_u once more,
    so we do not recommend items in R⁺_u".
    """

    return exclude_seen_rows(np.asarray(scores)[None, :], [list(seen)])[0]


def history_coordinates(histories: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, items)`` of every entry of a window's histories, row-major.

    ``scores[rows, items]`` then addresses each row's own history items in a
    ``(B, num_items)`` matrix — one fancy-index write masks a whole window.
    """

    lengths = [len(history) for history in histories]
    items = np.fromiter(
        itertools.chain.from_iterable(histories), dtype=np.int64, count=sum(lengths)
    )
    return np.repeat(np.arange(len(histories)), lengths), items


def exclude_seen_rows(scores: np.ndarray, histories: Sequence[Sequence[int]]) -> np.ndarray:
    """:func:`exclude_seen_items` for a ``(B, num_items)`` window, one history per row."""

    masked = np.array(scores, dtype=np.float64, copy=True)
    rows, items = history_coordinates(histories)
    masked[rows, items] = -np.inf
    return masked


class Recommender(abc.ABC):
    """Anything that can produce a ranked candidate list for a user."""

    #: populated by :meth:`fit`
    num_users: int = 0
    num_items: int = 0

    @abc.abstractmethod
    def fit(self, dataset: RecDataset) -> "Recommender":
        """Train (or precompute) on the dataset's training interactions."""

    @abc.abstractmethod
    def score_items(self, user_id: int, history: Optional[Sequence[int]] = None) -> np.ndarray:
        """Score every item in the catalog for ``user_id``.

        ``history`` optionally overrides the training-time interaction history
        (used to inject the freshest events in real-time serving and to score
        test users with their validation item merged back in).
        """

    @staticmethod
    def _validate_batch_histories(
        user_ids: Sequence[int],
        histories: Optional[Sequence[Optional[Sequence[int]]]],
    ) -> None:
        if histories is not None and len(histories) != len(user_ids):
            raise ValueError("histories must have one entry per user id")

    def _resolve_batch_histories(
        self,
        user_ids: Sequence[int],
        histories: Optional[Sequence[Optional[Sequence[int]]]],
    ) -> List[List[int]]:
        """Per-user histories for a batch call: explicit entries win, ``None``
        entries fall back to the stored training histories (empty if unfitted)."""

        self._validate_batch_histories(user_ids, histories)
        stored = getattr(self, "_user_histories", None)
        resolved: List[List[int]] = []
        for position, user in enumerate(user_ids):
            history = histories[position] if histories is not None else None
            if history is None:
                history = stored.get(user, []) if stored is not None else []
            resolved.append(list(history))
        return resolved

    def score_items_batch(
        self,
        user_ids: Sequence[int],
        histories: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> np.ndarray:
        """Score the whole catalog for a batch of users; returns ``(B, num_items)``.

        The base implementation loops over :meth:`score_items`;
        :class:`InductiveUIModel` replaces it with one batched embedding
        inference plus a single ``(B×d)·(d×num_items)`` matmul, which is what
        the batched evaluator and serving paths ride on.
        """

        self._validate_batch_histories(user_ids, histories)
        rows = [
            self.score_items(user, history=None if histories is None else histories[position])
            for position, user in enumerate(user_ids)
        ]
        if not rows:
            return np.zeros((0, self.num_items), dtype=np.float64)
        return np.stack(rows)

    def recommend(
        self,
        user_id: int,
        k: int,
        history: Optional[Sequence[int]] = None,
        exclude: Optional[Iterable[int]] = None,
    ) -> List[int]:
        """Return the top-``k`` item ids for ``user_id`` (highest score first)."""

        if k <= 0:
            raise ValueError("k must be positive")
        scores = self.score_items(user_id, history=history)
        if exclude is not None:
            scores = exclude_seen_items(scores, exclude)
        k = min(k, len(scores))
        top = np.argpartition(-scores, kth=k - 1)[:k]
        ordered = top[np.argsort(-scores[top], kind="stable")]
        return [int(item) for item in ordered if np.isfinite(scores[item])]

    @property
    def name(self) -> str:
        return type(self).__name__


class InductiveUIModel(Recommender):
    """A UI model whose user representation can be inferred on the fly.

    Concrete subclasses: :class:`~repro.models.fism.FISM`,
    :class:`~repro.models.sasrec.SASRec`,
    :class:`~repro.models.youtube_dnn.YouTubeDNN`.
    """

    @abc.abstractmethod
    def infer_user_embedding(self, history: Sequence[int]) -> np.ndarray:
        """Compute the user representation ``m_u`` from an interaction history.

        This is the inference-not-training step the framework relies on: the
        returned vector lives in the same space as :meth:`item_embeddings`, so
        UI scores are dot products and user-user similarity is a cosine.
        """

    @abc.abstractmethod
    def item_embeddings(self) -> np.ndarray:
        """The output item embedding table ``q_i`` (shape ``(num_items, dim)``)."""

    def user_embedding(self, user_id: int, history: Optional[Sequence[int]] = None) -> np.ndarray:
        """Embedding of a known user, defaulting to her training history."""

        if history is None:
            history = self.training_history(user_id)
        return self.infer_user_embedding(history)

    def training_history(self, user_id: int) -> List[int]:
        """The chronological training-split history of ``user_id``."""

        histories = getattr(self, "_user_histories", None)
        if histories is None:
            raise RuntimeError("model has not been fitted")
        return list(histories.get(user_id, []))

    def infer_user_embeddings_batch(self, histories: Sequence[Sequence[int]]) -> np.ndarray:
        """Stack ``infer_user_embedding`` over many histories: ``(B, dim)``.

        The base implementation is a loop fallback so any inductive model
        works unchanged; FISM / SASRec / YouTubeDNN override it with a single
        vectorized forward pass over the whole batch.  Empty histories map to
        zero vectors, matching the single-history convention.
        """

        table = np.zeros((len(histories), self.embedding_dim), dtype=np.float64)
        for row, history in enumerate(histories):
            history = list(history)
            if history:
                table[row] = self.infer_user_embedding(history)
        return table

    def all_user_embeddings(self, histories: Optional[Dict[int, Sequence[int]]] = None) -> np.ndarray:
        """Stack embeddings for every user id in ``[0, num_users)``.

        Users with empty histories receive a zero vector (they cannot be
        anyone's informative neighbor).
        """

        resolved: List[List[int]] = []
        for user in range(self.num_users):
            if histories is not None and user in histories:
                resolved.append(list(histories[user]))
            else:
                resolved.append(
                    self.training_history(user) if hasattr(self, "_user_histories") else []
                )
        return self.infer_user_embeddings_batch(resolved)

    def score_items_batch(
        self,
        user_ids: Sequence[int],
        histories: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> np.ndarray:
        """Batched eq. (10): one embedding-inference batch, one scoring matmul."""

        resolved = self._resolve_batch_histories(user_ids, histories)
        embeddings = self.infer_user_embeddings_batch(resolved)
        return embeddings @ self.item_embeddings().T

    @property
    def embedding_dim(self) -> int:
        return int(self.item_embeddings().shape[1])

    def ui_scores(self, user_embedding: np.ndarray) -> np.ndarray:
        """UI preference ``r̂^UI_{ui} = m_uᵀ q_i`` for every item (eq. 10)."""

        return np.asarray(user_embedding, dtype=np.float64) @ self.item_embeddings().T
