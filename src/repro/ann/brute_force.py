"""Exact nearest-neighbor index over dense vectors.

This plays the role Faiss plays in the paper's production deployment: given
the current user embedding (inferred on the fly), return the top-β most
similar users.  At the scales this reproduction runs, a vectorized exact scan
is already sub-millisecond; :class:`repro.ann.ivf.IVFIndex` provides the
approximate variant for the scalability ablation.

Like Faiss, the index stores vectors in float32 by default (half the memory
traffic of float64 and the dtype BLAS batches fastest); pass
``dtype=np.float64`` for full-precision scoring.  Row normalization happens
once at :meth:`build` time — queries score against the cached normalized
matrix, never re-normalizing the index — and :meth:`search_batch` answers Q
queries with a single ``(Q×D)·(D×N)`` matmul plus a per-row ``argpartition``,
which is what makes batched serving an order of magnitude faster than the
query-at-a-time loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .metrics import normalize_rows

__all__ = ["BruteForceIndex", "prepare_rows", "top_k_rows"]

_SUPPORTED_DTYPES = (np.float32, np.float64)


def check_new_ids(existing: Optional[np.ndarray], new_ids: np.ndarray) -> None:
    """Reject id collisions: duplicate ids break per-query exclusion masking.

    ``apply_exclusions`` masks by id equality, so two rows sharing an id can
    never be excluded independently — an ``exclude=[u]`` meant for the stale
    row would silently hide the fresh one too.  Raises ``ValueError`` when
    ``new_ids`` contains internal duplicates or collides with ``existing``.
    """

    if len(np.unique(new_ids)) != len(new_ids):
        raise ValueError("ids must be unique (duplicate ids break exclusion masking)")
    if existing is not None and len(existing) and np.isin(new_ids, existing).any():
        raise ValueError(
            "ids collide with ids already in the index "
            "(duplicate ids break exclusion masking)"
        )


def prepare_rows(vectors: np.ndarray, metric: str, dtype: np.dtype) -> np.ndarray:
    """Cast rows to ``dtype`` and, for the cosine metric, L2-normalize them.

    The exact cast→normalize→cast sequence scored rows and queries go
    through — build, update, add and every query call this one helper, so
    the bit-identity contract between sharded and unsharded search cannot
    drift through a re-ordered cast.
    """

    vectors = np.asarray(vectors, dtype=dtype)
    if metric == "cosine":
        return normalize_rows(vectors).astype(dtype, copy=False)
    return vectors


def top_k_rows(
    scores: np.ndarray, k: int, ids: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Row-wise top-``k`` of a ``(Q, N)`` score matrix, -inf entries dropped.

    ``ids`` labels the columns: one ``(N,)`` vector shared by every row, or a
    ``(Q, N)`` matrix when each row scored its own candidates (the IVF scan's
    padded layout).

    Returns one ``(ids, scores)`` pair per row, sorted by descending score.
    Ties are broken *deterministically* by ascending column (= index
    position): equal-score candidates appear in column order, and when the
    k-th place falls inside a tie group the lowest columns win.  Determinism
    is what lets a sharded scatter-gather merge reproduce this function's
    output exactly — e.g. the all-zero gap embeddings ``add_users`` creates
    score an exact 0.0 against every query, and an argpartition-arbitrary
    tie order would let sharded and unsharded serving drift on them.
    """

    if scores.ndim != 2:
        raise ValueError("scores must be a 2-d (queries x index) matrix")
    k = min(k, scores.shape[1])
    if k <= 0:
        return [
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=scores.dtype))
            for _ in range(len(scores))
        ]
    rows = np.arange(len(scores))[:, None]
    # argpartition selects *some* k best per row; sorting the selected columns
    # ascending fixes the tie order inside the selection.
    part = np.sort(np.argpartition(-scores, kth=k - 1, axis=1)[:, :k], axis=1)
    part_scores = scores[rows, part]
    # Boundary repair: when the k-th score also occurs outside the selection,
    # argpartition's choice among the tied columns is arbitrary — replace the
    # selected tied columns with the lowest tied columns of the whole row.
    cutoff = part_scores.min(axis=1)
    tied_total = np.count_nonzero(scores == cutoff[:, None], axis=1)
    tied_selected = np.count_nonzero(part_scores == cutoff[:, None], axis=1)
    # A -inf cutoff means the boundary ties are all masked-out entries that
    # the isfinite drop below discards anyway — skip the wasted repair.
    for row in np.nonzero((tied_total > tied_selected) & np.isfinite(cutoff))[0]:
        above = part[row][part_scores[row] > cutoff[row]]
        tied_columns = np.nonzero(scores[row] == cutoff[row])[0]
        chosen = np.concatenate([above, tied_columns[: k - len(above)]])
        chosen.sort()
        part[row] = chosen
        part_scores[row] = scores[row][chosen]
    order = np.argsort(-part_scores, axis=1, kind="stable")
    top = part[rows, order]
    top_scores = part_scores[rows, order]
    top_ids = ids[top] if ids.ndim == 1 else ids[rows, top]
    valid = np.isfinite(top_scores)
    return [
        (top_ids[row][valid[row]], top_scores[row][valid[row]]) for row in range(len(scores))
    ]


def apply_exclusions(
    scores: np.ndarray,
    ids: np.ndarray,
    exclude_per_query: Optional[Sequence[Optional[np.ndarray]]],
) -> np.ndarray:
    """Mask excluded ids to -inf, row by row (in place); returns ``scores``."""

    if exclude_per_query is None:
        return scores
    if len(exclude_per_query) != len(scores):
        raise ValueError("exclude_per_query must have one entry per query")
    for row, exclude in enumerate(exclude_per_query):
        if exclude is None:
            continue
        exclude = np.asarray(exclude, dtype=np.int64)
        if not len(exclude):
            continue
        if len(exclude) <= 8:
            # Tiny exclusion lists (usually just the query user herself):
            # direct compares beat np.isin's sort-based machinery.
            for value in exclude:
                scores[row, ids == value] = -np.inf
        else:
            scores[row, np.isin(ids, exclude)] = -np.inf
    return scores


class BruteForceIndex:
    """Exact top-k search with cosine or inner-product similarity.

    Parameters
    ----------
    metric:
        ``"cosine"`` (the paper's eq. 11) or ``"inner"``.
    dtype:
        Storage/scoring dtype of the index.  ``np.float32`` by default (the
        Faiss convention); pass ``np.float64`` for full-precision scoring.
    """

    def __init__(self, metric: str = "cosine", dtype: np.dtype = np.float32) -> None:
        if metric not in ("cosine", "inner"):
            raise ValueError("metric must be 'cosine' or 'inner'")
        dtype = np.dtype(dtype)
        if dtype.type not in _SUPPORTED_DTYPES:
            raise ValueError("dtype must be float32 or float64")
        self.metric = metric
        self.dtype = dtype
        #: monotonically increasing mutation counter: bumped by every build /
        #: add / update / update_batch, so serving caches can validate stored
        #: search results in O(1) (see :mod:`repro.core.cache`).
        self.epoch = 0
        self._vectors: Optional[np.ndarray] = None
        self._normalized: Optional[np.ndarray] = None
        self._ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # building / updating
    # ------------------------------------------------------------------ #
    def build(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "BruteForceIndex":
        """Index ``vectors`` (rows); ``ids`` default to row positions.

        Rows are L2-normalized once here (for the cosine metric); every
        subsequent query scores against the cached normalized matrix.
        """

        vectors = np.asarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if len(vectors) == 0:
            raise ValueError("cannot build an index from zero vectors")
        self._vectors = vectors.copy()
        if self.metric == "cosine":
            self._normalized = prepare_rows(vectors, self.metric, self.dtype)
        else:
            self._normalized = self._vectors
        self._ids = (
            np.arange(len(vectors), dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64).copy()
        )
        if len(self._ids) != len(vectors):
            raise ValueError("ids must match the number of vectors")
        check_new_ids(None, self._ids)
        self.epoch += 1
        return self

    def update(self, position: int, vector: np.ndarray) -> None:
        """Overwrite one indexed vector in place (batch-of-one ``update_batch``)."""

        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise ValueError("vector dimensionality mismatch")
        self.update_batch(np.asarray([position], dtype=np.int64), vector[None, :])

    def update_batch(self, positions: Sequence[int], vectors: np.ndarray) -> None:
        """Overwrite many indexed rows at once (vectorized embedding refresh).

        One fancy-indexed assignment plus one batched row normalization,
        instead of ``len(positions)`` Python-level ``update`` calls.  With
        duplicate positions the last row wins.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        positions = np.asarray(positions, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2 or len(vectors) != len(positions):
            raise ValueError("vectors must be 2-d with one row per position")
        if vectors.shape[1] != self._vectors.shape[1]:
            raise ValueError("vector dimensionality mismatch")
        if not len(positions):
            return
        if positions.min() < 0 or positions.max() >= len(self._vectors):
            raise ValueError("position out of range")
        self._vectors[positions] = vectors
        if self.metric == "cosine":
            self._normalized[positions] = prepare_rows(vectors, self.metric, self.dtype)
        self.epoch += 1

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "BruteForceIndex":
        """Append new rows to the index (cold-start growth at serve time).

        ``ids`` default to the next row positions, continuing the positional
        numbering of :meth:`build`; pass explicit ids when the index was built
        with custom ones.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        vectors = np.asarray(vectors, dtype=self.dtype)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.ndim != 2 or vectors.shape[1] != self._vectors.shape[1]:
            raise ValueError("vector dimensionality mismatch")
        new_ids = (
            np.arange(len(self._vectors), len(self._vectors) + len(vectors), dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64)
        )
        if len(new_ids) != len(vectors):
            raise ValueError("ids must match the number of vectors")
        check_new_ids(self._ids, new_ids)
        self._vectors = np.concatenate([self._vectors, vectors])
        if self.metric == "cosine":
            self._normalized = np.concatenate(
                [self._normalized, prepare_rows(vectors, self.metric, self.dtype)]
            )
        else:
            self._normalized = self._vectors
        self._ids = np.concatenate([self._ids, new_ids])
        self.epoch += 1
        return self

    @property
    def size(self) -> int:
        return 0 if self._vectors is None else len(self._vectors)

    @property
    def dim(self) -> int:
        return 0 if self._vectors is None else self._vectors.shape[1]

    # ------------------------------------------------------------------ #
    # cloning / persistence (blue-green maintenance and snapshots)
    # ------------------------------------------------------------------ #
    def clone(self) -> "BruteForceIndex":
        """Deep-copy the index into a detached shadow (same rows, ids, epoch).

        The shadow shares no mutable state with the live index: the
        maintenance path retrains the clone while the original keeps
        serving, then publishes it with a single reference swap.
        """

        other = BruteForceIndex(metric=self.metric, dtype=self.dtype)
        other.epoch = self.epoch
        if self._vectors is not None:
            other._vectors = self._vectors.copy()
            other._normalized = (
                other._vectors
                if self._normalized is self._vectors
                else self._normalized.copy()
            )
            other._ids = self._ids.copy()
        return other

    def snapshot_state(self) -> dict:
        """Serializable state tree for :mod:`repro.core.snapshot`."""

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        return {
            "kind": "brute_force",
            "meta": {
                "metric": self.metric,
                "dtype": self.dtype.name,
                "epoch": self.epoch,
            },
            "arrays": {"vectors": self._vectors, "ids": self._ids},
        }

    @classmethod
    def restore_state(cls, state: dict) -> "BruteForceIndex":
        """Rebuild an index from :meth:`snapshot_state` output, bit-identically.

        The saved vectors were already cast to the index dtype at build time,
        so rebuilding re-derives the exact same normalized matrix.
        """

        meta = state["meta"]
        index = cls(metric=meta["metric"], dtype=np.dtype(meta["dtype"]))
        index.build(state["arrays"]["vectors"], ids=state["arrays"]["ids"])
        index.epoch = int(meta["epoch"])
        return index

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def _prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        """Cast to the index dtype and, for cosine, L2-normalize each query row."""

        queries = np.asarray(queries, dtype=self.dtype)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2:
            raise ValueError("queries must be 1-d or 2-d")
        return prepare_rows(queries, self.metric, self.dtype)

    def search(
        self,
        query: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, similarities)`` of the top-``k`` neighbors of ``query``.

        ``exclude`` lists ids that must not appear in the result — e.g. the
        query user herself, since the paper defines ``u ∉ N_u``.  This is the
        batch path with a single row; single-query and batched search share
        one implementation.
        """

        query = np.asarray(query).reshape(-1)
        exclusions = None if exclude is None else [np.asarray(exclude, dtype=np.int64)]
        return self.search_batch(query[None, :], k, exclude_per_query=exclusions)[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        exclude_per_query: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Top-``k`` neighbors for every row of ``queries`` in one matmul.

        ``exclude_per_query`` optionally gives, per query row, an array of ids
        to suppress (or ``None``).  Returns one ``(ids, similarities)`` pair
        per query, each sorted by descending similarity.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        if k <= 0:
            raise ValueError("k must be positive")
        queries = self._prepare_queries(queries)
        scores = queries @ self._normalized.T
        apply_exclusions(scores, self._ids, exclude_per_query)
        return top_k_rows(scores, k, self._ids)
