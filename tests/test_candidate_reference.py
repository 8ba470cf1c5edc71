"""The batched candidate stage against a plain per-user reference.

``SCCF.score_items_batch`` (``"sccf"`` mode) builds a whole window's
candidates as padded arrays and runs one merger forward.  The reference below
is the opposite: one user at a time, plain loops written straight from the
paper, no cache and no batching.

* eq. 12: ``r^UU_ui = Σ_{v ∈ N_u, sim > 0} δ_vi · sim(u, v)`` over each
  neighbor's recent items, the user's own history zeroed.  ``N_u`` comes
  from the index's one-query ``search`` (eq. 11 is the index's contract; the
  ANN parity tests pin ``search`` against ``search_batch``).
* eq. 14: ``C_I = top-N(r^UI) ∪ top-N⁺(r^UU)`` with seen items excluded.  A
  top-N is ambiguous when ties straddle the N-th place, so the reference
  derives the items that are *surely* in the union and those *possibly* in
  it, and checks the served candidate set lies between the two.
* eq. 16 and the frozen MLP: per-user standardization over the candidate
  set, then one forward per candidate through the frozen layers plus the
  score skip path.

Fused scores must agree to the documented ``atol=1e-4`` of
``test_batched_parity``; rankings must agree up to ties within that
tolerance.
"""

from __future__ import annotations

import copy
import math
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.core import SCCF, SCCFConfig
from repro.core.sccf import _NEG_INF
from repro.testing import FaultInjector

ATOL = 1e-4
#: scores this close to a top-N boundary count as tied with it
TIE_TOL = 1e-5


# --------------------------------------------------------------------- #
# the reference, one user at a time
# --------------------------------------------------------------------- #
def _user_embedding(model, history: Sequence[int]) -> np.ndarray:
    if not history:
        return np.zeros(model.embedding_dim)
    return np.asarray(model.infer_user_embedding(list(history)), dtype=np.float64)


def _uu_scores(sccf: SCCF, user: int, embedding: np.ndarray, history: Sequence[int]) -> np.ndarray:
    """Eq. 12 as a double loop over neighbors and their recent items."""

    neighborhood = sccf.neighborhood
    neighbor_ids, similarities = neighborhood.index.search(
        embedding, k=neighborhood.num_neighbors, exclude=np.asarray([user], dtype=np.int64)
    )
    scores = np.zeros(sccf.num_items)
    for neighbor, similarity in zip(neighbor_ids.tolist(), similarities.tolist()):
        if similarity <= 0:
            continue
        for item in neighborhood.recent_items(neighbor):
            if 0 <= item < sccf.num_items:
                scores[item] += similarity
    for item in history:
        if 0 <= item < sccf.num_items:
            scores[item] = 0.0
    return scores


def _top_n_bounds(scores: np.ndarray, n: int, positive_only: bool) -> Tuple[Set[int], Set[int]]:
    """Items surely / possibly in a top-``n`` of ``scores`` (usable entries only).

    The top ``n`` entries are taken over the whole row; usable ones (finite,
    and positive with ``positive_only``) are kept.  Entries tied with the
    ``n``-th place may or may not be selected.
    """

    n = min(n, len(scores))
    if n == 0:
        return set(), set()
    cutoff = np.sort(scores)[::-1][n - 1]
    margin = TIE_TOL * max(1.0, abs(cutoff)) if math.isfinite(cutoff) else 0.0
    sure: Set[int] = set()
    possible: Set[int] = set()
    for item, score in enumerate(scores.tolist()):
        if not math.isfinite(score) or (positive_only and score <= 0):
            continue
        if score > cutoff + margin:
            sure.add(item)
        if score >= cutoff - margin:
            possible.add(item)
    return sure, possible


def _standardize(values: List[float]) -> List[float]:
    mean = sum(values) / len(values)
    std = math.sqrt(sum((value - mean) ** 2 for value in values) / len(values))
    if std < 1e-8:
        return [0.0] * len(values)
    return [(value - mean) / std for value in values]


def _frozen_forward(merger, features: np.ndarray) -> float:
    """The frozen MLP on one feature vector, layer by layer, plus the skip path."""

    layers, skip = merger._frozen
    hidden = features
    for kind, weight, bias in layers:
        if kind == "linear":
            hidden = hidden @ weight + (0.0 if bias is None else bias)
        elif kind == "relu":
            hidden = np.maximum(hidden, 0.0)
        elif kind == "sigmoid":
            hidden = 1.0 / (1.0 + np.exp(-np.clip(hidden, -60.0, 60.0)))
        else:
            hidden = np.tanh(hidden)
    fused = float(hidden[0])
    if skip is not None:
        fused += float(skip[0] * features[-2] + skip[1] * features[-1])
    return fused


def _check_row(sccf: SCCF, user: int, history: Sequence[int], served: np.ndarray) -> None:
    """One served fused row against the reference for ``(user, history)``."""

    model = sccf.ui_model
    item_embeddings = model.item_embeddings()
    embedding = _user_embedding(model, history)
    ui = item_embeddings @ embedding
    uu = _uu_scores(sccf, user, embedding, history)
    seen = [item for item in history if 0 <= item < sccf.num_items]
    ui_masked, uu_masked = ui.copy(), uu.copy()
    ui_masked[seen] = -np.inf
    uu_masked[seen] = -np.inf

    size = sccf.config.candidate_list_size
    sure_ui, possible_ui = _top_n_bounds(ui_masked, size, positive_only=False)
    sure_uu, possible_uu = _top_n_bounds(uu_masked, size, positive_only=True)
    candidates = np.flatnonzero(served > _NEG_INF)
    chosen = set(candidates.tolist())
    assert sure_ui | sure_uu <= chosen, "a certain top-N candidate is missing"
    assert chosen <= possible_ui | possible_uu, "a candidate outside every valid top-N"
    assert not chosen & set(seen), "a seen item was served as a candidate"
    np.testing.assert_array_equal(np.delete(served, candidates), _NEG_INF)
    if not len(candidates):
        return

    ui_norm = _standardize(ui[candidates].tolist())
    uu_norm = _standardize(uu[candidates].tolist())
    expected = np.asarray(
        [
            _frozen_forward(
                sccf.merger,
                np.concatenate([embedding, item_embeddings[item], [ui_norm[j], uu_norm[j]]]),
            )
            for j, item in enumerate(candidates.tolist())
        ]
    )
    np.testing.assert_allclose(served[candidates], expected, rtol=0, atol=ATOL)
    # tie-aware ranks: along the served order the reference never rises by
    # more than the tolerance
    order = np.argsort(-served[candidates], kind="stable")
    assert np.all(np.diff(expected[order]) <= 2 * ATOL)


def _assert_matches_reference(
    sccf: SCCF, users: Sequence[int], histories: Sequence[Optional[Sequence[int]]]
) -> np.ndarray:
    served = sccf.score_items_batch(users, histories=histories)
    assert served.shape == (len(users), sccf.num_items)
    for row, (user, history) in enumerate(zip(users, histories)):
        resolved = sccf._user_histories.get(user, []) if history is None else list(history)
        _check_row(sccf, user, resolved, served[row])
    return served


def _window(dataset, size: int) -> Tuple[List[int], List[Optional[List[int]]]]:
    """``size`` requests cycling over the users: stored, full and short histories."""

    users = list(range(dataset.num_users))
    window_users = [users[(7 * position) % len(users)] for position in range(size)]
    histories: List[Optional[List[int]]] = []
    for position, user in enumerate(window_users):
        if position % 3 == 0:
            histories.append(None)
        elif position % 3 == 1:
            histories.append(dataset.full_sequence(user, include_validation=True))
        else:
            histories.append(dataset.train.user_sequence(user)[:3])
    return window_users, histories


@pytest.fixture()
def sccf(fitted_sccf):
    """A private copy of the shared fitted stack in "sccf" mode."""

    stack = copy.deepcopy(fitted_sccf)
    stack.set_mode("sccf")
    return stack


# --------------------------------------------------------------------- #
# windows
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("size", [1, 7, 128])
def test_window_matches_reference(sccf, tiny_dataset, size):
    users, histories = _window(tiny_dataset, size)
    _assert_matches_reference(sccf, users, histories)


def test_every_window_size_serves_the_same_rows(sccf, tiny_dataset):
    users, histories = _window(tiny_dataset, 128)
    whole = sccf.score_items_batch(users, histories=histories)
    for size in (1, 7):
        for start in range(0, 21, size):
            part = sccf.score_items_batch(
                users[start:start + size], histories=histories[start:start + size]
            )
            np.testing.assert_allclose(part, whole[start:start + size], rtol=0, atol=ATOL)


# --------------------------------------------------------------------- #
# edge cases
# --------------------------------------------------------------------- #
def test_empty_history(sccf, tiny_dataset):
    users, histories = _window(tiny_dataset, 7)
    histories[3] = []
    served = _assert_matches_reference(sccf, users, histories)
    assert np.any(served[3] > _NEG_INF)  # UI candidates exist even without history


def test_no_positive_similarity_neighbors(sccf, tiny_dataset):
    target = 0
    others = list(range(1, tiny_dataset.num_users))
    own = sccf.neighborhood.user_embedding(target)
    # every other user points exactly away from the target: all sims are -1
    sccf.neighborhood.update_users(
        others,
        sccf.ui_model,
        [tiny_dataset.train.user_sequence(user) for user in others],
        embeddings=np.tile(-own, (len(others), 1)),
    )
    history = tiny_dataset.train.user_sequence(target)
    embedding = _user_embedding(sccf.ui_model, history)
    assert not np.any(_uu_scores(sccf, target, embedding, history))
    _assert_matches_reference(sccf, [target, 1], [None, None])


def test_empty_candidate_set(sccf, tiny_dataset):
    everything = list(range(tiny_dataset.num_items))
    served = _assert_matches_reference(sccf, [0, 1, 2], [None, everything, None])
    np.testing.assert_array_equal(served[1], _NEG_INF)
    assert np.any(served[0] > _NEG_INF) and np.any(served[2] > _NEG_INF)


def test_duplicate_users_in_one_window(sccf, tiny_dataset):
    user = 5
    short = tiny_dataset.train.user_sequence(user)[:2]
    users = [user, 9, user, user, 9]
    histories = [None, None, None, short, None]
    served = _assert_matches_reference(sccf, users, histories)
    np.testing.assert_array_equal(served[0], served[2])
    np.testing.assert_array_equal(served[1], served[4])


def test_candidate_list_covers_the_catalog(tiny_dataset, trained_fism):
    stack = SCCF(
        trained_fism,
        SCCFConfig(
            num_neighbors=10,
            candidate_list_size=tiny_dataset.num_items + 5,
            merger_epochs=2,
            seed=3,
        ),
    ).fit(tiny_dataset, fit_ui_model=False)
    users, histories = _window(tiny_dataset, 7)
    served = _assert_matches_reference(stack, users, histories)
    # every unseen item is a UI candidate
    for row, user in enumerate(users):
        history = stack._user_histories.get(user, []) if histories[row] is None else histories[row]
        assert np.count_nonzero(served[row] > _NEG_INF) == tiny_dataset.num_items - len(set(history))


def test_pending_recent_overrides(sccf, tiny_dataset):
    neighborhood = sccf.neighborhood
    neighborhood._ensure_recent_csr()
    movers = list(range(0, tiny_dataset.num_users, 4))
    neighborhood.update_users(
        movers,
        sccf.ui_model,
        [tiny_dataset.train.user_sequence(user)[::-1] + [1, 2, 3] for user in movers],
    )
    assert neighborhood._recent_overrides  # the overlay path is live
    users, histories = _window(tiny_dataset, 7)
    _assert_matches_reference(sccf, users, histories)


def test_thread_sharded_index_with_degrade_policy(tiny_dataset, trained_fism):
    stack = SCCF(
        trained_fism,
        SCCFConfig(
            num_neighbors=10,
            candidate_list_size=30,
            merger_epochs=2,
            num_shards=2,
            failure_policy="degrade",
            seed=3,
        ),
    ).fit(tiny_dataset, fit_ui_model=False)
    with stack:
        users, histories = _window(tiny_dataset, 7)
        _assert_matches_reference(stack, users, histories)
        # With shard 0 down for the served window and every reference query,
        # both sides answer from the surviving shard.
        index = stack.neighborhood.index
        before = index.degraded_requests
        FaultInjector().fail_shard(index, 0, times=1 + len(users))
        _assert_matches_reference(stack, users, histories)
        assert index.degraded_requests == before + 1 + len(users)
