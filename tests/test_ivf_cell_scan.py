"""Parity of the IVF per-cell batch scan with the one-query scan.

``IVFIndex.search_batch`` scores a batch once per probed cell into a padded
``(queries × probed width)`` matrix; a one-query ``search`` scans its probed
cells as one dense row.  Both must return the same ids in the same order
(ties included) and the same similarities up to the BLAS batch-size effects
``test_batched_parity`` documents: 2e-6 for float32, 1e-9 for float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import BruteForceIndex, IVFIndex

TOLERANCES = [(np.float32, 2e-6), (np.float64, 1e-9)]


def _assert_batch_matches_single(index, queries, k, exclusions=None):
    batched = index.search_batch(queries, k=k, exclude_per_query=exclusions)
    assert len(batched) == len(queries)
    atol = 2e-6 if index.dtype == np.float32 else 1e-9
    for row, query in enumerate(queries):
        exclude = None if exclusions is None else exclusions[row]
        ids, sims = index.search(query, k=k, exclude=exclude)
        np.testing.assert_array_equal(batched[row][0], ids)
        np.testing.assert_allclose(batched[row][1], sims, rtol=0, atol=atol)
    return batched


@pytest.mark.parametrize("dtype,atol", TOLERANCES)
@pytest.mark.parametrize("n_probe", [1, 4, 12])
def test_batch_matches_single_for_every_probe_width(rng, dtype, atol, n_probe):
    index = IVFIndex(num_cells=12, n_probe=n_probe, rng=rng, dtype=dtype).build(
        rng.normal(size=(300, 8))
    )
    queries = rng.normal(size=(40, 8))
    batched = _assert_batch_matches_single(index, queries, k=15)
    if n_probe == index.num_cells:
        # probing every cell is exact search over the whole index
        exact = BruteForceIndex(dtype=dtype).build(index._vectors)
        for (ids, sims), (exact_ids, exact_sims) in zip(batched, exact.search_batch(queries, k=15)):
            np.testing.assert_array_equal(ids, exact_ids)
            np.testing.assert_allclose(sims, exact_sims, rtol=0, atol=atol)


def test_exclusion_lists_longer_than_one_id(rng):
    index = IVFIndex(num_cells=6, n_probe=3, rng=rng).build(rng.normal(size=(120, 6)))
    queries = rng.normal(size=(17, 6))
    exclusions = [
        None if row % 4 == 0 else rng.choice(120, size=1 + row % 9, replace=False)
        for row in range(len(queries))
    ]
    batched = _assert_batch_matches_single(index, queries, k=20, exclusions=exclusions)
    for (ids, _), exclude in zip(batched, exclusions):
        if exclude is not None:
            assert len(ids) > 0
            assert not set(ids.tolist()) & set(exclude.tolist())


def test_empty_cell_is_scanned_as_nothing(rng):
    for n_probe in (1, 2):
        index = IVFIndex(num_cells=4, n_probe=n_probe, rng=rng).build(rng.normal(size=(80, 5)))
        # Moving every member of cell 0 onto centroid 1 leaves cell 0 empty.
        members = sorted(index._cells[0])
        index.update_batch(members, np.tile(index._centroids[1], (len(members), 1)))
        assert not index._cells[0]
        queries = np.vstack([index._centroids[0], rng.normal(size=(12, 5))])
        batched = _assert_batch_matches_single(index, queries, k=10)
        if n_probe == 1:
            # the query at the empty cell's centroid probes nothing else
            assert len(batched[0][0]) == 0 and len(batched[0][1]) == 0


@pytest.mark.parametrize("n_probe", [2, 3, 4])
def test_tied_zero_gap_rows_keep_ascending_position_order(rng, n_probe):
    """``add_users`` gap rows are all-zero: they tie at 0.0 with every query.

    Real rows sit in the positive orthant and queries in the negative one, so
    every real row scores below zero and the gap rows take the top places.
    With the k-th place inside the tie group, both scans must return the
    lowest gap positions first — the tie order ``top_k_rows`` documents.
    """

    index = IVFIndex(num_cells=4, n_probe=n_probe, rng=rng).build(
        np.abs(rng.normal(size=(40, 4)))
    )
    index.add(np.zeros((12, 4)))
    queries = -np.abs(rng.normal(size=(30, 4)))
    batched = _assert_batch_matches_single(index, queries, k=5)
    saw_ties = False
    for ids, sims in batched:
        tied = ids[sims == 0.0]
        if len(tied):
            saw_ties = True
            np.testing.assert_array_equal(tied, np.arange(40, 40 + len(tied)))
    assert saw_ties
