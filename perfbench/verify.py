"""Output verification, run outside the timed region.

Read workloads: every list served to a seeded sample of users is compared
with the list an uncached, batch-of-one reference returns for that user.  The
reference is a deep copy of the stack taken before any traffic, so the live
stack's cache, windows and front-end cannot influence it.

``ingest_mix``: after a simulated crash, the server recovered from the latest
snapshot plus the WAL tail must match the live one — every user's history,
the journal's last sequence, the index rows, and the recommend lists of a
seeded sample of users (see :func:`check_recovery` for the one documented
exception).

Every mismatch counts as a failed operation.  :func:`self_check` shows that
the comparison catches a corrupted list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core import RealTimeServer
from repro.core.snapshot import read_snapshot
from repro.core.wal import decode_payload, replay_wal


@dataclass
class Verification:
    checked: int = 0
    mismatches: int = 0
    #: lists that differed from the reference only among tied scores
    tied: int = 0
    details: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str, times: int = 1) -> None:
        self.checked += times
        if not ok:
            self.mismatches += times
            if len(self.details) < 5:
                self.details.append(what)


def sample_users(users: Sequence[int], count: int, seed: int) -> List[int]:
    distinct = sorted(set(int(user) for user in users))
    if len(distinct) <= count:
        return distinct
    rng = np.random.default_rng([seed, 7])
    return sorted(int(user) for user in rng.choice(distinct, size=count, replace=False))


#: relative gap within which two fused scores count as tied.  Batched and
#: batch-of-one scoring run different BLAS kernels (gemm vs gemv, and float32
#: IVF scans grouped by probe cells), which moves scores by a few ulps; items
#: whose reference scores are that close may trade places.
SCORE_RTOL = 1e-6


@dataclass
class Reference:
    """The reference list of one user and the score row it was ranked from."""

    items: Tuple[int, ...]
    scores: np.ndarray


def reference_lists(
    reference: RealTimeServer, users: Sequence[int], k: int
) -> Dict[int, Reference]:
    """Uncached batch-of-one lists (and their score rows) from the reference copy."""

    out: Dict[int, Reference] = {}
    for user in users:
        items = tuple(reference.recommend(user, k=k))
        scores = reference.sccf.score_items_batch([user], histories=[reference.history(user)])[0]
        out[user] = Reference(items=items, scores=scores)
    return out


def same_ranking(served: Tuple[int, ...], want: Reference, rtol: float) -> bool:
    """Equal lists, or (``rtol > 0``) lists that differ only among tied scores."""

    if served == want.items:
        return True
    if rtol == 0.0 or len(served) != len(want.items):
        return False
    got = want.scores[np.asarray(served, dtype=np.int64)]
    expected = want.scores[np.asarray(want.items, dtype=np.int64)]
    return bool(np.all(np.abs(got - expected) <= rtol * np.maximum(1.0, np.abs(expected))))


#: how many times each (user, list) pair was served
Served = Mapping[Tuple[int, Tuple[int, ...]], int]


def check_served(
    served: Served,
    expected: Dict[int, Reference],
    rtol: float = SCORE_RTOL,
) -> Verification:
    """Compare every served list of a sampled user with the reference list.

    ``rtol=0`` demands identical lists (the bit-exact recovery contract).
    """

    result = Verification()
    for (user, items), times in served.items():
        want = expected.get(user)
        if want is None:
            continue
        ok = same_ranking(items, want, rtol)
        if ok and items != want.items:
            result.tied += times
        detail = ""
        if not ok:
            at = next(
                (i for i, (a, b) in enumerate(zip(items, want.items)) if a != b),
                min(len(items), len(want.items)),
            )
            detail = (
                f"user {user}: first difference at rank {at} of {len(want.items)}: "
                f"served {items[at:at + 3]} want {want.items[at:at + 3]} "
                f"(reference scores {want.scores[list(items[at:at + 3])].tolist()} vs "
                f"{want.scores[list(want.items[at:at + 3])].tolist()})"
            )
        result.expect(ok, detail, times)
    return result


def self_check(
    served: Served,
    expected: Dict[int, Reference],
    rtol: float = SCORE_RTOL,
) -> bool:
    """True when a corrupted copy of one checked list is reported as a mismatch."""

    for user, items in served:
        want = expected.get(user)
        if want is not None and len(items) >= 2:
            # Swap the best item for the worst: no tie tolerance can excuse it.
            corrupted = (items[-1],) + items[1:-1] + (items[0],)
            return check_served({(user, corrupted): 1}, expected, rtol).mismatches == 1
    return False


def tail_retrains(snapshot_dir: Path, wal_dir: Path) -> int:
    """Maintenance records in the journal tail that recovery replays."""

    covered = read_snapshot(snapshot_dir).wal_seq
    return sum(
        1 for _, payload in replay_wal(wal_dir, after_seq=covered)
        if decode_payload(payload)[0] == "maintain"
    )


def check_recovery(
    live: RealTimeServer,
    recovered: RealTimeServer,
    users: Sequence[int],
    sample: Sequence[int],
    k: int,
    retrains_replayed: int,
) -> Tuple[Verification, bool, int]:
    """The recovered server must hold and serve exactly what the live one does.

    Histories, the journal's last sequence, the index rows, ids and epoch must
    always be identical.  The sampled recommend lists must be identical too,
    except after the replay of a *background* shadow retrain: replay
    re-clusters a clone taken at the publish position, while the live build
    clustered the rows as they were when it started, so the cell assignments
    — and with them the approximate neighbours — may differ (documented at
    ``RealTimeServer.poll_shadow_maintenance``).  Lists that differ for that
    reason are returned as the divergence count instead of as mismatches.

    Returns the verification, the self-check over the sampled lists, and the
    divergence count.
    """

    result = Verification()
    differing = [user for user in users if recovered.history(user) != live.history(user)]
    result.expect(not differing, f"histories of {len(differing)} users differ: {differing[:5]}")
    live_seq = live.wal.last_seq if live.wal is not None else None
    recovered_seq = recovered.wal.last_seq if recovered.wal is not None else None
    result.expect(
        live_seq == recovered_seq, f"WAL seq: live {live_seq}, recovered {recovered_seq}"
    )
    live_index = live.sccf.neighborhood.index.snapshot_state()
    recovered_index = recovered.sccf.neighborhood.index.snapshot_state()
    for name in ("vectors", "ids"):
        result.expect(
            np.array_equal(live_index["arrays"][name], recovered_index["arrays"][name]),
            f"index {name} differ",
        )
    result.expect(
        live_index["meta"]["epoch"] == recovered_index["meta"]["epoch"], "index epoch differs"
    )
    expected = reference_lists(live, sample, k)
    served = Counter((user, tuple(recovered.recommend(user, k=k))) for user in sample)
    lists = check_served(served, expected, rtol=0.0)
    result.checked += lists.checked
    self_ok = self_check(served, expected, rtol=0.0)
    if retrains_replayed:
        return result, self_ok, lists.mismatches
    result.mismatches += lists.mismatches
    result.details.extend(lists.details[: 5 - len(result.details)])
    return result, self_ok, 0
