"""Real-time serving engine for SCCF (Section III-C2 and Table III).

A deployed candidate generator must react to every new click within
milliseconds.  :class:`RealTimeServer` maintains, per user:

* the live interaction history (training history plus streamed events),
* the current user embedding, refreshed by *inference* through the wrapped
  inductive UI model whenever a new event arrives,
* the neighbor index entry, updated in place so subsequent neighborhood
  queries see the new embedding.

Two ingestion routes are exposed:

* :meth:`RealTimeServer.observe` — the per-event hot path the paper times in
  Table III; it reports "inferring time" (the UI forward pass) and
  "identifying time" (the similarity search) separately so the latency
  benchmark can print the same rows as the paper.
* :meth:`RealTimeServer.observe_batch` — micro-batched ingestion: a whole
  slice of the click stream is coalesced per user, all touched users'
  embeddings are refreshed in one batched forward, the index rows are
  replaced in one vectorized write, and the neighborhoods are re-identified
  through one batched search.  ``observe`` is ``observe_batch`` with a batch
  of one, so the two paths cannot drift.

Serving mirrors ingestion: :meth:`RealTimeServer.recommend_batch` is the
canonical read path — a whole *window* of concurrent requests is validated
up front, probed against the serving cache per request, and the remaining
distinct users are scored through one
:meth:`~repro.core.sccf.SCCF.score_items_batch` call.
:meth:`RealTimeServer.recommend` is ``recommend_batch`` with a batch of one,
so the live and coalesced paths cannot drift (the same batch-of-one rule the
ingest side follows, machine-enforced by repolint's RL003).

:class:`EventBuffer` sits in front of the server and turns an event-at-a-time
producer (a clickstream, a message queue consumer) into micro-batches,
flushing automatically every ``flush_size`` events.  The *request*-side
equivalent for live traffic — concurrent callers coalesced into
``recommend_batch``/``observe_batch`` windows — is
:class:`repro.serving.AsyncFrontend`.

Cold-start users streamed in at serve time are *added* to the neighborhood
pool (the index grows) instead of being silently excluded, so a brand-new
user becomes retrievable as other users' neighbor after her first click.
"""

from __future__ import annotations

import itertools
import numbers
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ann import DEFAULT_RETRAIN_THRESHOLD, search_batch
from ..data.datasets import RecDataset
from ..models.base import history_coordinates
from .cache import MISS
from .sccf import _NEG_INF, SCCF
from .snapshot import read_snapshot, write_snapshot
from .wal import (
    WALError,
    WriteAheadLog,
    decode_payload,
    encode_events,
    encode_maintain,
    replay_wal,
)

__all__ = [
    "HealthReport",
    "LatencyBreakdown",
    "MaintenanceReport",
    "MaintenanceScheduler",
    "RealTimeServer",
    "RecommendRequest",
    "EventBuffer",
]


def _as_id(value: object, name: str) -> int:
    """Coerce a request-supplied id to ``int``, rejecting junk with a clear error.

    Request ids arrive from outside the process (JSON payloads, CSV streams),
    where ``float("nan")``, ``7.5`` or ``"7"`` are one sloppy producer away.
    A bare ``int(value)`` silently truncates 7.5 to 7 and raises a cryptic
    ``cannot convert float NaN to integer`` deep in numpy for NaN — so ids
    are vetted here, at the request boundary: true integers (including numpy
    integer scalars) pass through, integral-valued floats are accepted
    (``7.0`` → 7), and everything else — NaN, infinities, fractional floats,
    strings, None — fails with a ``ValueError`` naming the offending field.
    """

    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not value.is_integer():
            raise ValueError(f"{name} must be an integer, got non-integral {value!r}")
        return int(value)
    raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


@dataclass
class HealthReport:
    """One self-contained liveness snapshot of a serving stack.

    Produced by :meth:`RealTimeServer.health` — the signal a load balancer
    or orchestrator polls.  ``healthy`` is the headline bit; a serving stack
    that answers ``health()`` is up, so it is always True today.  The
    counters are lifetime totals; poll twice and difference them for rates.
    """

    healthy: bool
    #: index-level: searches answered from a strict subset of shards
    degraded_requests: int = 0
    #: server-level: recommends whose scoring ran degraded (not cached)
    served_degraded: int = 0
    #: recommends answered from a stale cache entry after scoring failed
    served_stale: int = 0
    #: recommends whose scoring raised (answered stale or empty instead)
    recommend_failures: int = 0
    #: recommends that finished after their deadline
    deadline_misses: int = 0
    #: p50/p99 over the bounded per-request recommend window, in ms (``None``
    #: before the first sample).  For requests admitted through the async
    #: front-end the samples *include queue and window wait*, so these are
    #: the honest SLO numbers an operator alarms on, not per-batch averages.
    recommend_p50_ms: Optional[float] = None
    recommend_p99_ms: Optional[float] = None
    #: p50/p99 over the bounded per-request observe window, in ms — each
    #: event's admission-to-flushed wall time, queue wait included
    observe_p50_ms: Optional[float] = None
    observe_p99_ms: Optional[float] = None
    maintenance_passes: int = 0
    maintenance_failures: int = 0
    #: stringified failure of the most recent maintenance pass (None after a
    #: success) — how an operator sees a contained shadow-retrain failure
    last_maintenance_error: Optional[str] = None
    #: serving-cache counters (None when no cache is attached)
    cache: Optional[object] = None
    #: journaled records not yet covered by a snapshot — the replay length a
    #: crash right now would pay (None when no WAL is attached)
    wal_lag: Optional[int] = None
    #: fsyncs the journal has issued — the observable group-commit cadence
    wal_fsyncs: Optional[int] = None
    #: journal fsyncs that failed (each one surfaced as a WALError)
    wal_fsync_failures: Optional[int] = None
    #: full :class:`~repro.core.wal.WALStats` (None when no WAL is attached)
    wal: Optional[object] = None


@dataclass
class LatencyBreakdown:
    """Timing of one ingestion call (milliseconds).

    For the per-event path this is one event's breakdown; for a micro-batch
    flush it is the total over the whole batch, with ``num_events`` recording
    how many events the batch coalesced (so per-event averages stay
    comparable across the two paths).
    """

    inferring_ms: float
    identifying_ms: float
    num_events: int = 1

    @property
    def total_ms(self) -> float:
        return self.inferring_ms + self.identifying_ms


@dataclass
class MaintenanceReport:
    """Outcome of one :meth:`RealTimeServer.maintain` pass.

    ``supported`` is ``False`` when the neighbor index has no maintenance
    surface (e.g. a plain brute-force index — nothing to re-cluster);
    imbalance fields are then ``None``.  ``prefilled_users`` counts how many
    head users had their serving-cache entries re-warmed after a retrain
    (0 when nothing retrained, no cache is attached, or prefill was off).

    ``shadow`` records whether the retrain ran blue/green — cloned into a
    shadow index and atomically published — rather than in place;
    ``journaled_mutations`` counts the mutations that arrived while the
    shadow was building and were replayed onto it before the swap.
    ``error`` carries the stringified failure of a shadow pass that was
    contained (the live index kept serving, untouched).
    """

    supported: bool
    retrained: bool = False
    imbalance_before: Optional[float] = None
    imbalance_after: Optional[float] = None
    threshold: Optional[float] = None
    duration_ms: float = 0.0
    prefilled_users: int = 0
    shadow: bool = False
    journaled_mutations: int = 0
    error: Optional[str] = None


@dataclass
class _ShadowBuild:
    """Book-keeping for one in-flight background shadow retrain."""

    shadow: Any
    imbalance_before: float
    threshold: float
    started: float
    thread: Optional[threading.Thread] = None
    error: Optional[BaseException] = None


@dataclass
class _UserState:
    history: List[int] = field(default_factory=list)
    embedding: Optional[np.ndarray] = None


@dataclass
class RecommendRequest:
    """One serving request for :meth:`RealTimeServer.recommend_batch`.

    ``start`` is the ``time.perf_counter()`` timestamp at which the request
    was *admitted* — a queueing front-end stamps its enqueue time here, so
    the recorded latency and the deadline check both include queue and
    window wait.  ``None`` means "admitted now".  ``deadline_ms=None`` falls
    back to the server's ``default_deadline_ms``.
    """

    user_id: int
    k: int = 50
    exclude_seen: bool = True
    deadline_ms: Optional[float] = None
    start: Optional[float] = None


@dataclass
class _PreparedRequest:
    """A validated :class:`RecommendRequest` with defaults resolved."""

    user_id: int
    k: int
    exclude_seen: bool
    deadline_ms: Optional[float]
    start: float


def _window_percentiles(
    window: Deque[float],
) -> Tuple[Optional[float], Optional[float]]:
    """(p50, p99) over a bounded latency window; ``(None, None)`` when empty."""

    if not window:
        return None, None
    values = np.asarray(window, dtype=np.float64)
    return float(np.percentile(values, 50)), float(np.percentile(values, 99))


class RealTimeServer:
    """Streaming wrapper that keeps SCCF's user state fresh event by event.

    Parameters
    ----------
    sccf:
        A fitted :class:`~repro.core.sccf.SCCF` instance.
    dataset:
        The dataset the model was fitted on; its training histories seed the
        per-user state.
    latency_window:
        Number of most recent ingestion breakdowns (and, separately, of
        recommend latencies) kept for the latency reports.  A long-running
        server observes an unbounded stream, so the windows are bounded (a
        plain list would be a memory leak).
    maintenance_every:
        When set, attach a :class:`MaintenanceScheduler` that calls
        :meth:`maintain` after every ``maintenance_every`` observed events,
        so a skewed IVF index is re-clustered without any caller-side timer.
    activity_window:
        Number of most recent requests (observes and recommends, per event)
        whose user ids are remembered for head-user statistics — the
        population :meth:`prefill_cache` draws the "most-frequent recent
        users" from.  Bounded like the latency windows.
    default_deadline_ms:
        Per-request serving deadline applied to every :meth:`recommend` that
        does not pass its own ``deadline_ms``.  A finished-but-late request
        is still returned (the work is already done — discarding it helps
        nobody) but counted in ``deadline_misses``, the signal an operator
        alarms on.  ``None`` (default) disables deadline tracking.
    wal_dir:
        When set, attach a :class:`~repro.core.wal.WriteAheadLog` over this
        directory and journal every ``observe_batch`` payload (and every
        retraining ``maintain`` pass) *before* applying it, so recovery is
        snapshot + journal replay — see :meth:`save_snapshot` /
        :meth:`load_snapshot` / :meth:`catch_up`.  ``None`` (default) keeps
        ingestion non-durable, exactly as before.
    wal_fsync:
        Durability policy for the attached journal — ``"always"``,
        ``"batch"`` or ``"interval"`` (ignored without ``wal_dir``).
    wal:
        A pre-constructed :class:`~repro.core.wal.WriteAheadLog` to attach
        instead (full control over batch size, interval, rotation);
        mutually exclusive with ``wal_dir``.
    """

    #: distinguishes servers sharing one SCCF in the cache's request keys —
    #: their streamed histories diverge while the shared version counters do
    #: not, so one server must never be served another's cached list
    _serials = itertools.count()

    def __init__(
        self,
        sccf: SCCF,
        dataset: RecDataset,
        latency_window: int = 4096,
        maintenance_every: Optional[int] = None,
        activity_window: int = 4096,
        default_deadline_ms: Optional[float] = None,
        wal_dir: Optional["str | Path"] = None,
        wal_fsync: str = "batch",
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        if not getattr(sccf, "_fitted", False):
            raise ValueError("SCCF must be fitted before serving")
        if latency_window <= 0:
            raise ValueError("latency_window must be positive")
        if activity_window <= 0:
            raise ValueError("activity_window must be positive")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        self.sccf = sccf
        self.default_deadline_ms = default_deadline_ms
        #: recommends whose scoring ran while the neighbor index was serving
        #: degraded (answered from surviving shards; never cached)
        self.served_degraded = 0
        #: recommends answered from a stale cache entry after scoring failed
        self.served_stale = 0
        #: recommends whose scoring raised (fell back to stale-or-empty)
        self.recommend_failures = 0
        #: recommends that finished after their deadline
        self.deadline_misses = 0
        self.num_items = dataset.num_items
        self._serial = next(RealTimeServer._serials)
        self._states: Dict[int, _UserState] = {}
        for user, sequence in dataset.train.user_sequences().items():
            self._states[user] = _UserState(history=list(sequence))
        self.latencies: Deque[LatencyBreakdown] = deque(maxlen=latency_window)
        #: per-call recommend latencies in ms — tracked separately from the
        #: ingestion breakdowns so a read-heavy workload's serving cost is
        #: never conflated with ingestion cost (it used to be: only observe
        #: recorded latencies, so ``average_latency`` reported ingestion cost
        #: as if it were the serving cost).
        self.recommend_latencies: Deque[float] = deque(maxlen=latency_window)
        #: per-event observe wall latencies in ms (admission → flushed) — the
        #: read path's ``recommend_latencies`` twin for the write path.  For
        #: direct ``observe``/``observe_batch`` calls each event's sample is
        #: the call's own wall time; the async front-end passes its enqueue
        #: timestamps (``request_starts``) so queue wait is included.
        self.observe_request_latencies: Deque[float] = deque(maxlen=latency_window)
        #: user ids of the most recent requests (observes + recommends) —
        #: the head-user population for post-retrain cache prefill
        self._recent_active: Deque[int] = deque(maxlen=activity_window)
        #: the most recent MaintenanceReport (success or contained failure)
        self.last_maintenance: Optional[MaintenanceReport] = None
        #: the in-flight background shadow retrain, if any
        self._shadow_build: Optional[_ShadowBuild] = None
        if wal is not None and wal_dir is not None:
            raise ValueError("pass either wal_dir or wal, not both")
        if wal is None and wal_dir is not None:
            wal = WriteAheadLog(Path(wal_dir), fsync=wal_fsync)
        #: the attached write-ahead journal (None: ingestion is not durable)
        self.wal = wal
        #: highest journal sequence whose effects this server's state holds.
        #: Plain construction assumes the in-memory state is current with the
        #: journal tail; :meth:`load_snapshot` rewinds it to the snapshot's
        #: covered sequence before replaying.
        self._wal_applied_seq = wal.last_seq if wal is not None else 0
        #: True while :meth:`catch_up` replays journal records — suppresses
        #: re-journaling and scheduler notifications (replay must not write
        #: duplicate records or trigger new maintenance passes of its own)
        self._replaying = False
        self.scheduler: Optional[MaintenanceScheduler] = (
            MaintenanceScheduler(self, every_events=maintenance_every)
            if maintenance_every is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # streaming updates
    # ------------------------------------------------------------------ #
    def observe(self, user_id: int, item_id: int) -> LatencyBreakdown:
        """Ingest one new interaction and refresh the user's neighborhood state.

        Returns the latency breakdown of the two real-time steps.  The
        neighborhood *query* itself (identifying similar users) is measured
        here because the paper's Table III reports "identifying time" — the
        cost of finding the β neighbors with the refreshed embedding.  This
        is :meth:`observe_batch` with a batch of one.
        """

        breakdown = self.observe_batch([(user_id, item_id)])
        assert breakdown is not None  # non-empty batch always returns a breakdown
        return breakdown

    def _validate_event(self, user_id: object, item_id: object) -> Tuple[int, int]:
        """Vet one ``(user_id, item_id)`` pair at the request boundary.

        The single definition behind :meth:`observe_batch`'s validate-first
        loop, :meth:`EventBuffer.push`'s eager check, and the async
        front-end's admission — so the three boundaries cannot drift.  The
        cold-start grow path backs streamed ids with a dense block, so a
        single huge id would allocate unboundedly much memory; it is
        rejected here, before any state is touched.
        """

        user_id, item_id = _as_id(user_id, "user_id"), _as_id(item_id, "item_id")
        if user_id < 0:
            raise ValueError("user_id must be non-negative")
        neighborhood = self.sccf.neighborhood
        if user_id >= neighborhood.num_users + neighborhood.max_user_growth:
            raise ValueError(
                "user_id too far beyond the fitted range "
                f"(cold-start growth capped at {neighborhood.max_user_growth})"
            )
        if not 0 <= item_id < self.num_items:
            raise ValueError("item_id out of range")
        return user_id, item_id

    def observe_batch(
        self,
        events: Sequence[Tuple[int, int]],
        request_starts: Optional[Sequence[float]] = None,
    ) -> Optional[LatencyBreakdown]:
        """Ingest a micro-batch of ``(user_id, item_id)`` events at once.

        Events are coalesced per user (preserving each user's arrival order),
        then every touched user's state is refreshed with batched kernels:

        1. one ``infer_user_embeddings_batch`` forward over the touched users,
        2. one batched index row replacement (``update_users``), growing the
           index first for users streamed in beyond the fitted id range
           (``add_users``),
        3. one batched neighborhood search over the fresh embeddings.

        The final state is identical to feeding the same events one at a time
        through :meth:`observe` — only the amortized cost differs.  Returns
        the batch's latency breakdown, or ``None`` for an empty batch.

        ``request_starts`` (one ``time.perf_counter()`` stamp per event)
        lets a queueing front-end date each event back to its *admission*,
        so the per-event samples in ``observe_request_latencies`` include
        queue wait; direct callers omit it and each event is dated to this
        call's entry.

        With a WAL attached the validated batch is journaled *before* it is
        applied (write-ahead, one record per call), so a crash at any later
        point replays it from disk; a journal append failure (fsync error
        under ``"always"``) raises before any state is touched, and the
        caller — :class:`EventBuffer` restores its events, the async
        front-end fans the error out — can retry without losing anything.
        """

        entry = time.perf_counter()
        if request_starts is not None and len(request_starts) != len(events):
            raise ValueError("request_starts must have one entry per event")
        validated: List[Tuple[int, int]] = []
        for user_id, item_id in events:
            validated.append(self._validate_event(user_id, item_id))
        if not validated:
            return None
        if self.wal is not None and not self._replaying:
            self._wal_applied_seq = self.wal.append(encode_events(validated))
        return self._apply_observe_batch(validated, request_starts, entry)

    def _apply_observe_batch(
        self,
        validated: List[Tuple[int, int]],
        request_starts: Optional[Sequence[float]],
        entry: float,
    ) -> LatencyBreakdown:
        """Apply one already-validated (and already-journaled) event batch.

        The second half of :meth:`observe_batch`, shared with journal replay
        (:meth:`catch_up`) so a recovered server mutates its state through
        exactly the code the original server ran — the precondition for
        bit-identical recovery.
        """

        touched: List[int] = []
        seen: set = set()
        for user_id, item_id in validated:
            self._recent_active.append(user_id)
            self._states.setdefault(user_id, _UserState()).history.append(item_id)
            if user_id not in seen:
                seen.add(user_id)
                touched.append(user_id)
        histories = [self._states[user].history for user in touched]

        start = time.perf_counter()
        embeddings = np.asarray(
            self.sccf.ui_model.infer_user_embeddings_batch(histories), dtype=np.float64
        )
        inferring_ms = (time.perf_counter() - start) * 1000.0
        for row, user in enumerate(touched):
            self._states[user].embedding = embeddings[row]

        # Keep the index in sync so these users can serve as others' neighbors;
        # cold-start users beyond the fitted range grow the pool.
        neighborhood = self.sccf.neighborhood
        pool_size = neighborhood.num_users
        fresh = [row for row, user in enumerate(touched) if user >= pool_size]
        known = [row for row, user in enumerate(touched) if user < pool_size]
        if fresh:
            neighborhood.add_users(
                [touched[row] for row in fresh],
                self.sccf.ui_model,
                [histories[row] for row in fresh],
                embeddings=embeddings[fresh],
            )
        if known:
            neighborhood.update_users(
                [touched[row] for row in known],
                self.sccf.ui_model,
                [histories[row] for row in known],
                embeddings=embeddings[known],
            )

        start = time.perf_counter()
        search_batch(
            neighborhood.index,
            embeddings,
            neighborhood.num_neighbors,
            exclude_per_query=[np.asarray([user], dtype=np.int64) for user in touched],
        )
        identifying_ms = (time.perf_counter() - start) * 1000.0

        breakdown = LatencyBreakdown(
            inferring_ms=inferring_ms,
            identifying_ms=identifying_ms,
            num_events=len(validated),
        )
        if not self._replaying:
            # Journal replay is excluded from the telemetry windows: a
            # recovered server or tailing replica must report percentiles
            # shaped by real serving traffic, not by replay timings.
            self.latencies.append(breakdown)
            # One wall-clock sample *per event*, not per window: SLO
            # percentiles must not improve just because the front-end
            # coalesced harder.
            finish = time.perf_counter()
            starts = (
                request_starts if request_starts is not None else [entry] * len(validated)
            )
            for request_start in starts:
                self.observe_request_latencies.append((finish - request_start) * 1000.0)
        if self.scheduler is not None and not self._replaying:
            # Replay must not fire fresh maintenance passes of its own: the
            # passes that actually ran pre-crash are journal records and are
            # re-applied in their original stream positions.
            self.scheduler.notify(len(validated))
        return breakdown

    # ------------------------------------------------------------------ #
    # index maintenance (off the hot path)
    # ------------------------------------------------------------------ #
    def maintain(
        self,
        imbalance_threshold: Optional[float] = None,
        prefill_users: Optional[int] = None,
        shadow: bool = True,
    ) -> MaintenanceReport:
        """Re-cluster the neighbor index if streamed adds have skewed it.

        Streaming :meth:`observe` appends cold-start users to whichever IVF
        cells the *frozen* centroids pick, so a long-running server degrades
        toward a few giant cells.  This hook is meant to run off the hot path
        (a periodic timer, an idle worker): it checks the index's
        ``imbalance()`` statistic and triggers a full ``retrain()`` when it
        exceeds the threshold — ``imbalance_threshold`` if given, else the
        index's own ``retrain_threshold``, else
        :data:`~repro.ann.ivf.DEFAULT_RETRAIN_THRESHOLD`.  Retraining
        preserves ids and vectors, so serving results only change in which
        cells a query probes.  No-op (``supported=False``) for indexes
        without a maintenance surface, e.g. brute force.

        With ``shadow=True`` (the default) and a cloneable index the retrain
        runs **blue/green**: the live rows are cloned into a shadow index,
        re-clustering happens there, mutations that land meanwhile are
        journaled and replayed onto the shadow, and the result is published
        through one atomic reference swap — the published index is
        bit-identical to what an in-place retrain would have produced, and a
        retrain failure leaves the live index serving untouched (the failure
        is recorded on ``last_maintenance`` and re-raised).  ``shadow=False``
        forces the legacy in-place path, which mutates the serving index
        mid-retrain.  This synchronous form still blocks the caller either
        way; see :meth:`begin_shadow_maintenance` for the non-blocking
        variant the scheduler's background mode uses.

        ``prefill_users=K``: a retrain bumps the index epoch, which drops
        every epoch-validated serving-cache entry at once — the next request
        from *every* repeat visitor would pay a full recompute.  Passing K
        re-warms the cache for the K most-frequent recent users right here,
        off the hot path (see :meth:`prefill_cache`), so the post-retrain
        hit-rate cliff lands on maintenance instead of on live traffic.
        """

        if prefill_users is not None and prefill_users <= 0:
            raise ValueError("prefill_users must be positive")
        if self._shadow_build is not None:
            raise RuntimeError(
                "a background shadow maintenance build is already running; poll it first"
            )
        index = self.sccf.neighborhood.index
        if not (hasattr(index, "imbalance") and hasattr(index, "retrain")):
            report = MaintenanceReport(supported=False)
            self.last_maintenance = report
            return report
        if imbalance_threshold is None:
            imbalance_threshold = getattr(index, "retrain_threshold", None)
        if imbalance_threshold is None:
            imbalance_threshold = DEFAULT_RETRAIN_THRESHOLD
        start = time.perf_counter()
        before = index.imbalance()
        retrained = before > imbalance_threshold
        use_shadow = shadow and hasattr(index, "clone")
        journaled = 0
        if retrained:
            if use_shadow:
                journaled = self._shadow_retrain(index, before, imbalance_threshold, start)
            else:
                index.retrain()
        live = self.sccf.neighborhood.index  # re-read: a shadow publish swapped it
        prefilled = (
            len(self.prefill_cache(prefill_users))
            if retrained and prefill_users is not None
            else 0
        )
        report = MaintenanceReport(
            supported=True,
            retrained=retrained,
            imbalance_before=before,
            imbalance_after=live.imbalance() if retrained else before,
            threshold=imbalance_threshold,
            duration_ms=(time.perf_counter() - start) * 1000.0,
            prefilled_users=prefilled,
            shadow=use_shadow and retrained,
            journaled_mutations=journaled,
        )
        self.last_maintenance = report
        if retrained:
            # A retrain consumes the index RNG stream and bumps the epoch —
            # replay must re-run it at exactly this stream position for the
            # recovered server to stay bit-identical.  The *resolved*
            # threshold is recorded so replay retrains unconditionally-equal.
            self._journal_maintain(imbalance_threshold, use_shadow)
        return report

    def _journal_maintain(self, threshold: float, shadow: bool) -> None:
        """Journal one retraining maintenance pass (no-op without a WAL)."""

        if self.wal is None or self._replaying:
            return
        self._wal_applied_seq = self.wal.append(encode_maintain(threshold, shadow))

    def _shadow_retrain(
        self, index: Any, before: float, threshold: float, start: float
    ) -> int:
        """Clone → journal → retrain → publish; contain any failure.

        Runs synchronously on the calling thread.  On failure the journal is
        closed, a failure report lands on ``last_maintenance`` (so
        :meth:`health` surfaces it) and the exception propagates — the live
        index was never touched, so serving continues bit-identically.
        Returns the number of journaled mutations replayed onto the shadow.
        """

        neighborhood = self.sccf.neighborhood
        shadow = index.clone()
        neighborhood.begin_index_journal()
        try:
            shadow.retrain()
            return self._publish_shadow(shadow)
        except Exception as exc:
            if neighborhood.index_journal_active:
                neighborhood.end_index_journal()
            self.last_maintenance = MaintenanceReport(
                supported=True,
                retrained=False,
                imbalance_before=before,
                imbalance_after=before,
                threshold=threshold,
                duration_ms=(time.perf_counter() - start) * 1000.0,
                shadow=True,
                error=f"{type(exc).__name__}: {exc}",
            )
            raise

    def _publish_shadow(self, shadow: Any) -> int:
        """Atomically publish a fully built shadow index.

        Closes the mutation journal, replays its entries onto the shadow (so
        the shadow is bit-identical to an in-place retrain that saw the same
        mutations), bumps the epoch past the live index's — exactly one bump,
        so epoch-validated cache layers invalidate once — and swaps the
        reference.  The swap is a single assignment of a local name
        (machine-enforced by repolint's RL007): readers see either the old
        index or the fully built new one, never a half-retrained state.
        """

        neighborhood = self.sccf.neighborhood
        journal = neighborhood.end_index_journal()
        replayed = neighborhood.replay_index_journal(journal, shadow)
        live = neighborhood.index
        shadow.epoch = max(int(getattr(shadow, "epoch", 0)), int(getattr(live, "epoch", 0)) + 1)
        neighborhood.index = shadow
        return replayed

    # ------------------------------------------------------------------ #
    # background (non-blocking) shadow maintenance
    # ------------------------------------------------------------------ #
    def shadow_maintenance_active(self) -> bool:
        """True while a background shadow retrain is building."""

        return self._shadow_build is not None

    def begin_shadow_maintenance(
        self, imbalance_threshold: Optional[float] = None
    ) -> Optional[MaintenanceReport]:
        """Start a shadow retrain on a background thread; never blocks serving.

        The blocking part of blue/green maintenance is the re-cluster itself
        (kmeans over every row — BLAS matmuls that release the GIL), so that
        is *all* the worker thread runs: the clone and journal-begin happen
        here on the serving thread, and the replay/swap happens on the
        serving thread too, inside :meth:`poll_shadow_maintenance`.  Nothing
        the worker touches is shared with serving, so no lock guards the hot
        path.

        Returns the finished :class:`MaintenanceReport` when no build was
        needed (index unsupported or not cloneable, or imbalance below
        threshold) and ``None`` when a build was launched — call
        :meth:`poll_shadow_maintenance` from the serving thread to publish
        it.  Raises if a build is already in flight.
        """

        if self._shadow_build is not None:
            raise RuntimeError("a background shadow maintenance build is already running")
        index = self.sccf.neighborhood.index
        if not (
            hasattr(index, "imbalance")
            and hasattr(index, "retrain")
            and hasattr(index, "clone")
        ):
            report = MaintenanceReport(supported=False)
            self.last_maintenance = report
            return report
        if imbalance_threshold is None:
            imbalance_threshold = getattr(index, "retrain_threshold", None)
        if imbalance_threshold is None:
            imbalance_threshold = DEFAULT_RETRAIN_THRESHOLD
        start = time.perf_counter()
        before = index.imbalance()
        if before <= imbalance_threshold:
            report = MaintenanceReport(
                supported=True,
                retrained=False,
                imbalance_before=before,
                imbalance_after=before,
                threshold=imbalance_threshold,
                duration_ms=(time.perf_counter() - start) * 1000.0,
                shadow=True,
            )
            self.last_maintenance = report
            return report
        shadow = index.clone()
        self.sccf.neighborhood.begin_index_journal()
        build = _ShadowBuild(
            shadow=shadow, imbalance_before=before, threshold=imbalance_threshold, started=start
        )

        def _run() -> None:
            try:
                shadow.retrain()
            except Exception as exc:  # recorded, re-raised at poll time
                build.error = exc

        build.thread = threading.Thread(target=_run, name="shadow-retrain", daemon=True)
        self._shadow_build = build
        build.thread.start()
        return None

    def poll_shadow_maintenance(
        self, prefill_users: Optional[int] = None, wait: bool = False
    ) -> Optional[MaintenanceReport]:
        """Publish a finished background shadow build (serving-thread half).

        Returns ``None`` when no build is in flight or the build is still
        running (``wait=True`` blocks until it finishes instead).  When the
        build is done: replays the journaled mutations, swaps the reference,
        optionally re-warms the cache (``prefill_users``), and returns the
        success report.  A build that failed is contained exactly like the
        synchronous path — journal closed, live index untouched, failure
        report on ``last_maintenance`` — and its exception re-raised here.
        """

        build = self._shadow_build
        if build is None:
            return None
        assert build.thread is not None
        if not wait and build.thread.is_alive():
            return None
        build.thread.join()
        self._shadow_build = None
        neighborhood = self.sccf.neighborhood
        if build.error is not None:
            if neighborhood.index_journal_active:
                neighborhood.end_index_journal()
            self.last_maintenance = MaintenanceReport(
                supported=True,
                retrained=False,
                imbalance_before=build.imbalance_before,
                imbalance_after=build.imbalance_before,
                threshold=build.threshold,
                duration_ms=(time.perf_counter() - build.started) * 1000.0,
                shadow=True,
                error=f"{type(build.error).__name__}: {build.error}",
            )
            raise build.error
        journaled = self._publish_shadow(build.shadow)
        prefilled = len(self.prefill_cache(prefill_users)) if prefill_users is not None else 0
        report = MaintenanceReport(
            supported=True,
            retrained=True,
            imbalance_before=build.imbalance_before,
            imbalance_after=self.sccf.neighborhood.index.imbalance(),
            threshold=build.threshold,
            duration_ms=(time.perf_counter() - build.started) * 1000.0,
            prefilled_users=prefilled,
            shadow=True,
            journaled_mutations=journaled,
        )
        self.last_maintenance = report
        # Journaled at *publish* time — the stream position at which the new
        # index became visible.  Replay re-clusters a clone taken at this
        # position, so it holds the same rows and lands on the same epoch;
        # only the cell assignments may differ from a build whose clone
        # predated the interleaved observes (synchronous maintenance has no
        # such window and replays bit-identically).
        self._journal_maintain(build.threshold, True)
        return report

    def prefill_cache(self, num_users: int) -> List[int]:
        """Re-warm the serving cache for the ``num_users`` most-frequent recent users.

        Scores each head user through the normal serving path (a batch of one
        per user, exactly the shape :meth:`recommend` computes in — so the
        warmed entries are bit-identical to what a live request would cache),
        which populates the ``embeddings``, ``neighbors`` and ``scores``
        layers under the *current* epoch/version counters.  Head users come
        from the bounded recent-activity window (observes + recommends).
        Returns the users warmed; empty when no cache is attached or no
        activity was recorded.  Runs off the hot path — call it after any
        event that invalidates en masse (a retrain, an eviction storm).
        """

        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if self.sccf.cache is None or not self._recent_active:
            return []
        head = [user for user, _ in Counter(self._recent_active).most_common(num_users)]
        for user in head:
            state = self._states.get(user, _UserState())
            self.sccf.score_items_batch([user], histories=[state.history])
        return head

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def recommend(
        self,
        user_id: int,
        k: int = 50,
        exclude_seen: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> List[int]:
        """Top-``k`` fused candidates for the user's *current* (streamed) history.

        Repeat requests are served from the cache's ``recommendations``
        layer when the SCCF instance carries a
        :class:`~repro.core.cache.ServingCache`: the stored list is valid
        while the user's version counter and the neighbor index epoch are
        both unchanged — any ``observe`` (own or other users') or
        ``maintain`` retrain invalidates it, so a hit is always bit-identical
        to recomputing.  Latency is recorded in the ``recommend_latencies``
        window (never mixed into the ingestion breakdowns).

        The request degrades instead of failing.  The fallback chain:

        1. **Full scoring** through the sharded index's fan-out.  Under
           ``failure_policy="degrade"`` a shard outage answers from the
           surviving shards — the list is served but *not cached* (counted in
           ``served_degraded``).
        2. **Stale cache entry** — when scoring itself raises (every shard
           down, policy ``"raise"`` mid-outage, a backend bug), the last
           cached list for this exact request is served ignoring its
           freshness token (``served_stale``; ``recommend_failures`` counts
           the underlying error either way).
        3. **Empty list** — nothing cached either: the caller gets ``[]``,
           never the exception.

        ``deadline_ms`` (default: the server's ``default_deadline_ms``)
        bounds what this request *should* have taken; a late finish is still
        returned but counted in ``deadline_misses``.
        """

        return self.recommend_batch(
            [
                RecommendRequest(
                    user_id=user_id, k=k, exclude_seen=exclude_seen, deadline_ms=deadline_ms
                )
            ]
        )[0]

    def _admit_recommend(self, request: RecommendRequest, now: float) -> _PreparedRequest:
        """Validate one recommend request at the admission boundary.

        Runs *before* any degenerate-``k`` early return (the old path
        returned ``[]`` on ``k <= 0`` without ever looking at ``user_id`` or
        ``deadline_ms``, so ``recommend(float("nan"), k=0, deadline_ms=-5)``
        was silently accepted).  Shared with the async front-end so a
        malformed request is rejected at enqueue time and can never poison a
        coalesced window.
        """

        user_id = _as_id(request.user_id, "user_id")
        k = _as_id(request.k, "k")
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        elif deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        return _PreparedRequest(
            user_id=user_id,
            k=k,
            exclude_seen=request.exclude_seen,
            deadline_ms=deadline_ms,
            start=now if request.start is None else request.start,
        )

    def _rank_rows(self, scores: np.ndarray, k: int) -> List[List[int]]:
        """Rank masked ``(G, width)`` score rows into finite top-``k`` id lists.

        One row-wise ``argpartition`` selects each row's top ``k``, a stable
        sort orders them by descending score, and non-finite entries are
        dropped.  ``k`` is clamped to the row width as well as the catalog
        size: a server built over zero items, or an empty degraded score row,
        yields ``[]`` instead of crashing ``np.argpartition`` with ``kth=-1``.
        """

        top_k = min(k, self.num_items, scores.shape[1])
        if top_k <= 0:
            return [[] for _ in range(len(scores))]
        rows = np.arange(len(scores))[:, None]
        top = np.argpartition(-scores, kth=top_k - 1, axis=1)[:, :top_k]
        top_scores = scores[rows, top]
        order = np.argsort(-top_scores, axis=1, kind="stable")
        top = top[rows, order]
        finite = np.isfinite(top_scores[rows, order])
        return [items[keep].tolist() for items, keep in zip(top, finite)]

    def _rank_requests(
        self,
        score_rows: np.ndarray,
        row_of_user: Dict[int, int],
        requests: Sequence[Tuple[int, int, bool]],
    ) -> List[List[int]]:
        """Top-``k`` lists for distinct ``(user, k, exclude_seen)`` requests.

        Masks the whole window at once — the finite ``_NEG_INF`` sentinel of
        "sccf"-mode non-candidates and, where asked, each user's seen items
        become ``-inf`` so they can never pad a list — then ranks every
        request sharing a ``k`` with one :meth:`_rank_rows` call.
        """

        scores = score_rows[[row_of_user[user] for user, _, _ in requests]]
        scores[~(scores > _NEG_INF)] = -np.inf
        seen_rows, seen_items = history_coordinates(
            [
                self._states.get(user, _UserState()).history if exclude_seen else ()
                for user, _, exclude_seen in requests
            ]
        )
        scores[seen_rows, seen_items] = -np.inf
        ranked: List[List[int]] = [[] for _ in requests]
        by_k: Dict[int, List[int]] = {}
        for position, (_, k, _) in enumerate(requests):
            by_k.setdefault(k, []).append(position)
        for k, positions in by_k.items():
            block = scores if len(positions) == len(requests) else scores[positions]
            for position, items in zip(positions, self._rank_rows(block, k)):
                ranked[position] = items
        return ranked

    def recommend_batch(self, requests: Sequence[RecommendRequest]) -> List[List[int]]:
        """Serve a window of recommend requests through one batched scoring pass.

        The canonical read path — :meth:`recommend` is this with a window of
        one, and the async front-end (:class:`repro.serving.AsyncFrontend`)
        builds its windows here.  Per request, the semantics match the
        sequential loop exactly: validation first (a bad request raises
        before *any* request in the window is served), then the cache
        peek-then-get, then the full → degraded → stale → empty fallback
        chain, with one latency sample and one potential deadline miss per
        request.  What the window amortizes is the scoring pass: all
        cache-missing requests share a single ``score_items_batch`` call,
        deduplicated per user (two requests for the same user rank the same
        score row — exactly what the sequential loop's second iteration
        would have recomputed or read back from the cache).

        Requests whose deadline has already expired by window-build time
        (``start`` predates ``now`` by more than ``deadline_ms`` — queue
        wait under an overloaded front-end) skip the scoring pass entirely
        and short-circuit to the stale/empty tail of the fallback chain:
        scoring work the caller has already given up on only adds latency
        for everyone behind it.

        Degenerate ``k <= 0`` requests return ``[]`` *after* validation and
        do count a latency sample: they were admitted work, and under the
        front-end their sample carries real queue wait — dropping it would
        flatter the percentiles.
        """

        now = time.perf_counter()
        prepared = [self._admit_recommend(request, now) for request in requests]
        results: List[Optional[List[int]]] = [None] * len(prepared)
        cache = self.sccf.cache
        epoch = getattr(self.sccf.neighborhood.index, "epoch", None)
        keys: List[Optional[Tuple[int, int, int, bool, str]]] = [None] * len(prepared)
        tokens: List[Optional[Tuple[int, int, int]]] = [None] * len(prepared)
        stales: List[Any] = [MISS] * len(prepared)
        pending: List[int] = []
        for i, req in enumerate(prepared):
            self._recent_active.append(req.user_id)
            if req.k <= 0:
                results[i] = []
                self._finish_recommend(req.start, req.deadline_ms)
                continue
            if cache is not None and epoch is not None:
                # The key carries everything non-monotonic the list depends
                # on: the server serial (two servers sharing one SCCF hold
                # different streamed histories under the same shared
                # counters) and the scoring mode (set_mode() changes the
                # ranking without touching any counter).  The token holds
                # only monotonic counters.
                token = self.sccf._serving_token(req.user_id, epoch)
                key = (self._serial, req.user_id, req.k, req.exclude_seen, self.sccf.mode)
                # Peek before get: a token-stale entry is *deleted* by the
                # validated lookup, but it is exactly what the stale-serve
                # fallback wants to hold on to should scoring fail below.
                stales[i] = cache.recommendations.peek(key)
                value = cache.recommendations.get(key, token)
                keys[i], tokens[i] = key, token
                if value is not MISS:
                    results[i] = list(value)
                    self._finish_recommend(req.start, req.deadline_ms)
                    continue
            if req.deadline_ms is not None and (now - req.start) * 1000.0 > req.deadline_ms:
                # Expired while queued: no scoring slot, straight to the
                # stale/empty tail (the miss is counted by _finish_recommend).
                if stales[i] is not MISS:
                    self.served_stale += 1
                    results[i] = list(stales[i])
                else:
                    results[i] = []
                self._finish_recommend(req.start, req.deadline_ms)
                continue
            pending.append(i)
        if pending:
            rows: Dict[int, int] = {}
            for i in pending:
                rows.setdefault(prepared[i].user_id, len(rows))
            users = list(rows)
            histories = [self._states.get(user, _UserState()).history for user in users]
            index = self.sccf.neighborhood.index
            degraded_before = getattr(index, "degraded_requests", 0)
            try:
                score_rows = self.sccf.score_items_batch(users, histories=histories)
            except RuntimeError:
                # Scoring is a pure read — the failure is the index's (a
                # raise-policy shard outage, a backend bug); answer
                # stale-or-empty rather than letting a read take the
                # callers down with it.
                for i in pending:
                    self.recommend_failures += 1
                    if stales[i] is not MISS:
                        self.served_stale += 1
                        results[i] = list(stales[i])
                    else:
                        results[i] = []
                    self._finish_recommend(prepared[i].start, prepared[i].deadline_ms)
            else:
                degraded = getattr(index, "degraded_requests", 0) != degraded_before
                # Duplicate (user, k, exclude_seen) requests rank once and
                # share the list — the sequential loop's later duplicates
                # would have recomputed the identical ranking (or read it
                # back from the cache), so the outputs cannot differ.
                groups: Dict[Tuple[int, int, bool], int] = {}
                for i in pending:
                    req = prepared[i]
                    groups.setdefault((req.user_id, req.k, req.exclude_seen), len(groups))
                ranked = self._rank_requests(score_rows, rows, list(groups))
                first = [True] * len(groups)
                for i in pending:
                    req = prepared[i]
                    group = groups[(req.user_id, req.k, req.exclude_seen)]
                    result = ranked[group] if first[group] else list(ranked[group])
                    first[group] = False
                    if degraded:
                        # A survivors-only list is fine to serve once but
                        # must not be memoized: the token counters don't move
                        # when the shard heals.
                        self.served_degraded += 1
                    elif keys[i] is not None and cache is not None:
                        cache.recommendations.put(keys[i], tokens[i], tuple(result))
                    results[i] = result
                    self._finish_recommend(req.start, req.deadline_ms)
        return [[] if result is None else result for result in results]

    def _finish_recommend(self, start: float, deadline_ms: Optional[float]) -> None:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.recommend_latencies.append(elapsed_ms)
        if deadline_ms is not None and elapsed_ms > deadline_ms:
            self.deadline_misses += 1

    def health(self) -> HealthReport:
        """Assemble the :class:`HealthReport` an orchestrator polls (pure observation)."""

        index = self.sccf.neighborhood.index
        stats = self.sccf.cache_stats()
        scheduler = self.scheduler
        recommend_p50, recommend_p99 = _window_percentiles(self.recommend_latencies)
        observe_p50, observe_p99 = _window_percentiles(self.observe_request_latencies)
        last_error = (
            self.last_maintenance.error if self.last_maintenance is not None else None
        )
        if last_error is None and scheduler is not None:
            # in-place (non-shadow) failures never produce a report object —
            # the scheduler's containment record is the only trace
            last_error = scheduler.last_failure
        wal_stats = self.wal.stats() if self.wal is not None else None
        return HealthReport(
            healthy=True,
            degraded_requests=getattr(index, "degraded_requests", 0),
            served_degraded=self.served_degraded,
            served_stale=self.served_stale,
            recommend_failures=self.recommend_failures,
            deadline_misses=self.deadline_misses,
            recommend_p50_ms=recommend_p50,
            recommend_p99_ms=recommend_p99,
            observe_p50_ms=observe_p50,
            observe_p99_ms=observe_p99,
            maintenance_passes=scheduler.passes_run if scheduler is not None else 0,
            maintenance_failures=(
                scheduler.maintenance_failures if scheduler is not None else 0
            ),
            last_maintenance_error=last_error,
            cache=stats,
            wal_lag=wal_stats.lag if wal_stats is not None else None,
            wal_fsyncs=wal_stats.fsyncs if wal_stats is not None else None,
            wal_fsync_failures=(
                wal_stats.fsync_failures if wal_stats is not None else None
            ),
            wal=wal_stats,
        )

    # ------------------------------------------------------------------ #
    # crash-safe snapshot persistence
    # ------------------------------------------------------------------ #
    def save_snapshot(self, directory: "str | Path", keep: int = 2) -> Path:
        """Persist the serving state to a new crash-safe snapshot generation.

        Covers the neighbor index (vectors, ids, IVF centroids and cell
        assignments), the integrating MLP (weights plus frozen predict
        state), the serving-cache *configuration*, and the per-user streamed
        histories — everything needed for a replica to cold-start and serve
        bit-identical recommendations.  Cache entries and user embeddings
        are derivable and are never persisted.  Every file is written via
        tmp-file + fsync + atomic rename with a manifest committed last, so
        a crash mid-write can never leave a loadable-but-corrupt snapshot
        (see :mod:`repro.core.snapshot`).  Returns the generation directory.

        With a WAL attached the manifest additionally records the highest
        journal sequence this state covers, and journal segments wholly
        below it are pruned after the commit — the snapshot *is* the
        checkpoint, so the journal stays bounded and recovery replays only
        the records newer than the generation it loads.
        """

        if keep < 1:
            # write_snapshot would reject this too, but only after the walk
            # over every user history — validate before any work is done.
            raise ValueError("keep must be at least 1")
        if self._shadow_build is not None:
            raise RuntimeError("cannot snapshot while a shadow maintenance build is running")
        users = sorted(self._states)
        offsets = np.zeros(len(users) + 1, dtype=np.int64)
        values: List[int] = []
        for i, user in enumerate(users):
            history = self._states[user].history
            offsets[i + 1] = offsets[i] + len(history)
            values.extend(history)
        state = {
            "meta": {
                "format": "realtime-server",
                "default_deadline_ms": self.default_deadline_ms,
                "latency_window": int(self.latencies.maxlen or 0),
                "activity_window": int(self._recent_active.maxlen or 0),
                "maintenance_every": (
                    self.scheduler.every_events if self.scheduler is not None else None
                ),
                "num_items": int(self.num_items),
            },
            "histories": {
                "users": np.asarray(users, dtype=np.int64),
                "offsets": offsets,
                "values": np.asarray(values, dtype=np.int64),
            },
            "sccf": self.sccf.snapshot_state(),
        }
        epoch = int(getattr(self.sccf.neighborhood.index, "epoch", 0))
        generation = write_snapshot(
            Path(directory), state, epoch=epoch, keep=keep, wal_seq=self._wal_applied_seq
        )
        if self.wal is not None:
            # The manifest is committed: every record at or below the covered
            # sequence is redundant with this generation, so fully covered
            # segments can go.  (Records in the active segment survive until
            # rotation — pruning is per segment, never per record.)
            self.wal.prune(self._wal_applied_seq)
        return generation

    @classmethod
    def load_snapshot(
        cls,
        directory: "str | Path",
        sccf: SCCF,
        dataset: RecDataset,
        **overrides: Any,
    ) -> "RealTimeServer":
        """Cold-start a serving replica from the newest committed snapshot.

        ``directory`` may be the snapshot root (the newest committed
        generation is resolved through the ``CURRENT`` pointer) or one
        generation directory.  ``sccf`` must be constructed with the same
        config and already-fitted UI model the snapshot was taken from —
        the UI model is immutable at serving time and deliberately outside
        the snapshot; everything mutable is restored from disk.  ``dataset``
        re-supplies the training histories (they belong to the dataset, not
        the snapshot).  Keyword overrides replace any saved server
        constructor argument (e.g. ``maintenance_every``) and may add WAL
        wiring (``wal_dir=`` / ``wal=``).  The restored server serves
        bit-identically to the one that saved.  Attaching a WAL takes
        *ownership* of its directory (exclusive writer lock + torn-tail
        repair), so pointing ``wal_dir`` at a live primary's journal fails
        fast — a replica tails it read-only via :meth:`catch_up` instead.

        When a WAL is attached, recovery finishes the job: the manifest's
        covered sequence rewinds the applied-position marker and
        :meth:`catch_up` replays every journal record the snapshot does not
        already contain — so a server that crashed *after* its last snapshot
        comes back holding the journaled tail too, not just the snapshot.
        """

        payload = read_snapshot(Path(directory))
        state = payload.state
        sccf.restore_snapshot_state(state["sccf"])
        sccf._user_histories = dataset.train.user_sequences()
        meta = state["meta"]
        kwargs: Dict[str, Any] = {
            "latency_window": int(meta["latency_window"]),
            "maintenance_every": (
                None if meta["maintenance_every"] is None else int(meta["maintenance_every"])
            ),
            "activity_window": int(meta["activity_window"]),
            "default_deadline_ms": meta["default_deadline_ms"],
        }
        kwargs.update(overrides)
        server = cls(sccf, dataset, **kwargs)
        histories = state["histories"]
        offsets = histories["offsets"]
        values = histories["values"]
        states: Dict[int, _UserState] = {}
        for i, user in enumerate(histories["users"].tolist()):
            states[int(user)] = _UserState(
                history=values[int(offsets[i]) : int(offsets[i + 1])].tolist()
            )
        server._states = states
        server._wal_applied_seq = payload.wal_seq
        if server.wal is not None:
            server.catch_up(server.wal.directory)
        return server

    def catch_up(self, wal_dir: "str | Path") -> int:
        """Replay journal records this server has not applied yet.

        Reads ``wal_dir`` through the read-only scanner (never truncating —
        safe against a *live* primary's journal) and applies every committed
        record with a sequence beyond ``_wal_applied_seq``, in order:
        event records re-run :meth:`_apply_observe_batch`, maintenance
        records re-run :meth:`maintain` with the recorded resolved threshold.
        Replay is marked (``_replaying``) so nothing is re-journaled, the
        scheduler stays quiet, and the latency/SLO telemetry windows are
        untouched.  Returns the number of records applied.

        Replay is contiguity-checked: every replayed sequence must be
        exactly the last applied one + 1.  A gap — the primary checkpointed
        and pruned past this server's position, or an older snapshot
        generation was loaded against a newer journal — raises
        :class:`~repro.core.wal.WALError` *before* anything is applied out
        of order; re-bootstrap from the latest snapshot instead of serving a
        silently divergent state.

        Two callers: crash recovery (:meth:`load_snapshot` replaying the
        server's own journal tail) and replica tailing — a cold-started
        replica pointing at the primary's journal directory calls this
        periodically and converges to the primary's exact state.
        """

        applied = 0
        for seq, payload in replay_wal(Path(wal_dir), after_seq=self._wal_applied_seq):
            if seq != self._wal_applied_seq + 1:
                raise WALError(
                    f"journal gap: expected seq {self._wal_applied_seq + 1}, found "
                    f"{seq} in {wal_dir} — the journal no longer covers this "
                    "server's position; re-bootstrap from the latest snapshot"
                )
            kind, body = decode_payload(payload)
            self._replaying = True
            try:
                if kind == "events":
                    events = [self._validate_event(user, item) for user, item in body]
                    self._apply_observe_batch(events, None, time.perf_counter())
                else:
                    self.maintain(float(body["threshold"]), shadow=bool(body["shadow"]))
            finally:
                self._replaying = False
            self._wal_applied_seq = seq
            applied += 1
        return applied

    def sync_wal(self) -> None:
        """Force-flush the attached journal (no-op without one).

        The shutdown hook: lazy fsync policies (``"batch"``/``"interval"``)
        may hold a tail of acknowledged records in the OS cache — a clean
        shutdown calls this so that tail is never forfeited.
        """

        if self.wal is not None:
            self.wal.sync()

    def history(self, user_id: int) -> List[int]:
        return list(self._states.get(user_id, _UserState()).history)

    def average_latency(self) -> Optional[LatencyBreakdown]:
        """Per-event mean *ingestion* latency over the bounded window (Table III rows).

        Batch entries are weighted by the number of events they coalesced, so
        per-event and micro-batched ingestion report comparable numbers.
        Serving cost is tracked separately — see
        :meth:`average_recommend_latency_ms`.
        """

        if not self.latencies:
            return None
        total_events = sum(entry.num_events for entry in self.latencies)
        return LatencyBreakdown(
            inferring_ms=float(sum(entry.inferring_ms for entry in self.latencies)) / total_events,
            identifying_ms=float(sum(entry.identifying_ms for entry in self.latencies))
            / total_events,
        )

    def average_recommend_latency_ms(self) -> Optional[float]:
        """Mean per-call :meth:`recommend` latency over the bounded window.

        ``None`` until the first recommend — a read-heavy workload's serving
        cost is reported here, never through :meth:`average_latency` (which
        covers ingestion only).
        """

        if not self.recommend_latencies:
            return None
        return float(sum(self.recommend_latencies)) / len(self.recommend_latencies)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the serving stack's resources (cascades through the SCCF).

        The cascade — server → :meth:`SCCF.close` →
        ``UserNeighborhoodComponent.close`` → ``index.close()`` — shuts down
        a sharded index's thread pool; with plain indexes it is a cheap
        no-op.  Idempotent, and also invoked by the context-manager exit.

        Closing tears down the *shared stack*, not just this server: when
        several servers serve one SCCF (a supported pattern — see the
        request-key serial), close once, after the last of them is done,
        rather than per server.

        An attached journal is closed too (flushing any group-commit tail),
        even when the SCCF teardown raises.
        """

        try:
            self.sccf.close()
        finally:
            if self.wal is not None:
                self.wal.close()

    def __enter__(self) -> "RealTimeServer":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        self.close()


class MaintenanceScheduler:
    """Event-count trigger for :meth:`RealTimeServer.maintain` (off the hot path).

    A long-running server streams cold-start adds into whichever IVF cells
    the frozen centroids pick, so the index slowly skews; somebody has to
    call :meth:`~RealTimeServer.maintain` periodically.  This scheduler does
    it by event count: every ``every_events`` observed events (counted across
    batches) one maintenance pass runs — after the ingestion breakdown is
    recorded, so the trigger never inflates the hot-path timings.  Because
    ``retrain`` bumps the index epoch, an attached serving cache drops every
    epoch-validated entry automatically and post-retrain serving stays
    consistent without any extra wiring.

    Construct it directly around any server, or let the server own one via
    ``RealTimeServer(..., maintenance_every=N)``.

    ``background=True`` switches to non-blocking blue/green maintenance:
    when the counter trips, :meth:`RealTimeServer.begin_shadow_maintenance`
    launches the re-cluster on a worker thread and every subsequent
    ``notify`` polls :meth:`RealTimeServer.poll_shadow_maintenance` until
    the build publishes — ingestion never stalls for the length of a
    retrain.  ``shadow=False`` (synchronous mode only) forces the legacy
    in-place retrain, which mutates the serving index mid-pass.

    ``checkpoint_every=N`` adds WAL checkpointing on the same off-hot-path
    cadence machinery: every N observed events the server snapshots into
    ``snapshot_dir`` (``keep=snapshot_keep`` generations), which records the
    covered journal sequence and prunes committed segments — so a durable
    server's journal (and its recovery replay time) stays bounded without
    any caller-side timer.  Checkpoint failures are contained exactly like
    maintenance failures (counted in ``checkpoint_failures``, recorded on
    ``last_failure``, never propagated into the triggering observe).
    """

    def __init__(
        self,
        server: "RealTimeServer",
        every_events: int = 1024,
        imbalance_threshold: Optional[float] = None,
        report_window: int = 64,
        prefill_users: Optional[int] = None,
        shadow: bool = True,
        background: bool = False,
        checkpoint_every: Optional[int] = None,
        snapshot_dir: Optional["str | Path"] = None,
        snapshot_keep: int = 2,
    ) -> None:
        if every_events <= 0:
            raise ValueError("every_events must be positive")
        if report_window <= 0:
            raise ValueError("report_window must be positive")
        if prefill_users is not None and prefill_users <= 0:
            raise ValueError("prefill_users must be positive")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if checkpoint_every is not None and snapshot_dir is None:
            raise ValueError("checkpoint_every requires snapshot_dir")
        if snapshot_keep < 1:
            raise ValueError("snapshot_keep must be at least 1")
        self.server = server
        self.every_events = every_events
        self.imbalance_threshold = imbalance_threshold
        #: when set, every retraining pass re-warms the serving cache for
        #: this many head users (see RealTimeServer.prefill_cache)
        self.prefill_users = prefill_users
        #: blue/green (clone → retrain → swap) instead of in-place retrain
        self.shadow = shadow
        #: run the re-cluster on a worker thread, publishing at a later notify
        self.background = background
        self.events_since_maintenance = 0
        #: total number of maintenance passes triggered over the lifetime
        self.passes_run = 0
        #: maintenance passes that raised (contained here, never propagated
        #: into the observe call that happened to trip the trigger)
        self.maintenance_failures = 0
        #: consecutive failed passes — drives the exponential backoff
        self.failure_streak = 0
        #: string form of the most recent failure (None after a success)
        self.last_failure: Optional[str] = None
        #: the most recent reports, in order — bounded like the server's
        #: latency windows (a long-running server triggers forever, so an
        #: unbounded list would be a memory leak)
        self.reports: Deque[MaintenanceReport] = deque(maxlen=report_window)
        #: WAL checkpointing cadence (None: scheduler never snapshots)
        self.checkpoint_every = checkpoint_every
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)
        self.snapshot_keep = snapshot_keep
        self.events_since_checkpoint = 0
        #: snapshots taken (and journals pruned) by this scheduler
        self.checkpoints_run = 0
        #: checkpoint attempts that raised (contained, like maintenance)
        self.checkpoint_failures = 0

    def notify(self, num_events: int = 1) -> Optional[MaintenanceReport]:
        """Count ``num_events`` freshly observed events; maybe run maintenance.

        Returns the :class:`MaintenanceReport` when a pass ran, else ``None``.
        The counter resets whether or not the pass retrained, so a balanced
        index is only *checked* every ``every_events`` events.

        A pass that **raises** is contained here: ingestion triggered it only
        incidentally, so the exception is recorded (``maintenance_failures``,
        ``last_failure``) instead of propagating into ``observe_batch`` and
        failing an unrelated write.  Repeated failures back off
        exponentially — after F consecutive failures the next attempt waits
        ``every_events * 2**min(F, 6)`` events — so a persistently broken
        retrain (corrupt index state, an OOM-ing re-cluster) costs a bounded
        slice of ingestion throughput rather than retrying at full cadence.
        Direct :meth:`RealTimeServer.maintain` calls still raise; operators
        asking explicitly deserve the traceback.

        With ``checkpoint_every`` set, the same call also advances the WAL
        checkpoint counter and snapshots when it trips — after the
        maintenance decision, so a checkpoint lands on the *post*-retrain
        state and covers the retrain's own journal record.
        """

        if num_events < 0:
            raise ValueError("num_events must be non-negative")
        report = self._advance_maintenance(num_events)
        self._maybe_checkpoint(num_events)
        return report

    def _advance_maintenance(self, num_events: int) -> Optional[MaintenanceReport]:
        """The maintenance half of :meth:`notify` (counter, trigger, containment)."""

        self.events_since_maintenance += num_events
        polled: Optional[MaintenanceReport] = None
        if self.background:
            polled = self._poll_background()
        required = self.every_events * (2 ** min(self.failure_streak, 6))
        if self.events_since_maintenance < required:
            return polled
        if self.background:
            if self.server.shadow_maintenance_active():
                # a build is still re-clustering; leave the counter tripped
                # and publish at a later notify
                return polled
            self.events_since_maintenance = 0
            try:
                report = self.server.begin_shadow_maintenance(self.imbalance_threshold)
            except Exception as exc:
                self._record_failure(exc)
                return polled
            if report is None:
                # launched: the pass completes (and is counted) at poll time
                return polled
        else:
            self.events_since_maintenance = 0
            try:
                report = self.server.maintain(
                    self.imbalance_threshold,
                    prefill_users=self.prefill_users,
                    shadow=self.shadow,
                )
            except Exception as exc:
                self._record_failure(exc)
                return None
        self._record_success(report)
        return report

    def _maybe_checkpoint(self, num_events: int) -> None:
        """The checkpoint half of :meth:`notify`: snapshot (and prune) on cadence."""

        if self.checkpoint_every is None:
            return
        self.events_since_checkpoint += num_events
        if self.events_since_checkpoint < self.checkpoint_every:
            return
        self.events_since_checkpoint = 0
        assert self.snapshot_dir is not None  # enforced by the constructor
        try:
            self.server.save_snapshot(self.snapshot_dir, keep=self.snapshot_keep)
        except Exception as exc:
            # Same containment contract as maintenance: the observe that
            # happened to trip the counter must not fail because a snapshot
            # (e.g. one refused mid-shadow-build) did.
            self.checkpoint_failures += 1
            self.last_failure = f"{type(exc).__name__}: {exc}"
        else:
            self.checkpoints_run += 1

    def _poll_background(self) -> Optional[MaintenanceReport]:
        """Advance (and account for) the in-flight background build, if any."""

        try:
            report = self.server.poll_shadow_maintenance(prefill_users=self.prefill_users)
        except Exception as exc:
            self._record_failure(exc)
            return None
        if report is not None:
            self._record_success(report)
        return report

    def _record_success(self, report: MaintenanceReport) -> None:
        self.failure_streak = 0
        self.last_failure = None
        self.reports.append(report)
        self.passes_run += 1

    def _record_failure(self, exc: Exception) -> None:
        self.maintenance_failures += 1
        self.failure_streak += 1
        self.last_failure = f"{type(exc).__name__}: {exc}"


class EventBuffer:
    """Coalesces streamed ``(user, item)`` events into micro-batch flushes.

    Producers push events one at a time; the buffer validates them eagerly
    (so a malformed event fails at ``push``, not inside a later flush of
    unrelated events) and hands the server one
    :meth:`RealTimeServer.observe_batch` call per ``flush_size`` events.
    Usable as a context manager — leftover events are flushed on exit:

    >>> with EventBuffer(server, flush_size=256) as buffer:   # doctest: +SKIP
    ...     for user, item in stream:
    ...         buffer.push(user, item)
    """

    def __init__(self, server: RealTimeServer, flush_size: int = 256) -> None:
        if flush_size <= 0:
            raise ValueError("flush_size must be positive")
        self.server = server
        self.flush_size = flush_size
        self._events: List[Tuple[int, int]] = []

    def push(self, user_id: int, item_id: int) -> Optional[LatencyBreakdown]:
        """Buffer one event; returns the flush breakdown if this push flushed."""

        self._events.append(self.server._validate_event(user_id, item_id))
        if len(self._events) >= self.flush_size:
            return self.flush()
        return None

    def flush(self) -> Optional[LatencyBreakdown]:
        """Drain the buffer through ``observe_batch``; ``None`` when empty.

        A failing flush (a contained maintenance failure propagating, a
        shard failure under ``failure_policy="raise"``) puts the whole
        micro-batch back at the *front* of the buffer before re-raising, so
        a retrying caller loses nothing and later pushes keep their order.
        """

        if not self._events:
            return None
        events, self._events = self._events, []
        try:
            return self.server.observe_batch(events)
        except BaseException:
            self._events = events + self._events
            raise

    def __len__(self) -> int:
        return len(self._events)

    @property
    def pending(self) -> List[Tuple[int, int]]:
        """A copy of the not-yet-flushed events."""

        return list(self._events)

    def __enter__(self) -> "EventBuffer":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        if exc_type is None:
            self.flush()
