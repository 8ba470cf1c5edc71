"""Versioned serving cache for the SCCF recommend hot path.

The online deployment story (Table III) hinges on per-request latency, and
real traffic is heavily skewed toward *repeat visitors*: the same user asks
for recommendations again and again with nothing about her state — or her
neighborhood — having changed in between.  Recomputing the full pipeline
(user-embedding inference, neighbor search, candidate union, merger feature
assembly, MLP forward) for every such request is pure waste.

This module provides the cache as a proper *invalidation-correct* subsystem
rather than an ad-hoc memo.  Correctness rests on two families of
monotonically increasing counters maintained at the mutation points:

* **per-user embedding versions** — bumped by
  :meth:`~repro.core.user_neighborhood.UserNeighborhoodComponent.update_users`
  / ``add_users`` (and therefore by every ``RealTimeServer.observe`` /
  ``observe_batch``), so anything derived from a user's history or embedding
  can be validated in O(1);
* **index epochs** — bumped by any ``build`` / ``add`` / ``update`` /
  ``update_batch`` / ``retrain`` on the neighbor index
  (:class:`~repro.ann.brute_force.BruteForceIndex`,
  :class:`~repro.ann.ivf.IVFIndex`,
  :class:`~repro.ann.sharded.ShardedIndex`), so anything derived from *other
  users'* state (neighbor lists, fused scores, full recommendation lists) is
  invalidated by any mutation anywhere — a ``retrain`` invalidates
  everything epoch-keyed.

Every cache entry stores the ``(key, token, value)`` triple where ``token``
encodes the counters the value was computed under; a lookup whose stored
token no longer matches the current counters drops the entry and counts an
*invalidation*.  Token components are strictly monotonic (versions, epochs,
the merger generation), so a dropped entry could never have become valid
again; validation is a pure O(1) tuple comparison and a stale entry can
never be served.  Inputs the counters cannot see — caller-supplied
histories (:func:`history_fingerprint` embeds ``hash(tuple(history))``) and
caller-supplied query embeddings (``hash(embedding.tobytes())``) — are
fingerprinted into the *key* instead, so distinct explicit inputs for one
user coexist as separate entries (interleaving two flows never thrashes the
cache).  A 64-bit fingerprint collision would make two different explicit
inputs share a key — negligible in practice, but worth knowing when
reasoning about the invalidation model.  No *index or model* state is ever
hashed.  Re-fitting a component behind a fitted SCCF's back is covered for
the merger by its ``generation`` counter; re-fitting the UI model requires
``SCCF.fit`` (which rebuilds the neighborhood and clears the cache) to
produce a coherent stack at all, cached or not.

Layers (all bounded LRU, one capacity knob):

* ``embeddings``   — user id → inferred user embedding (survives index
  mutations: it depends only on the user's own history);
* ``neighbors``    — user id → ``(neighbor_ids, similarities)`` search
  result, keyed on ``(user_version, index_epoch, history fingerprint)``;
* ``scores``       — user id → full fused score row over the catalog;
* ``recommendations`` — ``(user id, k, exclude_seen)`` → final top-k list.

Enable it with ``SCCFConfig(cache_capacity=...)`` / ``make_sccf(...,
cache_capacity=...)`` or by passing a :class:`ServingCache` to ``SCCF``
directly; hit/miss/invalidation/eviction counters are surfaced through
:meth:`ServingCache.stats`.

Precision note: within the serving flow (``RealTimeServer.observe`` /
``recommend``) every scoring call is a batch of one, so a cache hit is
*bit-identical* to recomputing — the property suite pins this over random
interleaved workloads.  When the same cached SCCF also serves large
evaluation batches, an entry cached under one batch shape can differ from a
fresh computation under another by a few ulps of the narrowest dtype
involved: BLAS dispatches different kernels by batch shape (gemv at batch 1
vs gemm), so a float32 neighbor-index search answers a 1-row batch ~1e-7
apart from a 10-row batch, and deep-model inference (SASRec) shows the same
effect at float64 scale.  The values are equally valid rounding of the same
mathematical result; only cross-shape *comparisons* see it.
"""

from __future__ import annotations

import copy
import sys
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "MISS",
    "LayerStats",
    "CacheStats",
    "LRUCache",
    "ServingCache",
    "history_fingerprint",
    "serve_batch",
]


class _Miss:
    """Sentinel distinguishing "no entry" from a cached ``None`` value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<cache miss>"

    def __bool__(self) -> bool:
        return False


#: Returned by :meth:`LRUCache.get` when no valid entry exists.
MISS = _Miss()


@dataclass
class LayerStats:
    """Hit/miss accounting for one cache layer.

    ``invalidations`` counts entries dropped because their version/epoch
    token went stale (every invalidation is also a miss: the caller must
    recompute).  ``evictions`` counts entries pushed out by the LRU capacity
    bound.
    """

    name: str
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never consulted)."""

        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class CacheStats:
    """Per-layer :class:`LayerStats` plus aggregate totals (one report object)."""

    layers: List[LayerStats] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(layer.hits for layer in self.layers)

    @property
    def misses(self) -> int:
        return sum(layer.misses for layer in self.layers)

    @property
    def invalidations(self) -> int:
        return sum(layer.invalidations for layer in self.layers)

    @property
    def evictions(self) -> int:
        return sum(layer.evictions for layer in self.layers)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def layer(self, name: str) -> LayerStats:
        for entry in self.layers:
            if entry.name == name:
                return entry
        raise KeyError(f"no cache layer named {name!r}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "layers": [layer.as_dict() for layer in self.layers],
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def summary(self) -> str:
        """Aligned per-layer report (hit rates, invalidations, evictions)."""

        header = f"{'layer':<16}{'hits':>10}{'misses':>10}{'stale':>8}{'evicted':>9}{'hit rate':>10}"
        lines = [header, "-" * len(header)]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<16}{layer.hits:>10}{layer.misses:>10}"
                f"{layer.invalidations:>8}{layer.evictions:>9}{layer.hit_rate:>10.1%}"
            )
        lines.append(
            f"{'total':<16}{self.hits:>10}{self.misses:>10}"
            f"{self.invalidations:>8}{self.evictions:>9}{self.hit_rate:>10.1%}"
        )
        return "\n".join(lines)


def _value_nbytes(value: Any) -> int:
    """Approximate heap footprint of a cached value, in bytes.

    NumPy arrays report their buffer exactly (``nbytes``); containers sum
    their elements; everything else falls back to ``sys.getsizeof``.  Used
    only by byte-budgeted layers, so unbudgeted layers never pay the walk.
    """

    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_value_nbytes(entry) for entry in value)
    return sys.getsizeof(value)


class LRUCache:
    """Bounded LRU mapping ``key → (token, value)`` with token validation.

    ``token`` is the tuple of version counters the value was computed under
    (e.g. ``(user_version, index_epoch)``) — monotonic by contract; anything
    non-monotonic an entry depends on (a history fingerprint, a query hash)
    belongs in the *key*.  :meth:`get` only returns a value whose stored
    token equals the caller's current token; a mismatch drops the entry (it
    can never become valid again — counters are monotonic) and reports a
    miss.  Capacity 0 disables the layer: every ``put`` is a no-op and every
    ``get`` a miss.

    ``max_bytes`` adds a *memory* budget on top of the entry-count bound:
    each stored value's footprint (``value.nbytes`` for arrays) is tracked
    and the LRU tail is evicted until the layer fits the budget — an entry
    count says nothing about memory when values are full catalog-width score
    rows, so large catalogs bound the layer by bytes instead.  A single
    value bigger than the whole budget is simply not stored (storing it
    would evict everything else *and* still bust the budget).
    """

    def __init__(self, name: str, capacity: int, max_bytes: Optional[int] = None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (omit it for no byte budget)")
        self.name = name
        self.capacity = capacity
        self.max_bytes = max_bytes
        #: bytes currently held (0 unless the layer is byte-budgeted)
        self.total_bytes = 0
        self.stats = LayerStats(name=name)
        self._entries: "OrderedDict[Hashable, Tuple[Hashable, Any, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, token: Hashable) -> Any:
        """Return the cached value for ``key`` if its token is current, else :data:`MISS`."""

        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return MISS
        stored_token, value, nbytes = entry
        if stored_token != token:
            del self._entries[key]
            self.total_bytes -= nbytes
            self.stats.invalidations += 1
            self.stats.misses += 1
            return MISS
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def peek(self, key: Hashable) -> Any:
        """Return the stored value for ``key`` ignoring token freshness.

        The *stale-serve* escape hatch: when recomputation is impossible
        (every shard down, a deadline blown), a possibly-outdated
        answer beats an empty one.  No recency bump and no stats churn — a
        peek is not a lookup, and serving stale is the caller's explicit,
        counted decision (see ``RealTimeServer.recommend``'s fallback chain),
        never something the cache does silently.
        """

        entry = self._entries.get(key)
        return MISS if entry is None else entry[1]

    def put(self, key: Hashable, token: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``/``token``, evicting LRU entries while
        either bound (entry count, byte budget) is exceeded."""

        if self.capacity == 0:
            return
        nbytes = _value_nbytes(value) if self.max_bytes is not None else 0
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return  # oversized: would evict the whole layer and still not fit
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.total_bytes -= previous[2]
        elif len(self._entries) >= self.capacity:
            self._evict_lru()
        self._entries[key] = (token, value, nbytes)
        self.total_bytes += nbytes
        if self.max_bytes is not None:
            while self.total_bytes > self.max_bytes:
                self._evict_lru()

    def _evict_lru(self) -> None:
        _, (_, _, nbytes) = self._entries.popitem(last=False)
        self.total_bytes -= nbytes
        self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are preserved — they describe the lifetime)."""

        self._entries.clear()
        self.total_bytes = 0

    def reset_stats(self) -> None:
        self.stats = LayerStats(name=self.name)


class ServingCache:
    """The layered cache spanning the whole recommend hot path.

    One ``capacity`` bounds every layer independently (each layer keeps at
    most ``capacity`` entries).  Memory is dominated by the ``scores`` layer,
    whose values are full ``(num_items,)`` float64 rows — at a 1M-item
    catalog a single row is 8 MB, so a fixed entry count can blow memory no
    matter how small.  ``max_score_bytes`` bounds that layer by *tracked
    bytes* instead: the LRU tail is evicted whenever the stored rows exceed
    the budget, independent of the entry count.
    """

    def __init__(self, capacity: int = 1024, max_score_bytes: Optional[int] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive (omit the cache to disable it)")
        self.capacity = capacity
        self.max_score_bytes = max_score_bytes
        self.embeddings = LRUCache("embeddings", capacity)
        self.neighbors = LRUCache("neighbors", capacity)
        self.scores = LRUCache("scores", capacity, max_bytes=max_score_bytes)
        self.recommendations = LRUCache("recommendations", capacity)
        self._owner: Optional[weakref.ref] = None

    def snapshot_config(self) -> Dict[str, Any]:
        """Cache-free configuration for snapshot persistence.

        Snapshots never persist cache *entries* — they are derivable state
        that the restored server re-warms (``prefill_cache``) — only the
        shape needed to rebuild an equivalent empty cache.
        """

        return {"capacity": self.capacity, "max_score_bytes": self.max_score_bytes}

    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "ServingCache":
        """Rebuild an empty cache from :meth:`snapshot_config` output."""

        return cls(
            capacity=int(config["capacity"]),
            max_score_bytes=config.get("max_score_bytes"),
        )

    def bind(self, owner: object) -> None:
        """Claim this cache for ``owner`` (one SCCF stack per cache).

        Entry keys carry no model discriminator — two SCCF instances sharing
        one cache would serve each other's embeddings and scores — so the
        cache refuses a second live owner.  A cache whose previous owner is
        gone can be re-bound; its entries are dropped first (they encode the
        dead owner's model state).
        """

        current = self._owner() if self._owner is not None else None
        if current is owner:
            return
        if current is not None:
            raise ValueError(
                "this ServingCache is already attached to another SCCF; "
                "caches cannot be shared between stacks (entry keys carry "
                "no model discriminator)"
            )
        if len(self):
            self.clear()
        self._owner = weakref.ref(owner)

    def unbind(self, owner: object) -> None:
        """Release ownership if held by ``owner`` (no-op otherwise).

        Called when a stack detaches or replaces its cache, so the cache can
        be attached elsewhere afterwards; any leftover entries are dropped by
        the next :meth:`bind`.
        """

        current = self._owner() if self._owner is not None else None
        if current is owner:
            self._owner = None

    def __deepcopy__(self, memo: Dict[int, Any]) -> "ServingCache":
        """Deep copy that follows the owner into the copied object graph.

        ``weakref.ref`` is deepcopy-atomic, so without this the copy of a
        cache-attached SCCF would hold a cache still bound to the *original*
        stack — unbindable for as long as the original lives.  Re-pointing
        through ``memo`` makes the copied cache belong to the copied owner
        (deepcopying a bare owned cache copies its owner too — caches and
        stacks travel together).
        """

        clone = self.__class__.__new__(self.__class__)
        memo[id(self)] = clone
        for name, value in self.__dict__.items():
            if name == "_owner":
                owner = value() if value is not None else None
                clone._owner = (
                    None if owner is None else weakref.ref(copy.deepcopy(owner, memo))
                )
            else:
                setattr(clone, name, copy.deepcopy(value, memo))
        return clone

    @property
    def layers(self) -> List[LRUCache]:
        return [self.embeddings, self.neighbors, self.scores, self.recommendations]

    def stats(self) -> CacheStats:
        """A snapshot of the per-layer counters (a :class:`CacheStats` report).

        The returned report holds *copies* of the counters, so it can be kept
        for before/after comparisons while traffic keeps flowing; the live
        counters stay on each layer's ``stats`` attribute.
        """

        return CacheStats(layers=[replace(layer.stats) for layer in self.layers])

    def clear(self) -> None:
        """Drop every entry in every layer (used when the model is re-fitted)."""

        for layer in self.layers:
            layer.clear()

    def reset_stats(self) -> None:
        for layer in self.layers:
            layer.reset_stats()

    def __len__(self) -> int:
        return sum(len(layer) for layer in self.layers)


def serve_batch(
    layer: Optional["LRUCache"],
    keys: List[Hashable],
    tokens: List[Any],
    compute: "Callable[[List[int]], List[Any]]",
    cacheable: "Optional[Callable[[], bool]]" = None,
) -> List[Any]:
    """Batched cache-through: probe ``layer`` per key, recompute misses in one call.

    The one scaffold every cached layer shares — probe, collect the missing
    positions, recompute them together, store the fresh values — lives here
    so the invalidation logic cannot drift between call sites.
    ``compute(missing_positions)`` returns one fresh value per missing
    position (values are stored by reference: pass private copies for
    mutable values).  ``layer=None`` (cache disabled, or the index exposes
    no epoch) computes everything and stores nothing.  ``cacheable`` is an
    optional zero-argument predicate consulted *after* ``compute``: when it
    returns False the fresh values are served but **not stored** — the hook
    degraded serving uses to keep partial answers out of the cache (callers
    snapshot their index's ``degraded_requests`` counter before the call and
    compare after).  Returns the values aligned with ``keys``.
    """

    values: List[Any] = [MISS] * len(keys)
    if layer is not None:
        for position, (key, token) in enumerate(zip(keys, tokens)):
            values[position] = layer.get(key, token)
    missing = [position for position, value in enumerate(values) if value is MISS]
    if missing:
        fresh = compute(missing)
        store = layer is not None and (cacheable is None or cacheable())
        for position, value in zip(missing, fresh):
            values[position] = value
            if store:
                layer.put(keys[position], tokens[position], value)
    return values


def history_fingerprint(history: Optional[Sequence[int]]) -> Tuple[int, int, int]:
    """Fingerprint of a history: ``(length, last item, content hash)``.

    The per-user version counter alone pins the history for version-tracked
    flows (server state is append-only within a version), but the public
    ``history``/``histories`` parameters let callers score *any* sequence
    for a user — two different explicit histories must land on different
    cache entries, so the fingerprint is part of the *key* (keys are where
    non-monotonic inputs belong; tokens hold only monotonic counters).
    Hashing a tuple of ints is O(len(history)) but it only runs on paths
    that would otherwise run model inference over the same history (never
    on the O(1) recommendation-layer fast path), and no index or model
    state is ever hashed.
    """

    if history is None:
        return (-1, -1, 0)
    length = len(history)
    last = int(history[length - 1]) if length else -1
    return (length, last, hash(tuple(history)))
