"""Seeded request streams and the open- and closed-loop generators that send them.

Every stream is a pure function of the workload seed, so one seed gives one
input sequence.  The generators run on one asyncio event loop together with the
front-end, whose windows execute on that same loop: a window that stalls the
loop shows up as generator lateness, which the open loop counts in each
request's latency (timed from its *scheduled* send) and reports on its own.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serving import AsyncFrontend


class UserStream:
    """Users who send requests: uniform over the pool, or Zipf visitors in sessions.

    ``zipf``: ``concurrent_sessions`` visitors are active at once; each
    request comes from one of them at random, and after each request its
    visitor leaves with probability ``1 - session_continue`` (geometric
    session length) and a new one arrives, drawn with probability
    ∝ rank^-exponent over a seeded popularity ranking of the pool.  A
    visitor's requests are therefore interleaved with other visitors', the
    way concurrent sessions reach a server, instead of arriving back to back.
    """

    def __init__(self, cfg: Dict[str, Any], num_users: int, rng: np.random.Generator) -> None:
        self._rng = rng
        self._num_users = num_users
        self._kind = cfg["users"]
        if self._kind == "zipf":
            ranks = np.arange(1, num_users + 1, dtype=np.float64)
            weights = ranks ** -float(cfg["zipf_exponent"])
            self._cdf = np.cumsum(weights / weights.sum())
            self._ranking = rng.permutation(num_users)
            self._continue = float(cfg["session_continue"])
            self._sessions = [self._visitor() for _ in range(int(cfg["concurrent_sessions"]))]
        elif self._kind != "uniform":
            raise ValueError(f"unknown user distribution {self._kind!r}")

    def _visitor(self) -> int:
        rank = int(np.searchsorted(self._cdf, self._rng.random(), side="right"))
        return int(self._ranking[min(rank, self._num_users - 1)])

    def next(self) -> int:
        if self._kind == "uniform":
            return int(self._rng.integers(0, self._num_users))
        slot = int(self._rng.integers(0, len(self._sessions)))
        user = self._sessions[slot]
        if self._rng.random() >= self._continue:
            self._sessions[slot] = self._visitor()
        return user


class EventStream:
    """Observe events: Zipf visitors plus a share of cold-start ids beyond the fitted pool.

    Cold-start ids are handed out densely from ``num_users`` upwards, the way
    a production id allocator grows; items are uniform over the catalog.
    """

    def __init__(
        self,
        cfg: Dict[str, Any],
        num_users: int,
        num_items: int,
        rng: np.random.Generator,
        next_cold_id: List[int],
    ) -> None:
        self._users = UserStream(cfg, num_users, rng)
        self._rng = rng
        self._num_items = num_items
        self._cold_share = float(cfg["cold_start_share"])
        # shared, so cold ids stay dense across the phases of one pass
        self._next_cold_id = next_cold_id

    def next(self) -> Tuple[int, int]:
        item = int(self._rng.integers(0, self._num_items))
        if self._rng.random() < self._cold_share:
            user = self._next_cold_id[0]
            self._next_cold_id[0] += 1
            return user, item
        return self._users.next(), item


@dataclass
class PhaseResult:
    """What one phase of traffic did, per operation kind."""

    seconds: float = 0.0
    latencies_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {"recommend": [], "observe": []}
    )
    send_lag_ms: List[float] = field(default_factory=list)
    completed: Dict[str, int] = field(default_factory=lambda: {"recommend": 0, "observe": 0})
    attempted: int = 0
    failed: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    #: times each (user, list) pair was served — only when the sender records
    served: Counter = field(default_factory=Counter)
    #: the phases merged into this one by :meth:`extend`, in order
    parts: List["PhaseResult"] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def extend(self, other: "PhaseResult") -> None:
        """Append a later phase of the same kind; latencies stay in time order."""

        self.seconds += other.seconds
        for kind in self.latencies_ms:
            self.latencies_ms[kind].extend(other.latencies_ms[kind])
            self.completed[kind] += other.completed[kind]
        self.send_lag_ms.extend(other.send_lag_ms)
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.errors.items():
            self.errors[reason] = self.errors.get(reason, 0) + count
        self.served.update(other.served)
        self.parts.append(other)


class Sender:
    """Sends one operation through the front-end and books its outcome.

    ``record`` keeps every served list for verification; a read-only stack
    serves each user one list, so the record stays one entry per user.
    """

    def __init__(self, frontend: AsyncFrontend, k: int, record: bool) -> None:
        self.frontend = frontend
        self.k = k
        self.record = record

    async def send(
        self, kind: str, args: Tuple[int, ...], result: PhaseResult, due: float
    ) -> Optional[float]:
        """Latency in ms from ``due`` to the reply, or ``None`` if the operation failed."""

        result.attempted += 1
        try:
            if kind == "recommend":
                items = await self.frontend.recommend(args[0], k=self.k)
            else:
                await self.frontend.observe(args[0], args[1])
        except Exception as exc:  # every failure is counted, none may stop the run
            result.fail(type(exc).__name__)
            return None
        done = time.perf_counter()
        if kind == "recommend":
            if not items:
                result.fail("empty")
                return None
            if self.record:
                result.served[(args[0], tuple(items))] += 1
        result.completed[kind] += 1
        return (done - due) * 1000.0


def open_schedule(
    rates: Dict[str, float], seconds: float, draw: Dict[str, Callable[[], Tuple[int, ...]]]
) -> List[Tuple[float, str, Tuple[int, ...]]]:
    """Evenly spaced sends at each kind's fixed absolute rate, merged in time order."""

    schedule: List[Tuple[float, str, Tuple[int, ...]]] = []
    for kind, rate in rates.items():
        count = int(round(rate * seconds))
        schedule.extend((i / rate, kind, ()) for i in range(count))
    schedule.sort(key=lambda entry: (entry[0], entry[1]))
    # inputs are drawn in send order, so one seed gives one input sequence
    return [(offset, kind, draw[kind]()) for offset, kind, _ in schedule]


async def run_open_loop(
    sender: Sender, schedule: List[Tuple[float, str, Tuple[int, ...]]], seconds: float
) -> PhaseResult:
    """Send on schedule regardless of replies; latency counts from the scheduled time."""

    result = PhaseResult(seconds=seconds)
    tasks: List["asyncio.Future[Optional[float]]"] = []
    start = time.perf_counter()
    for offset, kind, args in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.send_lag_ms.append((time.perf_counter() - due) * 1000.0)
        tasks.append(asyncio.ensure_future(sender.send(kind, args, result, due)))
    # latencies are kept in schedule order, so blocks of them are spans of time
    for (_, kind, _), latency in zip(schedule, await asyncio.gather(*tasks)):
        if latency is not None:
            result.latencies_ms[kind].append(latency)
    return result


async def run_closed_loop(
    sender: Sender,
    callers: Dict[str, int],
    seconds: float,
    draw: Dict[str, Callable[[], Tuple[int, ...]]],
) -> PhaseResult:
    """Fixed callers that each send their next request when the last one returns.

    Throughput counts operations completed before the phase deadline, over
    the time from the phase start to the last of them; the callers' last
    in-flight requests are awaited but not counted.
    """

    result = PhaseResult(seconds=seconds)
    in_time = {kind: 0 for kind in callers}
    start = time.perf_counter()
    end = start + seconds
    last = [start]

    async def caller(kind: str) -> None:
        while time.perf_counter() < end:
            sent = time.perf_counter()
            latency = await sender.send(kind, draw[kind](), result, sent)
            done = time.perf_counter()
            if latency is not None and done <= end:
                in_time[kind] += 1
                last[0] = max(last[0], done)

    tasks = [
        asyncio.ensure_future(caller(kind))
        for kind, count in callers.items()
        for _ in range(count)
    ]
    await asyncio.gather(*tasks)
    result.completed.update(in_time)
    # throughput is taken over the measured span up to the last counted reply
    result.seconds = last[0] - start
    return result
