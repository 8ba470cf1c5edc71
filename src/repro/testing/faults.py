"""Deterministic fault injection for the fault-tolerant serving stack.

Chaos testing a fault-tolerant system means *choosing* the failures: a shard
that throws mid-request, a maintenance pass that explodes, a journal torn by
a power cut.  Leaving those to chance makes failures unreproducible;
:class:`FaultInjector` makes every one of them a seeded, explicit operation,
so a hypothesis counterexample replays bit-for-bit.

The injector attacks the real mechanisms, not mocks:

* :meth:`fail_shard` patches one shard of a
  :class:`~repro.ann.sharded.ShardedIndex` so its ``search_batch`` raises
  :class:`InjectedFault` for the next N calls, driving the index's
  ``failure_policy`` (raise, or degrade to the surviving shards) and the
  serving stack's never-cache-degraded rule.
* :meth:`fail_maintenance` patches a server's ``maintain`` to raise
  :class:`InjectedFault` for the next N calls, exercising the
  :class:`~repro.core.realtime.MaintenanceScheduler`'s exception containment
  and backoff.
* :meth:`fail_snapshot_commit` / :meth:`truncate_snapshot_file` /
  :meth:`corrupt_snapshot_checksum` attack the crash-safe snapshot store:
  a crash between tmp-write and atomic rename, a partially written segment,
  a flipped checksum — each must leave the previous committed generation
  loadable and make the damaged one fail loudly.
* :meth:`crash_wal_mid_append` / :meth:`torn_wal_tail` / :meth:`flip_wal_byte`
  / :meth:`fail_wal_fsync` attack the write-ahead log: a process killed
  halfway through a record write, a tail sheared off by a power cut, a bit
  flipped on disk, a disk that refuses to fsync — recovery must keep every
  record before the damage and drop everything at and after it.
* :meth:`crash_wal_writer` simulates the owning process dying outright:
  handles close without the final flush and the single-writer lock drops
  with them, so an in-process "restart" can take ownership and run
  recovery the way a real restart would.

Everything random about the injector is derived from its ``seed``; two
injectors with the same seed tear the same bytes in the same order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

__all__ = ["FaultInjector", "InjectedFault"]


class InjectedFault(RuntimeError):
    """Raised by patched components to simulate an internal failure."""


def _fail_next_calls(target: Any, method: str, times: int, message: str) -> None:
    """Patch ``target.method`` (the instance) to raise for its next ``times`` calls.

    After the last injected failure the patch removes itself and the
    original method resumes.
    """

    if times <= 0:
        raise ValueError("times must be positive")
    original = getattr(target, method)
    remaining = [times]

    def failing(*args: Any, **kwargs: Any) -> Any:
        if remaining[0] > 0:
            remaining[0] -= 1
            if remaining[0] == 0:
                setattr(target, method, original)
            raise InjectedFault(message)
        return original(*args, **kwargs)  # pragma: no cover — patch removed first

    setattr(target, method, failing)


class FaultInjector:
    """Seeded source of shard, maintenance, snapshot and journal faults.

    Parameters
    ----------
    seed:
        Seeds every random choice (e.g. where a torn journal write stops).
        Two injectors with equal seeds produce identical fault schedules.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # shard faults
    # ------------------------------------------------------------------ #
    def fail_shard(self, index: Any, shard: int, times: int = 1) -> None:
        """Make one shard's next ``times`` ``search_batch`` calls raise.

        Patches the shard backend *instance* inside a
        :class:`~repro.ann.sharded.ShardedIndex`, so its siblings keep
        answering; after ``times`` failures the patch removes itself and
        the shard heals.
        """

        _fail_next_calls(
            index.shards[shard], "search_batch", times, f"injected failure of shard {shard}"
        )

    # ------------------------------------------------------------------ #
    # maintenance faults
    # ------------------------------------------------------------------ #
    def fail_maintenance(self, server: Any, times: int = 1) -> None:
        """Make the server's next ``times`` ``maintain()`` calls raise.

        Patches the *instance*, so the :class:`MaintenanceScheduler` (which
        calls ``self.server.maintain``) hits the fault while other servers
        stay healthy; after ``times`` failures the patch removes itself and
        the original method resumes.
        """

        _fail_next_calls(server, "maintain", times, "injected maintenance failure")

    # ------------------------------------------------------------------ #
    # snapshot faults
    # ------------------------------------------------------------------ #
    def fail_snapshot_commit(self, times: int = 1, filename: Optional[str] = None) -> None:
        """Crash the next ``times`` snapshot file commits (tmp → final rename).

        Patches the snapshot module's atomic-rename seam so the tmp file is
        written but never published — exactly the state a power cut between
        write and rename leaves behind.  ``filename`` narrows the fault to
        commits of that file (e.g. ``"manifest.json"``, the generation's
        commit point); other files rename normally.  The patch removes
        itself after ``times`` injected failures.
        """

        if times <= 0:
            raise ValueError("times must be positive")
        from ..core import snapshot as snapshot_module

        original = snapshot_module._replace_file
        remaining = [times]

        def failing_replace(src: Path, dst: Path) -> None:
            if remaining[0] > 0 and (filename is None or dst.name == filename):
                remaining[0] -= 1
                if remaining[0] == 0:
                    snapshot_module._replace_file = original
                raise InjectedFault(f"injected crash before publishing {dst.name}")
            original(src, dst)

        snapshot_module._replace_file = failing_replace

    def truncate_snapshot_file(
        self, generation_dir: Any, filename: str, keep_bytes: int = 0
    ) -> None:
        """Chop a committed snapshot file down to ``keep_bytes`` bytes.

        Simulates a torn write / bad sector inside an already-committed
        generation; the loader must reject the generation (byte-length
        check) instead of deserializing garbage.
        """

        path = Path(generation_dir) / filename
        data = path.read_bytes()
        if not 0 <= keep_bytes < len(data):
            raise ValueError("keep_bytes must be shorter than the file")
        with open(path, "wb") as handle:  # repolint: disable=RL007 -- deliberate corruption
            handle.write(data[:keep_bytes])

    def corrupt_snapshot_checksum(self, generation_dir: Any, filename: str) -> None:
        """Flip ``filename``'s recorded checksum inside a committed manifest.

        Simulates silent content corruption that preserves byte length; the
        loader must reject the generation on checksum mismatch.
        """

        manifest_path = Path(generation_dir) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["files"][filename]
        entry["sha256"] = hashlib.sha256(b"corrupt:" + entry["sha256"].encode()).hexdigest()
        with open(manifest_path, "w") as handle:  # repolint: disable=RL007 -- deliberate corruption
            json.dump(manifest, handle)

    # ------------------------------------------------------------------ #
    # write-ahead-log faults
    # ------------------------------------------------------------------ #
    def crash_wal_mid_append(self, times: int = 1, keep_bytes: Optional[int] = None) -> None:
        """Kill the process halfway through the next ``times`` record writes.

        Patches the WAL module's byte sink so it writes only a (seeded)
        prefix of the encoded record before raising — the on-disk state a
        SIGKILL or power cut leaves mid-``write``.  ``keep_bytes`` pins the
        prefix length; by default it is drawn uniformly from
        ``[0, len(record))``, so repeated faults tear headers and payloads
        alike.  The patch removes itself after ``times`` injected crashes;
        recovery (reopening the log) must truncate the torn record and keep
        everything before it.
        """

        if times <= 0:
            raise ValueError("times must be positive")
        from ..core import wal as wal_module

        original = wal_module._write_encoded
        remaining = [times]
        rng = self._rng

        def torn_write(handle: Any, data: bytes) -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                if remaining[0] == 0:
                    wal_module._write_encoded = original
                prefix = keep_bytes if keep_bytes is not None else int(rng.integers(0, len(data)))
                if not 0 <= prefix < len(data):
                    raise ValueError("keep_bytes must be shorter than the record")
                handle.write(data[:prefix])  # repolint: disable=RL008 -- deliberate torn write
                raise InjectedFault(
                    f"injected crash after {prefix}/{len(data)} bytes of a journal record"
                )
            original(handle, data)

        wal_module._write_encoded = torn_write

    def fail_wal_fsync(self, times: int = 1, after: int = 0) -> None:
        """Make journal fsyncs raise (disk refusing to flush).

        The first ``after`` fsyncs pass through untouched, then the next
        ``times`` raise — ``after`` lets a test land the failure on a
        specific flush (e.g. the group-commit fsync *after* a rotation's
        sync-before-rotate flush).  Patches the WAL module's fsync seam; the
        log must surface the lost durability guarantee as a
        :class:`~repro.core.wal.WALError`, count the failure, and roll the
        failed append call back.  Self-removing after ``times`` faults.
        """

        if times <= 0:
            raise ValueError("times must be positive")
        if after < 0:
            raise ValueError("after must be non-negative")
        from ..core import wal as wal_module

        original = wal_module._fsync_file
        skip = [after]
        remaining = [times]

        def failing_fsync(handle: Any) -> None:
            if skip[0] > 0:
                skip[0] -= 1
                original(handle)
                return
            if remaining[0] > 0:
                remaining[0] -= 1
                if remaining[0] == 0:
                    wal_module._fsync_file = original
                raise InjectedFault("injected fsync failure")
            original(handle)

        wal_module._fsync_file = failing_fsync

    def crash_wal_writer(self, wal: Any) -> None:
        """Simulate the journal's owning process dying (SIGKILL, power loss).

        Closes the write handle without the final flush a clean
        :meth:`~repro.core.wal.WriteAheadLog.close` performs and releases
        the single-writer ``wal.lock`` — exactly what process death leaves
        behind: written bytes survive in the OS cache, the advisory lock
        drops with the descriptor, and the next owning open must
        reopen-and-repair.  The crashed object refuses further appends.
        """

        wal._closed = True
        try:
            wal._handle.close()
        finally:
            wal._release_writer_lock()

    def torn_wal_tail(self, wal_dir: Any, drop_bytes: Optional[int] = None) -> int:
        """Shear bytes off the end of the journal's last segment (power cut).

        Drops ``drop_bytes`` from the tail — seeded in ``[1, size]`` when not
        given — and returns the number dropped.  Recovery must keep every
        record that still ends before the tear and discard the rest.
        """

        segments = self._wal_segments(wal_dir)
        tail = segments[-1]
        data = tail.read_bytes()
        if drop_bytes is None:
            drop_bytes = int(self._rng.integers(1, len(data) + 1))
        if not 1 <= drop_bytes <= len(data):
            raise ValueError("drop_bytes must be within the segment")
        with open(tail, "wb") as handle:
            handle.write(data[: len(data) - drop_bytes])  # repolint: disable=RL008 -- deliberate corruption
        return drop_bytes

    def flip_wal_byte(self, wal_dir: Any, offset: Optional[int] = None) -> int:
        """XOR one byte of the journal's last segment (silent bit rot).

        ``offset`` defaults to a seeded position; returns the offset flipped.
        The CRC must catch the damage: recovery and replay both stop at the
        record containing the flipped byte.
        """

        segments = self._wal_segments(wal_dir)
        tail = segments[-1]
        data = bytearray(tail.read_bytes())
        if offset is None:
            offset = int(self._rng.integers(0, len(data)))
        if not 0 <= offset < len(data):
            raise ValueError("offset must be within the segment")
        data[offset] ^= 0xFF
        with open(tail, "wb") as handle:
            handle.write(bytes(data))  # repolint: disable=RL008 -- deliberate corruption
        return offset

    def _wal_segments(self, wal_dir: Any) -> List[Path]:
        from ..core import wal as wal_module

        segments = wal_module._segment_files(Path(wal_dir))
        if not segments or segments[-1].stat().st_size == 0:
            raise RuntimeError(f"no journal bytes to corrupt under {wal_dir}")
        return segments
