"""Build the serving stack the repository recommends, and time its set-up.

FISM → :class:`SCCF` over an :class:`IVFIndex` with a :class:`ServingCache`,
served by a :class:`RealTimeServer` behind an :class:`AsyncFrontend`.  The
durable variant (``ingest_mix``) adds a ``batch``-policy write-ahead log and a
background :class:`MaintenanceScheduler` that retrains shadow indexes and
checkpoints snapshots.

Set-up time covers ``SCCF.fit`` (which fits FISM and builds the index), the
construction of server, front-end, WAL and scheduler, the bootstrap
checkpoint of a durable server, and one warm-up window.  Synthetic data
generation is input generation and is not part of it.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.ann import IVFIndex
from repro.core import SCCF, RealTimeServer, SCCFConfig
from repro.core.realtime import MaintenanceScheduler, RecommendRequest
from repro.core.wal import WriteAheadLog
from repro.data import load_preset
from repro.data.datasets import RecDataset
from repro.models import FISM
from repro.serving import AsyncFrontend


def make_dataset(stack_cfg: Dict[str, Any], seed: int) -> RecDataset:
    """The synthetic interaction log every stack of one run is fitted on."""

    return load_preset(
        "tiny",
        seed=seed,
        num_users=int(stack_cfg["num_users"]),
        num_items=int(stack_cfg["num_items"]),
        avg_interactions=float(stack_cfg["avg_interactions"]),
        num_categories=12,
        num_communities=8,
        community_items=30,
        name="perfbench",
    )


@dataclass
class Stack:
    """One built serving stack and the directories its durable state lives in."""

    dataset: RecDataset
    sccf: SCCF
    server: RealTimeServer
    frontend: AsyncFrontend
    k: int
    wal_dir: Optional[Path] = None
    snapshot_dir: Optional[Path] = None
    setup_s: float = 0.0

    def uncached_copy(self) -> RealTimeServer:
        """A deep copy of the server with the serving cache detached.

        The copy is the verification reference: it answers every request by
        full scoring, batch of one.  It shares nothing with the live stack, so
        serving traffic on the live stack cannot change it.
        """

        reference = copy.deepcopy(self.server)
        reference.sccf.attach_cache(None)
        return reference

    def close(self) -> None:
        if self.server.shadow_maintenance_active():
            # Let an in-flight background retrain finish so no thread outlives the run.
            self.server.poll_shadow_maintenance(wait=True)
        self.server.close()


def build_stack(
    stack_cfg: Dict[str, Any],
    workload_cfg: Dict[str, Any],
    dataset: RecDataset,
    seed: int,
    warmup_users: List[int],
    workdir: Optional[Path] = None,
) -> Stack:
    """Fit and wire one stack; ``workdir`` makes it durable (WAL + checkpoints)."""

    start = time.perf_counter()
    ui_model = FISM(
        embedding_dim=int(stack_cfg["embedding_dim"]),
        num_epochs=int(stack_cfg["fism_epochs"]),
        seed=seed,
    )
    sccf = SCCF(
        ui_model,
        SCCFConfig(
            num_neighbors=int(stack_cfg["num_neighbors"]),
            candidate_list_size=int(stack_cfg["candidate_list_size"]),
            merger_epochs=int(stack_cfg["merger_epochs"]),
            cache_capacity=int(stack_cfg["cache_capacity"]),
            seed=seed,
        ),
        neighbor_index=IVFIndex(
            num_cells=int(stack_cfg["num_cells"]),
            n_probe=int(stack_cfg["n_probe"]),
            rng=np.random.default_rng(seed),
        ),
    ).fit(dataset)
    wal_dir = snapshot_dir = None
    if workdir is None:
        server = RealTimeServer(sccf, dataset)
    else:
        wal_dir, snapshot_dir = workdir / "wal", workdir / "snap"
        wal = WriteAheadLog(
            wal_dir, fsync="batch", batch_records=int(workload_cfg["wal_batch_records"])
        )
        server = RealTimeServer(sccf, dataset, wal=wal)
        server.scheduler = MaintenanceScheduler(
            server,
            every_events=int(workload_cfg["maintenance_every"]),
            imbalance_threshold=float(workload_cfg["imbalance_threshold"]),
            background=True,
            checkpoint_every=int(workload_cfg["checkpoint_every"]),
            snapshot_dir=snapshot_dir,
        )
        # The bootstrap checkpoint: recovery needs a snapshot to start from.
        server.save_snapshot(snapshot_dir)
    frontend = AsyncFrontend(
        server,
        max_batch=int(stack_cfg["max_batch"]),
        max_wait_ms=float(stack_cfg["max_wait_ms"]),
        max_queue=int(stack_cfg["max_queue"]),
        backpressure="reject",
    )
    k = int(stack_cfg["k"])
    server.recommend_batch([RecommendRequest(user_id=user, k=k) for user in warmup_users])
    setup_s = time.perf_counter() - start
    return Stack(
        dataset=dataset,
        sccf=sccf,
        server=server,
        frontend=frontend,
        k=k,
        wal_dir=wal_dir,
        snapshot_dir=snapshot_dir,
        setup_s=setup_s,
    )
