"""The repository benchmark: one SCCF serving stack driven end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_read --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Each run builds the stack of ``stack.py`` (set-up timed, repeated, median
reported), then drives it through the async front-end with seeded traffic
that alternates, over ``cycles`` rounds, between two phases: open loop at the
workload's fixed absolute rates (latency, timed from each request's scheduled
send), and closed loop with a fixed number of waiting callers (throughput).
Latency and throughput are medians over those segments.  Outputs are
verified after the traffic stops, outside the timed region.

``--trace 0`` runs the untraced pass and prints the end-to-end metrics.
``--trace 1`` also runs a traced pass on a second, identically built stack
and prints the per-layer metrics, with the tracing overhead measured as the
throughput difference between the two passes.

Workloads, rates, caller counts, stack sizes and seed, and the smoke-mode
sizes are fixed in ``config.json``; ``--seed`` draws the traffic only, and no
rate is derived from a measured capacity.  The metric names and units are
those of ``BENCHMARK.json``.  The last line of standard output is the result
object; the line before it holds the full report: host fingerprint, every
figure of both passes (tail percentiles and the write path included), sample
counts and verification details (``--out`` writes it to a file for
``compare.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: a percentile is supported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def _import_stack() -> None:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


_import_stack()

import numpy as np  # noqa: E402

from repro.ann import IVFIndex  # noqa: E402
from repro.core import SCCF, RealTimeServer  # noqa: E402
from repro.testing import FaultInjector  # noqa: E402

import host  # noqa: E402
import stack as stacks  # noqa: E402
import tracing  # noqa: E402
import traffic  # noqa: E402
import verify  # noqa: E402


def merged(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(base)
    for key, value in override.items():
        out[key] = merged(out[key], value) if isinstance(value, dict) and key in out else value
    return out


def load_config(smoke: bool) -> Dict[str, Any]:
    config = json.loads((BENCH_DIR / "config.json").read_text())
    smoke_cfg = config.pop("smoke")
    return merged(config, smoke_cfg) if smoke else config


def load_metric_specs() -> Dict[str, Dict[str, Dict[str, Any]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {entry["name"]: entry for entry in spec["end_to_end"]},
        "per_layer": {entry["name"]: entry for entry in spec["per_layer"]},
    }


# ---------------------------------------------------------------------- #
# one pass of traffic over one stack
# ---------------------------------------------------------------------- #
@dataclass
class PassResult:
    open: traffic.PhaseResult
    closed: traffic.PhaseResult
    counters: Dict[str, float]
    verification: verify.Verification
    self_check: bool
    recover_s: Optional[float] = None

    @property
    def attempted(self) -> int:
        return self.open.attempted + self.closed.attempted + self.verification.checked

    @property
    def failed(self) -> int:
        return (
            self.open.failed
            + self.closed.failed
            + int(self.counters["server.fallbacks"])
            + self.verification.mismatches
        )


def read_counters(stack: stacks.Stack) -> Dict[str, float]:
    """The layers' own public counters, to be differenced over a pass."""

    server, frontend = stack.server, stack.frontend
    counters: Dict[str, float] = {
        "server.fallbacks": server.served_stale
        + server.served_degraded
        + server.recommend_failures
        + server.deadline_misses,
        "frontend.recommend_requests": frontend.stats.recommend_requests,
        "frontend.recommend_windows": frontend.stats.recommend_windows,
        "frontend.observe_requests": frontend.stats.observe_requests,
        "frontend.observe_windows": frontend.stats.observe_windows,
        "frontend.rejected": frontend.stats.rejected_requests,
        "realtime.maintenance_passes": (
            server.scheduler.passes_run if server.scheduler is not None else 0
        ),
        "scheduler.checkpoints": (
            server.scheduler.checkpoints_run if server.scheduler is not None else 0
        ),
        "scheduler.failures": (
            server.scheduler.maintenance_failures + server.scheduler.checkpoint_failures
            if server.scheduler is not None
            else 0
        ),
    }
    stats = stack.sccf.cache_stats()
    assert stats is not None
    for layer in stats.layers:
        counters[f"cache.{layer.name}.hits"] = layer.hits
        counters[f"cache.{layer.name}.lookups"] = layer.lookups
    counters["cache.invalidations"] = stats.invalidations
    counters["cache.evictions"] = stats.evictions
    wal = server.wal.stats() if server.wal is not None else None
    counters["wal.records"] = wal.records if wal is not None else 0
    counters["wal.fsyncs"] = wal.fsyncs if wal is not None else 0
    counters["wal.bytes_written"] = wal.bytes_written if wal is not None else 0
    return counters


def counter_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    delta = {name: after[name] - before[name] for name in after}
    for layer in ("embeddings", "neighbors", "scores", "recommendations"):
        lookups = delta[f"cache.{layer}.lookups"]
        delta[f"cache.{layer}.hit_ratio"] = (
            delta[f"cache.{layer}.hits"] / lookups if lookups else 0.0
        )
    for op in ("recommend", "observe"):
        windows = delta[f"frontend.{op}_windows"]
        delta[f"frontend.{op}_window_mean"] = (
            delta[f"frontend.{op}_requests"] / windows if windows else 0.0
        )
    return delta


async def drive(
    stack: stacks.Stack,
    workload: Dict[str, Any],
    config: Dict[str, Any],
    seed: int,
    seconds: float,
    tracer: Optional[tracing.Tracer],
) -> Tuple[traffic.PhaseResult, traffic.PhaseResult, Dict[str, float]]:
    """Warm up, then alternate open- and closed-loop phases; returns counter deltas."""

    rng = np.random.default_rng([seed, 1])
    num_users = stack.dataset.num_users
    recommend_users = traffic.UserStream(workload, num_users, rng)
    draw: Dict[str, Callable[[], Tuple[int, ...]]] = {
        "recommend": lambda: (recommend_users.next(),)
    }
    rates = {"recommend": float(workload["recommend_rate"])}
    callers = {"recommend": int(workload["recommend_callers"])}
    if "observe_rate" in workload:
        events = traffic.EventStream(
            workload, num_users, stack.dataset.num_items, np.random.default_rng([seed, 2]), [num_users]
        )
        draw["observe"] = events.next
        rates["observe"] = float(workload["observe_rate"])
        callers["observe"] = int(workload["observe_callers"])

    frontend = stack.frontend
    sender = traffic.Sender(frontend, stack.k, record="observe_rate" not in workload)
    await frontend.start()
    try:
        warmup = traffic.open_schedule(rates, float(config["warmup_s"]), draw)
        await traffic.run_open_loop(sender, warmup, float(config["warmup_s"]))
        before = read_counters(stack)
        if tracer is not None:
            tracer.install(stack)
        # The phases alternate so both sample the whole run: the host's speed
        # drifts on a scale of seconds, and a metric measured in one half of
        # the run would inherit whichever drift that half saw.
        cycles = int(config["cycles"])
        segment = seconds / (2.0 * cycles)
        opened = traffic.PhaseResult()
        closed = traffic.PhaseResult()
        for _ in range(cycles):
            schedule = traffic.open_schedule(rates, segment, draw)
            opened.extend(await traffic.run_open_loop(sender, schedule, segment))
            closed.extend(await traffic.run_closed_loop(sender, callers, segment, draw))
    finally:
        await frontend.close()
        if tracer is not None:
            tracer.remove()
    return opened, closed, counter_deltas(before, read_counters(stack))


def recover(
    stack: stacks.Stack, config: Dict[str, Any], seed: int, traced: bool
) -> Tuple[float, verify.Verification, bool, Dict[str, float]]:
    """Crash the durable server, recover it, and check it against the live one."""

    live = stack.server
    assert live.wal is not None and stack.snapshot_dir is not None
    stack_cfg = config["stack"]
    if live.shadow_maintenance_active():
        # An in-flight background retrain publishes first, so no thread
        # outlives the run and the crash lands on a quiescent server.
        live.poll_shadow_maintenance(wait=True)
    FaultInjector().crash_wal_writer(live.wal)
    replay = {"seconds": 0.0, "records": 0}
    original_catch_up = RealTimeServer.catch_up
    if traced:
        # The recovered server exists only once load_snapshot returns, so its
        # replay is timed through the class for the duration of the call.
        def timed_catch_up(self: RealTimeServer, wal_dir: Any) -> int:
            start = time.perf_counter()
            try:
                applied = original_catch_up(self, wal_dir)
            finally:
                replay["seconds"] += time.perf_counter() - start
            replay["records"] += applied
            return applied

        RealTimeServer.catch_up = timed_catch_up  # type: ignore[method-assign]
    start = time.perf_counter()
    try:
        shell = SCCF(
            live.sccf.ui_model,
            live.sccf.config,
            neighbor_index=IVFIndex(
                num_cells=int(stack_cfg["num_cells"]),
                n_probe=int(stack_cfg["n_probe"]),
                rng=np.random.default_rng(int(stack_cfg["seed"])),
            ),
        )
        recovered = RealTimeServer.load_snapshot(
            stack.snapshot_dir, shell, stack.dataset, wal_dir=stack.wal_dir
        )
        recover_s = time.perf_counter() - start
    finally:
        RealTimeServer.catch_up = original_catch_up  # type: ignore[method-assign]
    try:
        users = range(recovered.sccf.neighborhood.num_users)
        sample = verify.sample_users(
            users, int(config["workloads"]["ingest_mix"]["recover_sample_users"]), seed
        )
        retrains = verify.tail_retrains(stack.snapshot_dir, stack.wal_dir)
        checks, self_ok, divergent = verify.check_recovery(
            live, recovered, users, sample, stack.k, retrains
        )
    finally:
        recovered.close()
    counters = {
        "snapshot.load.busy_s": recover_s - replay["seconds"],
        "wal.replayed_records": replay["records"],
        "recovery.tail_retrains": retrains,
        "recovery.list_divergence": divergent,
    }
    return recover_s, checks, self_ok, counters


def run_pass(
    stack: stacks.Stack,
    workload_name: str,
    config: Dict[str, Any],
    seed: int,
    seconds: float,
    tracer: Optional[tracing.Tracer] = None,
) -> PassResult:
    workload = config["workloads"][workload_name]
    durable = stack.wal_dir is not None
    # Taken before any traffic and before any wrapper goes on.
    reference = None if durable else stack.uncached_copy()
    # Everything alive now is set-up state: the stacks, the dataset, the
    # reference.  Freezing it, the way a server freezes its heap once start-up
    # is done, keeps the collector from rescanning it during the traffic: a
    # full collection over the benchmark's own set-up heap stalled the event
    # loop for ~90 ms on a 2-core host.  Garbage made during the traffic is
    # still collected.
    gc.collect()
    gc.freeze()
    try:
        opened, closed, counters = asyncio.run(
            drive(stack, workload, config, seed, seconds, tracer)
        )
    finally:
        gc.unfreeze()
    if durable:
        recover_s, checks, self_ok, recovery = recover(stack, config, seed, tracer is not None)
        counters.update(recovery)
        return PassResult(opened, closed, counters, checks, self_ok, recover_s=recover_s)
    assert reference is not None
    served = opened.served + closed.served
    sample = verify.sample_users([user for user, _ in served], int(config["verify_users"]), seed)
    expected = verify.reference_lists(reference, sample, stack.k)
    reference.close()
    counters.update(
        {
            "snapshot.load.busy_s": 0.0,
            "wal.replayed_records": 0,
            "recovery.tail_retrains": 0,
            "recovery.list_divergence": 0,
        }
    )
    return PassResult(
        opened,
        closed,
        counters,
        verify.check_served(served, expected),
        verify.self_check(served, expected),
    )


# ---------------------------------------------------------------------- #
# one workload: set-up, passes, metrics
# ---------------------------------------------------------------------- #
def tail_supported(samples: List[float]) -> bool:
    return len(samples) * 0.01 >= TAIL_SAMPLES


def block_p99(samples: List[float]) -> float:
    """Median of the p99s of consecutive blocks of the open-loop samples.

    Each block holds at least ``100 * TAIL_SAMPLES`` samples, so each p99 has
    ten samples beyond it; the median over the blocks keeps one burst of
    host noise from setting the whole run's tail.  Fewer samples than one
    block (smoke sizes) give the plain p99.
    """

    blocks = max(1, len(samples) // (100 * TAIL_SAMPLES))
    size = len(samples) // blocks
    return statistics.median(
        tracing.percentile(samples[i * size : (i + 1) * size], 99) for i in range(blocks)
    )


def latency_median(phase: traffic.PhaseResult, kind: str, q: float) -> float:
    """Median over the open-loop segments of each segment's ``q``-th percentile.

    The host's speed drifts on a scale of seconds; a per-segment figure
    reflects the speed during that segment, and the median over the segments
    keeps a slow one from setting the whole run's value.
    """

    return statistics.median(
        tracing.percentile(part.latencies_ms[kind], q) for part in phase.parts
    )


def rate_median(phase: traffic.PhaseResult, kind: str) -> float:
    """Median over the closed-loop segments of each segment's completion rate."""

    return statistics.median(part.completed[kind] / part.seconds for part in phase.parts)


def end_to_end(result: PassResult, setup_s: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "recommend_p50_ms": latency_median(result.open, "recommend", 50),
        "recommend_rps": rate_median(result.closed, "recommend"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def pass_report(result: PassResult) -> Dict[str, Any]:
    """Everything a pass measured, including the figures outside the gate."""

    report: Dict[str, Any] = {
        "samples": {kind: len(values) for kind, values in result.open.latencies_ms.items()},
        "tail_supported": {
            kind: tail_supported(values) for kind, values in result.open.latencies_ms.items()
        },
        "send_lag_p99_ms": tracing.percentile(result.open.send_lag_ms, 99),
        "recommend_p90_ms": latency_median(result.open, "recommend", 90),
        "recommend_p99_ms": block_p99(result.open.latencies_ms["recommend"]),
        "failed_ratio": result.failed / result.attempted,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": {**result.open.errors, **result.closed.errors},
        "verified": result.verification.checked,
        "mismatches": result.verification.mismatches,
        "verified_within_tie_tolerance": result.verification.tied,
        "mismatch_details": result.verification.details,
        "self_check": result.self_check,
        "counters": result.counters,
    }
    observes = result.open.latencies_ms["observe"]
    if observes:
        report.update(
            {
                "observe_p50_ms": latency_median(result.open, "observe", 50),
                "observe_p90_ms": latency_median(result.open, "observe", 90),
                "observe_p99_ms": block_p99(observes),
                "observe_eps": rate_median(result.closed, "observe"),
                "recover_s": result.recover_s,
            }
        )
    return report


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, config: Dict[str, Any], workroot: Path
) -> Dict[str, Any]:
    """Set up, run the pass(es) and return the result object plus the full report."""

    workload = config["workloads"][name]
    stack_cfg = config["stack"]
    durable = "observe_rate" in workload
    # The stack is fixed by its own seed; --seed draws the traffic only.
    stack_seed = int(stack_cfg["seed"])
    dataset = stacks.make_dataset(stack_cfg, stack_seed)
    warmup_stream = traffic.UserStream(workload, dataset.num_users, np.random.default_rng([seed, 0]))
    warmup_users = [warmup_stream.next() for _ in range(int(stack_cfg["max_batch"]))]

    repeats = max(int(config["setup_repeats"]), 2 if trace else 1)
    built: List[stacks.Stack] = []
    setup_times: List[float] = []
    for _ in range(repeats):
        workdir = Path(tempfile.mkdtemp(dir=workroot)) if durable else None
        built.append(
            stacks.build_stack(stack_cfg, workload, dataset, stack_seed, warmup_users, workdir)
        )
        setup_times.append(built[-1].setup_s)
    keep = 2 if trace else 1
    for extra in built[keep:]:
        extra.close()
    setup_s = statistics.median(setup_times)

    try:
        untraced = run_pass(built[0], name, config, seed, seconds)
        traced = None
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            traced = run_pass(built[1], name, config, seed, seconds, tracer)
    finally:
        for stack in built[:keep]:
            stack.close()

    report: Dict[str, Any] = {
        "workload": name,
        "fingerprint": host.fingerprint(workroot, seed),
        "setup_times_s": setup_times,
        "untraced": {"metrics": end_to_end(untraced, setup_s), **pass_report(untraced)},
    }
    passes = [untraced]
    if trace:
        assert traced is not None and tracer is not None
        passes.append(traced)
        untraced_rps = report["untraced"]["metrics"]["recommend_rps"]
        traced_rps = rate_median(traced.closed, "recommend")
        overhead = 1.0 - traced_rps / untraced_rps if untraced_rps else 0.0
        layer = tracing.layer_metrics(tracer, traced.counters, traced.open.send_lag_ms, overhead)
        # The untraced pass's write-path figures ride along: no end-to-end
        # metric can carry them, since the read workloads have no writes.
        untraced_report = report["untraced"]
        layer.update(
            {
                f"ingest.{figure}": float(untraced_report.get(figure) or 0.0)
                for figure in (
                    "observe_p50_ms",
                    "observe_p90_ms",
                    "observe_p99_ms",
                    "observe_eps",
                    "recover_s",
                )
            }
        )
        layer["tail.recommend_p90_ms"] = untraced_report["recommend_p90_ms"]
        layer["tail.recommend_p99_ms"] = untraced_report["recommend_p99_ms"]
        layer["recovery.tail_retrains"] = traced.counters["recovery.tail_retrains"]
        layer["recovery.list_divergence"] = traced.counters["recovery.list_divergence"]
        report["traced"] = {
            "metrics": layer,
            "layer_self_s": tracing.layer_self_times(tracer),
            **pass_report(traced),
        }
        metrics = layer
    else:
        metrics = report["untraced"]["metrics"]
    correct = all(p.verification.mismatches == 0 and p.self_check for p in passes)
    return {
        "report": report,
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }


def result_line(outcome: Dict[str, Any], specs: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": spec["unit"]}
            for name, spec in specs.items()
        },
    }


def smoke(config: Dict[str, Any], workroot: Path) -> int:
    """Every workload, both passes, tiny sizes; every named metric printed with its unit."""

    specs = load_metric_specs()
    seconds = float(config["seconds"])
    problems: List[str] = []
    for name in config["workloads"]:
        for trace in (False, True):
            outcome = run_workload(name, 1, seconds, trace, config, workroot)
            kind = "per_layer" if trace else "end_to_end"
            line = result_line(outcome, specs[kind])
            print(json.dumps({"workload": name, "trace": int(trace), **line}))
            for metric, spec in specs[kind].items():
                printed = line["metrics"].get(metric)
                if printed is None or printed["unit"] != spec["unit"]:
                    problems.append(f"{name}/{kind}: {metric} missing or without its unit")
            if not line["correct"]:
                problems.append(f"{name}/{kind}: verification failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(load_config(False)["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and pass")
    parser.add_argument("--out", type=Path, help="also write the full report to this file")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    config = load_config(args.smoke)
    work_parent = ROOT / ".perfbench"
    work_parent.mkdir(exist_ok=True)
    workroot = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        if args.smoke:
            return smoke(config, workroot)
        specs = load_metric_specs()
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), config, workroot)
        line = result_line(outcome, specs["per_layer" if args.trace else "end_to_end"])
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass  # another run still holds a work directory here
    report = {**outcome["report"], "result": line}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
