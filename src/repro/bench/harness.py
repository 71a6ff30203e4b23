"""Experiment runners for the paper's two evaluation figures.

Figure 4 (§6.2): running time of the *double auction* as a function of the number of
users (up to 1000), for a centralised auctioneer and for the distributed simulation
with m = 8 providers and k ∈ {1, 2, 3} — i.e. 3, 5 and 8 providers executing the
protocol (the minimum 2k+1).

Figure 5 (§6.3): running time of the *standard auction* as a function of the number of
users (up to 125), for p ∈ {1, 2, 4} where p is the level of parallelism of the
parallel allocator (p = 1 is the centralised execution, p = 2 corresponds to k = 3 and
p = 4 to k = 1 with m = 8 providers).

Since the scenario API redesign both experiments are thin wrappers over the
built-in sweep specs of :mod:`repro.scenarios.builtin`: the grid is pure data
(``figure4_sweep()`` / ``figure5_sweep()``) and every point executes through
:func:`repro.scenarios.runner.run_scenario` — the same code path as
``repro-auction sweep --spec fig4.json``, so the two can never drift apart
(locked by ``tests/scenarios/test_differential.py``).  The classes survive as
the stable, object-style API used by the benchmarks and tests.

Timing model: the simulation charges measured handler CPU time to each provider's
virtual clock and adds modelled message latencies; the reported ``elapsed`` value is
the critical path (max over providers of their final clock), which is what a
stopwatch at the paper's client node would approximately observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.auctions.double_auction import DoubleAuction
from repro.auctions.engine import DEFAULT_ENGINE, resolve_engine
from repro.auctions.standard_auction import StandardAuction
from repro.community.workload import (
    DoubleAuctionWorkload,
    StandardAuctionWorkload,
    default_provider_ids,
)
from repro.core.config import FrameworkConfig
from repro.net.latency import LatencyModel
from repro.runtime.batch import BatchAuctionRunner, BatchSummary
from repro.scenarios.builtin import figure4_sweep, figure5_sweep
from repro.scenarios.runner import RunRecord, run_scenario
from repro.scenarios.spec import SweepSpec, spec_with_overrides
from repro.scenarios.sweep import SweepResult, run_sweep

__all__ = [
    "ExperimentPoint",
    "Figure4Experiment",
    "Figure5Experiment",
    "chaos_bench_spec",
    "default_latency_model",
    "export_chaos_artifact",
    "export_net_artifact",
    "export_obs_artifact",
    "export_resilience_artifact",
    "export_store_artifact",
    "export_sweep_artifact",
    "record_to_point",
    "resilience_bench_spec",
    "run_chaos_benchmark",
    "run_net_benchmark",
    "run_obs_benchmark",
    "run_resilience_benchmark",
    "run_store_benchmark",
    "store_bench_records",
]


def export_sweep_artifact(result: SweepResult, path="BENCH_sweep.json") -> str:
    """Write a sweep's uniform artifact: the full ``SweepResult.to_dict`` payload.

    This is the bench harness's durable export — the same shape as
    ``repro-auction sweep --json`` and as a rehydrated results journal
    (:class:`~repro.scenarios.store.ResultsStore`), so downstream tooling
    consumes one format whichever way the sweep ran.  Returns the path
    written.
    """
    import os

    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(result.to_json(indent=2) + "\n")
    return path


# Pre-event-queue throughput of the same workload (seed list-based core: O(M)
# deliverable rebuild + min scan + list.remove per delivered message), measured
# on the PR's reference host.  A fixed origin for the net layer's perf
# trajectory — cross-host ratios against it are indicative only; the bench
# suite additionally measures the seed core live on the current host
# (``benchmarks/test_bench_net_core.py``) for a true same-host speedup.
_NET_BASELINE = {
    "messages_per_sec": 14_544,
    "wall_seconds": 0.0671,
    "core": "pre-event-queue seed (list-based in-flight store)",
    "note": "frozen reference-host measurement; see baseline_seed_core_same_host "
    "for the ratio measured on the exporting host",
}


def run_net_benchmark(
    num_users: int = 40,
    num_providers: int = 8,
    k: int = 2,
    seed: int = 0,
    repeats: int = 3,
    latency_model: Optional[LatencyModel] = None,
) -> Dict[str, object]:
    """Measure the simulator core on one distributed double-auction round.

    Runs the full round (bidders, providers, consensus blocks) ``repeats``
    times on the ``wan`` latency model and reports best-of wall time plus the
    derived messages/sec and steps/sec — the net layer's headline throughput
    numbers (see ``BENCH_net.json``).  The round is deterministic, so every
    repeat delivers the identical message trace.
    """
    import time

    from repro.auctions.double_auction import DoubleAuction
    from repro.community.workload import DoubleAuctionWorkload
    from repro.core.config import FrameworkConfig
    from repro.runtime.auction_run import AuctionRun

    if latency_model is None:
        latency_model = default_latency_model()
        latency_label = "wan"
    else:
        latency_label = type(latency_model).__name__
    bids = DoubleAuctionWorkload(seed=seed).generate(num_users, num_providers)

    stats = None
    best = float("inf")
    for _ in range(max(1, repeats)):
        run = AuctionRun(
            bids,
            DoubleAuction(),
            config=FrameworkConfig(k=k),
            latency_model=latency_model,
            seed=seed,
        )
        start = time.perf_counter()
        result = run.execute()
        best = min(best, time.perf_counter() - start)
        stats = result.stats

    messages_per_sec = stats.messages_delivered / best
    steps_per_sec = stats.steps / best
    speedup = messages_per_sec / _NET_BASELINE["messages_per_sec"]
    return {
        "bench": "net-core",
        "workload": "distributed double auction",
        "users": num_users,
        "providers": num_providers,
        "k": k,
        "latency": latency_label,
        "scheduler": "fair",
        "repeats": repeats,
        "messages_delivered": stats.messages_delivered,
        "steps": stats.steps,
        "bytes_delivered": stats.bytes_delivered,
        "wall_seconds": best,
        "messages_per_sec": messages_per_sec,
        "steps_per_sec": steps_per_sec,
        "baseline_pre_event_queue": dict(_NET_BASELINE),
        "speedup_vs_baseline": speedup,
        "summary": (
            f"BENCH_net: {messages_per_sec:,.0f} messages/sec "
            f"({speedup:.1f}x reference-host baseline) on the distributed "
            f"double auction, {num_users} users / {num_providers} providers, "
            f"{latency_label} latency"
        ),
    }


def export_net_artifact(payload: Dict[str, object], path="BENCH_net.json") -> str:
    """Write the net-core bench artifact (see :func:`run_net_benchmark`).

    The durable counterpart of ``BENCH_sweep.json`` for the simulator layer;
    CI regenerates it in quick mode and greps the ``summary`` line.  Returns
    the path written.
    """
    import json
    import os

    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def run_obs_benchmark(
    num_users: int = 40,
    num_providers: int = 8,
    k: int = 2,
    seed: int = 0,
    repeats: int = 5,
) -> Dict[str, object]:
    """Measure the observability plane's overhead on the net-core workload.

    Three modes over the identical distributed double-auction round:

    ``off`` (twice, A and B)
        No observation installed — the production default.  The instrument
        sites reduce to one cached ``is None`` check, so the A/B median
        delta is the *noise bound* of this host: ``overhead_disabled_pct``
        proves disabled-mode tracing is free to within measurement noise
        (the artifact contract is < 5 %).

    ``observed``
        A live in-memory observation (tracer + metrics hub, no journal):
        every span and counter the round can emit, which is the honest
        upper bound a ``--trace``/``--metrics`` run pays before journal I/O.

    Modes are interleaved within every repeat (off-A, off-B, observed, then
    off-B, off-A, observed) so drift (thermal, cache, scheduler, other
    tenants) lands across modes rather than inside the comparison.
    """
    import statistics
    import time

    from repro.obs import observe
    from repro.runtime.auction_run import AuctionRun

    latency_model = default_latency_model()
    bids = DoubleAuctionWorkload(seed=seed).generate(num_users, num_providers)

    def one_round() -> float:
        run = AuctionRun(
            bids,
            DoubleAuction(),
            config=FrameworkConfig(k=k),
            latency_model=latency_model,
            seed=seed,
        )
        start = time.perf_counter()
        result = run.execute()
        elapsed = time.perf_counter() - start
        assert not result.aborted
        return elapsed

    one_round()  # warm-up: imports, numpy kernels, allocator pools

    off_a_times, observed_times, off_b_times = [], [], []
    spans = instruments = 0
    for repeat in range(max(1, repeats)):
        # A and B swap places every repeat, so neither is always the round
        # that runs right after the observed one.
        first, second = off_a_times, off_b_times
        if repeat % 2:
            first, second = second, first
        first.append(one_round())
        second.append(one_round())
        with observe() as observation:
            observed_times.append(one_round())
        spans = len(observation.tracer.spans)
        instruments = len(observation.metrics)
    median_off_a = statistics.median(off_a_times)
    median_observed = statistics.median(observed_times)
    median_off_b = statistics.median(off_b_times)

    baseline = min(median_off_a, median_off_b)
    overhead_disabled_pct = abs(median_off_b - median_off_a) / baseline * 100.0
    overhead_enabled_pct = (median_observed - baseline) / baseline * 100.0

    return {
        "bench": "obs-overhead",
        "workload": "distributed double auction (net-core)",
        "users": num_users,
        "providers": num_providers,
        "k": k,
        "latency": "wan",
        "repeats": repeats,
        "median_off_a_seconds": median_off_a,
        "median_off_b_seconds": median_off_b,
        "median_observed_seconds": median_observed,
        "overhead_disabled_pct": overhead_disabled_pct,
        "overhead_enabled_pct": overhead_enabled_pct,
        "spans_per_round": spans,
        "instruments": instruments,
        "summary": (
            f"BENCH_obs: disabled-mode overhead {overhead_disabled_pct:.2f}% "
            f"(A/B noise bound), live tracing+metrics "
            f"{overhead_enabled_pct:+.1f}% ({spans} spans, {instruments} "
            f"instruments per round) on the net-core double auction"
        ),
    }


def export_obs_artifact(payload: Dict[str, object], path="BENCH_obs.json") -> str:
    """Write the observability bench artifact (see :func:`run_obs_benchmark`).

    CI regenerates it in quick mode and greps the ``summary`` line; the
    ``overhead_disabled_pct`` field is the PR-10 acceptance number.  Returns
    the path written.
    """
    import json
    import os

    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def resilience_bench_spec(
    num_users: int = 120,
    num_providers: int = 5,
    k: int = 2,
    seeds: Sequence[int] = (0, 1, 2),
):
    """The audit spec both resilience benchmarks time (single source of truth).

    Every coalition of size <= ``k`` (15 coalitions at the default m=5, k=2)
    x the four-deviation library x ``seeds``: 180 cells at the defaults.
    Shared by :func:`run_resilience_benchmark` and
    ``benchmarks/test_bench_resilience.py`` so the timed benchmarks and the
    exported artifact can never measure different audits.
    """
    from repro.scenarios.resilience import ResilienceSpec
    from repro.scenarios.spec import ScenarioSpec

    return ResilienceSpec(
        name="bench-resilience",
        base=ScenarioSpec(
            name="bench-resilience",
            mechanism="double",
            users=num_users,
            providers=num_providers,
            config={"k": min(k, (num_providers - 1) // 2)},
            latency="constant",
            seed=seeds[0],
            measure_compute=False,
        ),
        k=k,
        adversaries=(
            "equivocate",
            {"kind": "tamper_output", "bonus": 5.0},
            "drop_messages",
            {"kind": "crash", "max_sends": 4},
        ),
        schedules=("fair",),
        seeds=tuple(seeds),
    )


def run_resilience_benchmark(
    num_users: int = 120,
    num_providers: int = 5,
    k: int = 2,
    workers="auto",
    seeds: Sequence[int] = (0, 1, 2),
) -> Dict[str, object]:
    """Measure the resilience audit under the default worker resolution.

    Runs the :func:`resilience_bench_spec` audit once sequentially and once
    with the requested ``workers`` (default ``"auto"``), resolved through the
    worker policy (:func:`repro.scenarios.dispatch.resolve_workers`): on a
    single available CPU ``"auto"`` *is* the sequential path, so the default
    configuration can never pay pool overhead, and the artifact records a
    1.0x speedup by construction.  On multi-CPU hosts the resolved pool is
    timed against the sequential run and the verdicts are checked
    bit-identical.  ``workers_resolved``/``backend``/``cpu_count`` record
    both sides of the resolution next to the headline numbers of
    ``BENCH_resilience.json``.
    """
    import os
    import time

    from repro.common import available_cpus
    from repro.scenarios.dispatch import resolve_workers
    from repro.scenarios.resilience import run_resilience

    spec = resilience_bench_spec(
        num_users=num_users, num_providers=num_providers, k=k, seeds=seeds
    )
    coalitions = len(spec.coalition_selectors())
    cells = len(spec.cells()) * len(spec.effective_seeds())
    plan = resolve_workers(workers)

    start = time.perf_counter()
    sequential = run_resilience(spec)
    sequential_seconds = time.perf_counter() - start

    if plan.parallel:
        start = time.perf_counter()
        parallel = run_resilience(spec, workers=workers)
        parallel_seconds = time.perf_counter() - start
        speedup = (
            sequential_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
        )
        identical = sequential.records == parallel.records
        note = (
            f"workers={plan.requested!r} resolved to {plan.workers} processes "
            f"on {available_cpus()} available CPUs"
        )
    else:
        # The default configuration resolved to the sequential path: there is
        # no pool run to time, and the speedup is 1.0 by definition rather
        # than a sub-1x pool-overhead reading.
        parallel_seconds = None
        speedup = 1.0
        identical = True
        note = (
            f"workers={plan.requested!r} resolved to the sequential path "
            f"({available_cpus()} available CPU); no pool was launched"
        )
    return {
        "note": note,
        "bench": "resilience-audit",
        "workload": "double-auction coalition-deviation audit",
        "users": num_users,
        "providers": num_providers,
        "audit_k": k,
        "coalitions": coalitions,
        "cells": cells,
        "workers_requested": plan.requested,
        "workers_resolved": plan.workers,
        "backend": plan.backend,
        "cpu_count": available_cpus(),
        "cpu_count_logical": os.cpu_count(),
        "wall_seconds_sequential": sequential_seconds,
        "wall_seconds_parallel": parallel_seconds,
        "speedup": speedup,
        "verdicts_identical": identical,
        "resilient": sequential.is_resilient(),
        "summary": (
            f"BENCH_resilience: {cells} cells over {coalitions} coalitions, "
            f"workers={plan.requested!r} -> {plan.workers} ({plan.backend}): "
            f"{speedup:.1f}x vs sequential "
            f"({sequential_seconds:.2f}s sequential, {available_cpus()} "
            f"available CPU{'s' if available_cpus() != 1 else ''}), "
            f"verdicts identical={identical}"
        ),
    }


def export_resilience_artifact(
    payload: Dict[str, object], path="BENCH_resilience.json"
) -> str:
    """Write the resilience-audit bench artifact (see :func:`run_resilience_benchmark`).

    The durable counterpart of ``BENCH_sweep.json`` / ``BENCH_net.json`` for
    the game-theory layer; CI regenerates it in quick mode and greps the
    ``summary`` line.  Returns the path written.
    """
    import json
    import os

    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def chaos_bench_spec(
    num_users: int = 80,
    num_providers: int = 5,
    seeds: Sequence[int] = (0, 1, 2),
):
    """The audit spec both chaos benchmarks time (single source of truth).

    A six-model fault grid — loss at two rates, duplication, reordering, a
    latency spike and a crash-restart — x ``seeds``: 18 cells at the
    defaults, each run twice (the replay invariant).  Shared by
    :func:`run_chaos_benchmark` and ``benchmarks/test_bench_chaos.py`` so the
    timed benchmarks and the exported artifact can never measure different
    audits.
    """
    from repro.scenarios.chaos import ChaosSpec
    from repro.scenarios.spec import ScenarioSpec

    return ChaosSpec(
        name="bench-chaos",
        base=ScenarioSpec(
            name="bench-chaos",
            mechanism="double",
            users=num_users,
            providers=num_providers,
            config={"k": min(2, (num_providers - 1) // 2)},
            latency="constant",
            seed=seeds[0],
            measure_compute=False,
        ),
        faults=(
            {"kind": "loss", "rate": 0.05},
            {"kind": "loss", "rate": 0.2, "label": "heavy-loss"},
            "duplicate",
            "reorder",
            {"kind": "latency_spike", "at": 0.001, "duration": 0.004, "extra": 0.05},
            {"kind": "crash", "node": "p01", "at": 0.001, "duration": 0.002},
        ),
        seeds=tuple(seeds),
    )


def run_chaos_benchmark(
    num_users: int = 80,
    num_providers: int = 5,
    workers="auto",
    seeds: Sequence[int] = (0, 1, 2),
) -> Dict[str, object]:
    """Measure the chaos audit under the default worker resolution.

    Runs the :func:`chaos_bench_spec` audit once sequentially and once with
    the requested ``workers`` (default ``"auto"``), resolved through the
    worker policy: on a single available CPU ``"auto"`` *is* the sequential
    path, so the default configuration can never pay pool overhead, and the
    artifact records a 1.0x speedup by construction.  On multi-CPU hosts the
    resolved pool is timed against the sequential run and the records are
    checked bit-identical — the chaos layer's own replay invariant, asserted
    once more across the process boundary.
    """
    import os
    import time

    from repro.common import available_cpus
    from repro.scenarios.chaos import run_chaos
    from repro.scenarios.dispatch import resolve_workers

    spec = chaos_bench_spec(
        num_users=num_users, num_providers=num_providers, seeds=seeds
    )
    cells = len(spec.cells()) * len(spec.effective_seeds())
    plan = resolve_workers(workers)

    start = time.perf_counter()
    sequential = run_chaos(spec)
    sequential_seconds = time.perf_counter() - start

    if plan.parallel:
        start = time.perf_counter()
        parallel = run_chaos(spec, workers=workers)
        parallel_seconds = time.perf_counter() - start
        speedup = (
            sequential_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
        )
        identical = sequential.records == parallel.records
        note = (
            f"workers={plan.requested!r} resolved to {plan.workers} processes "
            f"on {available_cpus()} available CPUs"
        )
    else:
        parallel_seconds = None
        speedup = 1.0
        identical = True
        note = (
            f"workers={plan.requested!r} resolved to the sequential path "
            f"({available_cpus()} available CPU); no pool was launched"
        )
    return {
        "note": note,
        "bench": "chaos-audit",
        "workload": "double-auction fault-injection audit",
        "users": num_users,
        "providers": num_providers,
        "faults": len(spec.faults),
        "cells": cells,
        "workers_requested": plan.requested,
        "workers_resolved": plan.workers,
        "backend": plan.backend,
        "cpu_count": available_cpus(),
        "cpu_count_logical": os.cpu_count(),
        "wall_seconds_sequential": sequential_seconds,
        "wall_seconds_parallel": parallel_seconds,
        "speedup": speedup,
        "records_identical": identical,
        "clean": sequential.is_clean(),
        "summary": (
            f"BENCH_chaos: {cells} cells over {len(spec.faults)} fault models, "
            f"workers={plan.requested!r} -> {plan.workers} ({plan.backend}): "
            f"{speedup:.1f}x vs sequential "
            f"({sequential_seconds:.2f}s sequential, {available_cpus()} "
            f"available CPU{'s' if available_cpus() != 1 else ''}), "
            f"clean={sequential.is_clean()}"
        ),
    }


def export_chaos_artifact(payload: Dict[str, object], path="BENCH_chaos.json") -> str:
    """Write the chaos-audit bench artifact (see :func:`run_chaos_benchmark`).

    The fault plane's durable counterpart of ``BENCH_resilience.json``; CI
    regenerates it in quick mode and greps the ``summary`` line.  Returns
    the path written.
    """
    import json
    import os

    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def store_bench_records(count: int = 10_000, seed: int = 0) -> List[RunRecord]:
    """Deterministic synthetic records for the store-plane benchmark.

    Shaped like a real sweep's output — repeating strings (interning
    pressure), a nullable ``engine``, mixed ints/floats/bools — but built in
    memory so the benchmark times the *store*, not the simulator.  Pure
    function of ``(count, seed)``.
    """
    import random

    rng = random.Random(seed)
    records = []
    for index in range(count):
        records.append(
            RunRecord(
                name="store-bench",
                series=f"series-{index % 5}",
                runner="scenario",
                mechanism="double" if index % 2 else "standard",
                engine=None if index % 11 == 0 else "vectorized",
                users=40 + (index % 30),
                providers=8,
                executors=5,
                k=2,
                parallel=index % 3 == 0,
                instance=index % 4,
                seed=index % 16,
                elapsed_seconds=rng.random() * 2.0,
                messages=1_000 + (index % 997),
                bytes_transferred=50_000 + 13 * (index % 4096),
                aborted=False,
                winners=10 + (index % 20),
                total_paid=round(rng.random() * 500.0, 6),
                total_received=round(rng.random() * 450.0, 6),
            )
        )
    return records


def run_store_benchmark(records: int = 10_000, seed: int = 0) -> Dict[str, object]:
    """Measure the results plane: append throughput and scan/summarize time.

    Writes the same ``records`` synthetic rounds through both
    :data:`~repro.scenarios.store.STORE_BACKENDS` formats, then times the
    analysis side: the jsonl *full parse* (``read()`` — parse every line,
    rehydrate every record) against the columnar *streaming summary*
    (``summary()`` — memory-mapped chunk reductions, no records built).
    That ratio is the columnar backend's reason to exist and the headline
    ``speedup_scan_summarize`` of ``BENCH_store.json``.
    """
    import os
    import shutil
    import tempfile
    import time

    from repro.scenarios.spec import ScenarioSpec
    from repro.scenarios.store import ResultsStore

    rows = store_bench_records(records, seed=seed)
    sweep = SweepSpec(
        base=ScenarioSpec(name="store-bench", mechanism="double", users=40, seed=seed),
        name="store-bench",
    )
    directory = tempfile.mkdtemp(prefix="bench-store-")
    appends: Dict[str, Dict[str, object]] = {}
    try:
        paths = {}
        for fmt in ("jsonl", "columnar"):
            path = os.path.join(directory, f"bench.{fmt}")
            paths[fmt] = path
            start = time.perf_counter()
            with ResultsStore(path, format=fmt) as store:
                store.begin(sweep, total_rounds=len(rows))
                for index, record in enumerate(rows):
                    store.append(index, 0, record)
            seconds = time.perf_counter() - start
            appends[fmt] = {
                "append_seconds": seconds,
                "appends_per_sec": len(rows) / seconds,
                "file_bytes": os.path.getsize(path),
            }

        start = time.perf_counter()
        _manifest, parsed = ResultsStore(paths["jsonl"]).read()
        jsonl_parse_seconds = time.perf_counter() - start

        start = time.perf_counter()
        jsonl_summary = ResultsStore(paths["jsonl"]).summary()
        jsonl_summary_seconds = time.perf_counter() - start

        start = time.perf_counter()
        columnar_summary = ResultsStore(paths["columnar"]).summary()
        columnar_summary_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    if len(parsed) != len(rows) or columnar_summary["records"] != len(rows):
        raise RuntimeError("store benchmark lost records; refusing to report")
    # Histogram-derived stats are batch-invariant (bit-identical across
    # backends); totals are accumulated in different batch partitions, so
    # means agree only to rounding.
    for name, stats in jsonl_summary["columns"].items():
        other = columnar_summary["columns"][name]
        exact = all(stats[f] == other[f] for f in ("count", "min", "max", "p50", "p90", "p99"))
        close = abs(stats["mean"] - other["mean"]) <= 1e-9 * max(1.0, abs(stats["mean"]))
        if not (exact and close):
            raise RuntimeError(
                f"store benchmark summaries disagree across backends on {name!r}"
            )

    speedup = jsonl_parse_seconds / columnar_summary_seconds
    size_ratio = appends["jsonl"]["file_bytes"] / appends["columnar"]["file_bytes"]
    return {
        "bench": "store-plane",
        "workload": "synthetic sweep records (store_bench_records)",
        "records": len(rows),
        "jsonl": appends["jsonl"],
        "columnar": appends["columnar"],
        "jsonl_full_parse_seconds": jsonl_parse_seconds,
        "jsonl_summarize_seconds": jsonl_summary_seconds,
        "columnar_summarize_seconds": columnar_summary_seconds,
        "speedup_scan_summarize": speedup,
        "size_ratio_jsonl_over_columnar": size_ratio,
        "summaries_identical": True,
        "summary": (
            f"BENCH_store: {len(rows)} records — columnar scan+summarize "
            f"{speedup:.1f}x faster than jsonl full parse "
            f"({columnar_summary_seconds * 1e3:.1f} ms vs "
            f"{jsonl_parse_seconds * 1e3:.1f} ms), files "
            f"{size_ratio:.1f}x smaller "
            f"({appends['columnar']['file_bytes']:,} B columnar vs "
            f"{appends['jsonl']['file_bytes']:,} B jsonl)"
        ),
    }


def export_store_artifact(payload: Dict[str, object], path="BENCH_store.json") -> str:
    """Write the store-plane bench artifact (see :func:`run_store_benchmark`).

    The durable counterpart of ``BENCH_net.json`` / ``BENCH_resilience.json``
    for the results plane; CI regenerates it in quick mode and greps the
    ``summary`` line.  Returns the path written.
    """
    import json
    import os

    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def default_latency_model() -> LatencyModel:
    """The WAN-ish latency model used by both experiments (spec kind ``"wan"``).

    Calibrated loosely to the paper's testbed: a few milliseconds of one-way latency
    between community-network sites plus a 100 Mbit/s-class transmission term, which
    is what makes the double-auction overhead grow with the number of users.

    Delegates to the ``"wan"`` registry entry so the calibration constants live
    in exactly one place — ``repro-auction fig4`` (this model object) and
    ``repro-auction sweep --spec fig4.json`` (the registry kind) can never
    drift apart.
    """
    from repro.scenarios.registry import LATENCIES
    from repro.scenarios.spec import ComponentSpec

    return LATENCIES.create(ComponentSpec("wan"), "latency")


@dataclass(frozen=True)
class ExperimentPoint:
    """One (series, n) measurement."""

    figure: str
    series: str
    num_users: int
    elapsed_seconds: float
    messages: int
    bytes_transferred: int
    aborted: bool = False
    extra: Tuple[Tuple[str, float], ...] = ()

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "figure": self.figure,
            "series": self.series,
            "users": self.num_users,
            "seconds": self.elapsed_seconds,
            "messages": self.messages,
            "bytes": self.bytes_transferred,
            "aborted": self.aborted,
        }
        row.update(dict(self.extra))
        return row


def record_to_point(
    figure: str, record: RunRecord, extra: Tuple[Tuple[str, float], ...] = ()
) -> ExperimentPoint:
    """Project the uniform :class:`RunRecord` schema onto a figure point."""
    return ExperimentPoint(
        figure=figure,
        series=record.series,
        num_users=record.users,
        elapsed_seconds=record.elapsed_seconds,
        messages=record.messages,
        bytes_transferred=record.bytes_transferred,
        aborted=record.aborted,
        extra=extra,
    )


class _SweepExperiment:
    """Shared wrapper machinery: a built-in sweep spec plus amortised components."""

    figure: str
    sweep_spec: SweepSpec

    def run_sweep_result(
        self,
        *,
        workers: Optional[int] = None,
        store=None,
        store_format: Optional[str] = None,
        resume: bool = False,
    ) -> SweepResult:
        """Run the full grid through the sweep engine (the CLI's ``--json`` path).

        ``workers``/``store``/``store_format``/``resume`` are forwarded to
        :func:`~repro.scenarios.sweep.run_sweep`: an N-process pool over the
        grid, an append-only results journal in the chosen
        :data:`~repro.scenarios.store.STORE_BACKENDS` format, and
        journal-backed resume.
        """
        return run_sweep(
            self.sweep_spec,
            latency_model=self.latency_model,
            workers=workers,
            store=store,
            store_format=store_format,
            resume=resume,
        )

    def points_from_result(self, result: SweepResult) -> List[ExperimentPoint]:
        """Project a sweep result onto the classic figure points."""
        return [
            record_to_point(self.figure, record, self._extra(record))
            for record in result.records
        ]

    def run(self, **kwargs) -> List[ExperimentPoint]:
        """Run the full grid and return the classic figure points."""
        return self.points_from_result(self.run_sweep_result(**kwargs))

    def _run_point(self, overrides: Dict[str, object], instance: int) -> RunRecord:
        spec = spec_with_overrides(self.sweep_spec.base, overrides)
        return run_scenario(
            spec,
            instance,
            mechanism=self.mechanism,
            workload=self.workload,
            latency_model=self.latency_model,
        )

    def _extra(self, record: RunRecord) -> Tuple[Tuple[str, float], ...]:
        return ()


class Figure4Experiment(_SweepExperiment):
    """Running time of the double auction: centralised vs distributed (k = 1, 2, 3)."""

    figure = "fig4"

    def __init__(
        self,
        num_providers: int = 8,
        k_values: Sequence[int] = (1, 2, 3),
        n_values: Sequence[int] = (100, 200, 400, 600, 800, 1000),
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> None:
        self.num_providers = num_providers
        self.k_values = tuple(k_values)
        self.n_values = tuple(n_values)
        self.latency_model = latency_model if latency_model is not None else default_latency_model()
        self.seed = seed
        self.workload = DoubleAuctionWorkload(seed=seed)
        self.mechanism = DoubleAuction()
        self.sweep_spec = figure4_sweep(
            num_providers=num_providers, k_values=self.k_values, n_values=self.n_values, seed=seed
        )

    # -- single points -------------------------------------------------------------
    def executors_for_k(self, k: int) -> List[str]:
        """The minimum 2k+1 providers (paper: 3, 5, 8 out of 8) execute the protocol."""
        needed = 2 * k + 1
        if needed > self.num_providers:
            raise ValueError(f"k={k} needs {needed} providers, have {self.num_providers}")
        return default_provider_ids(needed)

    def run_centralized_point(self, num_users: int, instance: int = 0) -> ExperimentPoint:
        record = self._run_point(
            {"users": num_users, "runner": "centralized", "series": "centralised"}, instance
        )
        return record_to_point(self.figure, record)

    def run_distributed_point(self, num_users: int, k: int, instance: int = 0) -> ExperimentPoint:
        executors = len(self.executors_for_k(k))
        record = self._run_point(
            {
                "users": num_users,
                "config.k": k,
                "executors": executors,
                "series": f"distributed k={k}",
            },
            instance,
        )
        return record_to_point(self.figure, record, self._extra(record))

    def _extra(self, record: RunRecord) -> Tuple[Tuple[str, float], ...]:
        if record.runner == "centralized":
            return ()
        return (("executors", float(record.executors)),)

    # -- batches ----------------------------------------------------------------------
    def run_batch(self, num_users: int, k: int, instances: Sequence[int]) -> BatchSummary:
        """Many independent instances of one (n, k) point through a shared runner.

        This is the community-scenario shape: the same auction round repeated over
        fresh workload instances, with auctioneer setup amortised across rounds
        (see :class:`~repro.runtime.batch.BatchAuctionRunner`).
        """
        runner = BatchAuctionRunner(
            self.mechanism,
            self.workload,
            num_providers=self.num_providers,
            config=FrameworkConfig(k=k, parallel=False),
            executors=self.executors_for_k(k),
            latency_model=self.latency_model,
            seed=self.seed,
            measure_compute=True,
        )
        return runner.run_batch(num_users, instances)


class Figure5Experiment(_SweepExperiment):
    """Running time of the standard auction: parallelism p = 1 (centralised), 2, 4.

    ``engine`` selects the execution engine of the mechanism ("reference" or
    "vectorized"); results are bit-identical either way, only speed differs.
    """

    figure = "fig5"

    def __init__(
        self,
        num_providers: int = 8,
        p_values: Sequence[int] = (1, 2, 4),
        n_values: Sequence[int] = (25, 50, 75, 100, 125),
        epsilon: float = 0.25,
        engine: str = DEFAULT_ENGINE,
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> None:
        self.num_providers = num_providers
        self.p_values = tuple(p_values)
        self.n_values = tuple(n_values)
        self.epsilon = epsilon
        self.engine = engine
        self.latency_model = latency_model if latency_model is not None else default_latency_model()
        self.seed = seed
        self.workload = StandardAuctionWorkload(seed=seed)
        self.mechanism = resolve_engine(StandardAuction(epsilon=epsilon), engine)
        self.sweep_spec = figure5_sweep(
            num_providers=num_providers,
            p_values=self.p_values,
            n_values=self.n_values,
            epsilon=epsilon,
            engine=engine,
            seed=seed,
        )

    def k_for_parallelism(self, p: int) -> int:
        """The coalition bound giving parallelism ``p`` with m providers: p = ⌊m/(k+1)⌋."""
        if p < 1 or p > self.num_providers:
            raise ValueError(f"parallelism must be in [1, {self.num_providers}]")
        return self.num_providers // p - 1

    def provider_ids(self) -> List[str]:
        return default_provider_ids(self.num_providers)

    def run_centralized_point(self, num_users: int, instance: int = 0) -> ExperimentPoint:
        record = self._run_point(
            {"users": num_users, "runner": "centralized", "series": "p=1 (centralised)"},
            instance,
        )
        return record_to_point(self.figure, record)

    def run_distributed_point(self, num_users: int, p: int, instance: int = 0) -> ExperimentPoint:
        if p <= 1:
            return self.run_centralized_point(num_users, instance)
        k = self.k_for_parallelism(p)
        record = self._run_point(
            {
                "users": num_users,
                "config.k": k,
                "config.parallel": True,
                "config.num_groups": p,
                "series": f"p={p} (distributed, k={k})",
            },
            instance,
        )
        return record_to_point(self.figure, record, self._extra(record))

    def _extra(self, record: RunRecord) -> Tuple[Tuple[str, float], ...]:
        if record.runner == "centralized":
            return ()
        return (("k", float(record.k)),)

    def run_batch(self, num_users: int, p: int, instances: Sequence[int]) -> BatchSummary:
        """Many instances of one (n, p) point through a shared, engine-aware runner."""
        if p <= 1:
            config = None
        else:
            config = FrameworkConfig(
                k=self.k_for_parallelism(p), parallel=True, num_groups=p
            )
        runner = BatchAuctionRunner(
            self.mechanism,
            self.workload,
            num_providers=self.num_providers,
            config=config,
            latency_model=self.latency_model,
            seed=self.seed,
            measure_compute=True,
        )
        return runner.run_batch(num_users, instances)
