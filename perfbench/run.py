"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig4-double --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` times the workload untraced and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced units and reports the per-layer
metrics (see ``perfbench/README.md``).  A human-readable report goes to
standard output first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with the
host manifest and the input and output digests, is written to
``.perfbench-out/`` in the checkout.  Nothing else in the checkout is written.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import CORE_BLOCKS, block_family  # noqa: E402  (stdlib-only module)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("fig4-double", "fig5-standard", "bidder-round", "chaos-grid")

#: Keep this seed out of tuning; use it only to confirm a claimed change.
HELD_OUT_SEED = 104729
#: Set-up runs this many times per process; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: The exact per-layer counts come from the first traced units only.
EXACT_TRACED_UNITS = 2
#: Seconds the reference loop takes on the 2-CPU host the benchmark was
#: tuned on; every reported time is converted to that host's speed.
REFERENCE_LOOP_S = 0.020
#: A host-speed sample is taken before the next unit once this much time
#: has passed since the last one.
SAMPLE_EVERY_S = 0.5
#: Modelled, not measured: the only time the host-speed scale leaves alone.
MODELLED = ("sim_round_s",)

END_TO_END = {
    "rounds_per_s": "1/s",
    "round_s_p50": "s",
    "round_s_tail": "s",
    "cells_per_s": "1/s",
    "sim_round_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CORE_UNITS = {f"core.{block}.{kind}": ("s" if kind == "self_s" else "count")
              for block in CORE_BLOCKS for kind in ("self_s", "msgs")}

PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.root_self_s": "s",
    "trace.offthread_s": "s",
    "trace.spans": "count",
    "net.msgs": "count",
    "net.bytes": "B",
    "net.retransmissions": "count",
    "net.faults_injected": "count",
    "net.loop_self_s": "s",
    "serialization.encode_calls": "count",
    "serialization.encode_s": "s",
    "serialization.size_calls": "count",
    "serialization.size_s": "s",
    "consensus.digest_calls": "count",
    "consensus.digest_s": "s",
    "consensus.vote_calls": "count",
    "consensus.vote_s": "s",
    **CORE_UNITS,
    "core.framework.self_s": "s",
    "core.host_self_s": "s",
    "auctions.solve_calls": "count",
    "auctions.solve_s": "s",
    "auctions.totals_calls": "count",
    "auctions.totals_s": "s",
    "engine.greedy_calls": "count",
    "engine.greedy_s": "s",
    "engine.local_search_calls": "count",
    "engine.local_search_s": "s",
    "engine.pivot_calls": "count",
    "engine.pivot_s": "s",
    "engine.memo_hit_ratio": "ratio",
    "engine.memo_lookups": "count",
    "runtime.handler_calls": "count",
    "runtime.handler_self_s": "s",
    "scenarios.cell_s": "s",
    "scenarios.driver_self_s": "s",
    "dispatch.workers": "count",
    "dispatch.pool_start_s": "s",
    "dispatch.wait_s": "s",
    "store.append_calls": "count",
    "store.append_s": "s",
    "store.bytes": "B",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` on the path and import the benchmark modules."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise ImportError(f"no program sources at {package.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    return workloads, tracer


# ------------------------------------------------------------------ statistics --
def tail(values):
    """The value at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], {"percentile": 100.0, "n": n, "beyond": 0}
    index = n - 11
    return ordered[index], {"percentile": 100.0 * (index + 1) / n, "n": n, "beyond": 10}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def manifest(args, workload) -> dict:
    import numpy

    from repro.auctions.engine.pivot import PivotExecutor
    from repro.obs.context import current_observation
    from repro.scenarios.dispatch import resolve_workers

    plan = resolve_workers("auto")
    return {
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "pivot_executor_auto_mode": PivotExecutor("auto").mode,
        "chaos_worker_plan": {"requested": "auto", "workers": plan.workers,
                              "backend": plan.backend},
        "measure_compute": False,
        "observation": "off" if current_observation() is None else "on",
        "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "workload": dict(workload.config(), name=workload.name, unit=workload.unit),
    }


# ------------------------------------------------------------------ host speed --
def reference_loop() -> float:
    """Time a fixed piece of the kind of work the program does; returns seconds.

    Dict updates over string keys, a tuple sort, JSON encoding and a hash:
    pure Python, like the program's hot paths, and independent of its code.
    """
    began = perf_counter()
    for _ in range(4):
        rows = [(f"u{i:04d}", (i * 7919 % 1000) / 1000.0, (i * 104729 % 997) / 997.0)
                for i in range(2000)]
        totals = {}
        for user, value, demand in rows:
            totals[user] = totals.get(user, 0.0) + value * demand
        ordered = sorted(rows, key=lambda row: (row[1], row[0]))
        hashlib.sha256(json.dumps(ordered[:500]).encode("utf-8")).digest()
    return perf_counter() - began


class HostSpeed:
    """How fast this host runs the reference loop over one benchmark run.

    On a shared host the speed of the program drifts with other tenants'
    load, by some 15% over tens of seconds, and the reference loop drifts
    with it.  Scaling each measured time by ``REFERENCE_LOOP_S`` over the
    run's median loop time gives it in reference seconds; on the tuning host
    that cut the run-to-run spread of ``rounds_per_s`` up to threefold.
    The raw wall-clock values are kept in the full result.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.next_at = 0.0

    def sample(self) -> None:
        self.samples.append(reference_loop())
        self.next_at = perf_counter() + SAMPLE_EVERY_S

    def sample_if_due(self) -> None:
        if perf_counter() >= self.next_at:
            self.sample()

    @property
    def scale(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_LOOP_S / statistics.median(self.samples)

    def convert(self, metrics: dict, units_of: dict) -> dict:
        """Measured times and rates in reference seconds."""
        scale = self.scale
        out = {}
        for key, value in metrics.items():
            if units_of[key] == "s" and key not in MODELLED:
                value *= scale
            elif units_of[key] == "1/s":
                value /= scale
            out[key] = value
        return out


# --------------------------------------------------------------------- running --
class Unit:
    __slots__ = ("index", "wall", "traced", "result", "error", "memo", "sim", "failed")

    def __init__(self, index, wall, traced, result, error, memo):
        self.index, self.wall, self.traced = index, wall, traced
        self.result, self.error, self.memo = result, error, memo
        self.sim = []
        self.failed = 0


class TraceState:
    """What the traced run accumulates across its traced units."""

    def __init__(self, tracer) -> None:
        self.recorder = tracer.Recorder()
        self.recorder.worker_dir = str(OUT_DIR / f"worker-spans-{os.getpid()}")
        self.all = tracer.LayerTotals()
        #: The first EXACT_TRACED_UNITS traced units only: exact for a seed.
        self.exact = tracer.LayerTotals()
        self.exact_units = 0
        self.exact_memo = []
        self.exact_store_bytes = 0
        self.pool_start_s = 0.0
        self.sample = None

    def fold(self, workload, unit) -> None:
        """Take the spans of a traced unit that just ran."""
        parent = self.recorder.drain()
        workers = [(False, spans) for _main, spans in self.recorder.load_worker_spans()]
        buffers = parent + workers
        self.all.add(buffers)
        if self.exact_units < EXACT_TRACED_UNITS:
            self.exact.add(buffers)
            self.exact_units += 1
            self.exact_memo.append(unit.memo)
            if unit.result is not None:
                self.exact_store_bytes += workload.store_bytes(unit.result)
        if self.sample is None:
            self.sample = [{"main": main, "spans": spans} for main, spans in parent]
        waits = [s[1] for _m, spans in parent for s in spans if s[0] == "dispatch.wait"]
        starts = [s[1] for _m, spans in workers for s in spans]
        if waits and starts:
            self.pool_start_s += max(0.0, min(starts) - min(waits))


def measure(workload, seconds, speed, trace=None):
    """Run units until their timed walls add up to ``seconds``.

    At least ``workload.exact_units`` units run whatever ``seconds`` says, so
    ``sim_round_s`` and the exact counts cover the same units on every run.

    Each unit's oracle runs right after it, outside the timed wall, and the
    result is then dropped (all but the first units, kept for the digests).
    Host-speed samples are taken between units.  With a ``trace`` state, odd
    units run traced and their spans are folded into it.
    Returns ``(units, problems, peak_rss)``: the peak resident memory when
    the exact units are done, which is the same work on any host.  (A fig4
    round leaves about 1.5 MB in reference cycles until the next full
    collection, so the peak at the end of the run would depend on how many
    rounds the host got through.)
    """
    from repro.auctions.engine.pivot import shared_solve_cache

    cache = shared_solve_cache()
    units, problems = [], []
    peak_rss = None
    timed = 0.0
    for index in range(len(workload.inputs)):
        if index >= workload.exact_units and timed >= seconds:
            break
        speed.sample_if_due()
        traced = trace is not None and index % 2 == 1
        if traced:
            trace.recorder.install()
        hits, misses = cache.hits, cache.misses
        began = perf_counter()
        try:
            result, error = workload.run(index), None
        except Exception:  # a failed unit is counted, and the run goes on
            result, error = None, traceback.format_exc()
        wall = perf_counter() - began
        if traced:
            trace.recorder.uninstall()
        timed += wall
        memo = (cache.hits - hits, cache.hits - hits + cache.misses - misses)
        unit = Unit(index, wall, traced, result, error, memo)
        units.append(unit)
        if traced:
            trace.fold(workload, unit)
        problems.extend(check(workload, unit))
        if index == workload.exact_units - 1:
            peak_rss = peak_rss_mb()
        if index >= workload.exact_units:
            unit.result = None
    return units, problems, peak_rss


def last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


def check(workload, unit):
    """The oracle for one unit: sets ``unit.failed`` and returns the problems."""
    if unit.error is not None:
        unit.failed = workload.cells_per_unit
        return [f"unit {unit.index} raised: {last_line(unit.error)}"]
    try:
        found = workload.failures(unit.index, unit.result)
        found += workload.sampled_failures(unit.index, unit.result)
        unit.sim = workload.sim_seconds(unit.result)
    except Exception:
        found = [f"oracle raised: {last_line(traceback.format_exc())}"]
    if found:
        unit.failed = min(workload.cells_per_unit, max(1, workload.failed_count(unit.result)))
    return [f"unit {unit.index}: {text}" for text in found]


def sim_round_s(workload, units) -> float:
    """Mean modelled seconds per round over the first units (exact for a seed)."""
    sims = [s for unit in units[:workload.exact_units] for s in unit.sim]
    return statistics.fmean(sims) if sims else 0.0


def end_to_end(workload, units, setup_s, peak_rss):
    samples = [unit.wall / workload.rounds_per_unit for unit in units]
    tail_value, tail_info = tail(samples)
    timed = sum(unit.wall for unit in units)
    metrics = {
        "rounds_per_s": len(units) * workload.rounds_per_unit / timed,
        "round_s_p50": statistics.median(samples),
        "round_s_tail": tail_value,
        "cells_per_s": len(units) * workload.cells_per_unit / timed,
        "sim_round_s": sim_round_s(workload, units),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
    }
    return metrics, {"round_s_tail": tail_info, "timed_units": len(units),
                     "timed_rounds": len(units) * workload.rounds_per_unit,
                     "timed_seconds": timed}


def per_layer(workload, units, trace):
    """Per-layer metrics, per round (per cell for a grid: a round's cell is itself)."""
    all_, exact = trace.all, trace.exact
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    n = max(1, len(traced)) * workload.cells_per_unit
    ne = max(1, trace.exact_units) * workload.cells_per_unit

    def busy(name):
        return all_.self_s.get(name, 0.0) / n

    def calls(name):
        return exact.calls.get(name, 0) / ne

    def net(key):
        return sum(r[key] for r in exact.rounds) / ne

    def block_msgs(block):
        return sum(count for r in exact.rounds for path, count in r["by_tag"].items()
                   if block_family(path) == block) / ne

    hits = sum(h for h, _ in trace.exact_memo)
    lookups = sum(total for _, total in trace.exact_memo)
    overhead = 0.0
    if traced and plain:
        overhead = 100.0 * (statistics.median(u.wall for u in traced)
                            / statistics.median(u.wall for u in plain) - 1.0)
    metrics = {
        "trace.wall_s": sum(u.wall for u in traced) / n,
        "trace.overhead_pct": overhead,
        "trace.root_self_s": busy("round"),
        "trace.offthread_s": all_.offthread_s / n,
        "trace.spans": exact.spans / ne,
        "net.msgs": net("msgs"),
        "net.bytes": net("bytes"),
        "net.retransmissions": net("retransmissions"),
        "net.faults_injected": net("faults_injected"),
        "net.loop_self_s": busy("net.run"),
        "serialization.encode_calls": calls("serialization.encode"),
        "serialization.encode_s": busy("serialization.encode"),
        "serialization.size_calls": calls("serialization.size"),
        "serialization.size_s": busy("serialization.size"),
        "consensus.digest_calls": calls("consensus.digest"),
        "consensus.digest_s": busy("consensus.digest"),
        "consensus.vote_calls": calls("consensus.vote"),
        "consensus.vote_s": busy("consensus.vote"),
    }
    for block in CORE_BLOCKS:
        metrics[f"core.{block}.self_s"] = busy(f"core.{block}")
        metrics[f"core.{block}.msgs"] = block_msgs(block)
    metrics.update({
        "core.framework.self_s": busy("core.framework"),
        "core.host_self_s": busy("core.host"),
        "auctions.solve_calls": calls("auctions.solve"),
        "auctions.solve_s": busy("auctions.solve"),
        "auctions.totals_calls": calls("auctions.totals"),
        "auctions.totals_s": busy("auctions.totals"),
        "engine.greedy_calls": calls("engine.greedy"),
        "engine.greedy_s": busy("engine.greedy"),
        "engine.local_search_calls": calls("engine.local_search"),
        "engine.local_search_s": busy("engine.local_search"),
        "engine.pivot_calls": calls("engine.pivot"),
        "engine.pivot_s": busy("engine.pivot"),
        "engine.memo_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.memo_lookups": lookups / ne,
        "runtime.handler_calls": calls("runtime.handler"),
        "runtime.handler_self_s": busy("runtime.handler"),
        "scenarios.cell_s": all_.total_s.get("scenarios.cell", 0.0) / n,
        "scenarios.driver_self_s": busy("scenarios.grid"),
        "dispatch.workers": workload.dispatch_workers,
        "dispatch.pool_start_s": trace.pool_start_s / n,
        "dispatch.wait_s": busy("dispatch.wait"),
        "store.append_calls": calls("store.append"),
        "store.append_s": busy("store.append"),
        "store.bytes": trace.exact_store_bytes / ne,
    })
    return metrics, layer_table(all_, traced, n)


def layer_table(totals, traced, n):
    """Every span name's calls and self time per unit of work, and its share."""
    wall = sum(u.wall for u in traced)
    rows = []
    off = totals.offthread_s
    for name in sorted(totals.self_s, key=lambda k: -totals.self_s[k]):
        main = totals.main_self_s.get(name, 0.0)
        rows.append({
            "layer": name,
            "calls": totals.calls[name] / n,
            "self_s": totals.self_s[name] / n,
            "main_thread_share": main / wall if wall else 0.0,
            "offthread_share": (totals.self_s[name] - main) / off if off else 0.0,
        })
    accounted = sum(totals.main_self_s.values())
    return {
        "rows": rows,
        "traced_wall_s": wall,
        "root_spans_s": totals.root_s,
        "main_thread_self_s": accounted,
        "outside_entry_points_s": wall - totals.root_s,
        "offthread_s": totals.offthread_s,
    }


def print_report(name, per, trace, metrics, units_of, extras, table, problems):
    print(f"perfbench {name} ({'traced' if trace else 'timed'} run)")
    width = max(len(k) for k in metrics)
    for key, value in metrics.items():
        print(f"  {key:<{width}}  {value:14.6g} {units_of[key]}")
    if table is not None:
        wall = table["traced_wall_s"]
        print(f"  layer table: calls and self time per {per}; share of the traced "
              f"wall ({wall:.3f} s) on the main thread, and of off-thread busy time")
        for row in table["rows"]:
            print(f"    {row['layer']:<24} calls {row['calls']:12.1f}  self "
                  f"{row['self_s']:.6f} s  main {100 * row['main_thread_share']:6.2f}%"
                  f"  off {100 * row['offthread_share']:6.2f}%")
        if wall:
            print(f"    {'(outside entry points)':<24} "
                  f"{100 * table['outside_entry_points_s'] / wall:6.2f}% of traced wall; "
                  f"main-thread layers sum to "
                  f"{100 * table['main_thread_self_s'] / wall:6.2f}%; "
                  f"off-thread busy {table['offthread_s']:.3f} s")
    for key, value in extras.items():
        print(f"  {key}: {value}")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")


def run_one(args) -> int:
    try:
        workloads, tracer = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    imports_s = perf_counter() - PROCESS_START
    OUT_DIR.mkdir(exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    speed = HostSpeed()
    try:
        repeats = []
        for _ in range(SETUP_REPEATS):
            speed.sample()
            began = perf_counter()
            workload.setup()
            repeats.append(perf_counter() - began)
        setup_s = imports_s + statistics.median(repeats)
        # The prebuilt inputs of every round are long-lived benchmark state;
        # freezing them keeps the collector from rescanning them in the
        # program's timed rounds.
        gc.collect()
        gc.freeze()

        trace = TraceState(tracer) if args.trace else None
        if trace is not None:
            os.makedirs(trace.recorder.worker_dir, exist_ok=True)
        units, problems, peak_rss = measure(workload, args.seconds, speed, trace)
        speed.sample()
        if trace is not None:
            os.rmdir(trace.recorder.worker_dir)
        attempted = len(units) * workload.cells_per_unit
        failed = sum(unit.failed for unit in units)
        results = [u.result for u in units[:workload.exact_units] if u.error is None]
        extras = {
            "input_digest": workload.input_digest(),
            "output_digest": workload.output_digest(results),
            "setup_repeats_s": repeats,
            "imports_s": imports_s,
            "failed_share": failed / attempted,
            "units_available": len(workload.inputs),
            "reference_loop_s": statistics.median(speed.samples),
            "reference_loop_samples": len(speed.samples),
            "reference_seconds_per_wall_second": speed.scale,
        }
        if args.trace:
            metrics, table = per_layer(workload, units, trace)
            extras["sim_round_s"] = sim_round_s(workload, units)
            units_of = PER_LAYER
        else:
            metrics, more = end_to_end(workload, units, setup_s, peak_rss)
            extras.update(more)
            table = None
            units_of = END_TO_END
        extras["wall_clock_metrics"] = metrics
        metrics = speed.convert(metrics, units_of)
    finally:
        workload.close()

    full = {
        "workload": args.workload,
        "manifest": manifest(args, workload),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        "extras": extras,
        "layer_table": table,
        "unit_walls_s": [u.wall for u in units],
        "unit_traced": [u.traced for u in units],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(full, handle, indent=1)
    if trace is not None and trace.sample is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump(trace.sample, handle)

    per = "cell" if workload.unit == "grid" else "round"
    print_report(args.workload, per, args.trace, metrics, units_of, extras, table, problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": full["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, and print a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
