"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/selftest.py -q`` (or
``python3 perfbench/selftest.py``).  The file name does not match pytest's
``test_*.py`` pattern on purpose: these tests start whole benchmark runs and
stay out of the repository's tier-1 suite.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads, tracer = run.import_program()

#: Per-layer metrics that must repeat exactly for a seed.
EXACT_SUFFIXES = ("_calls", ".msgs", ".bytes", ".retransmissions", ".faults_injected")
EXACT_NAMES = ("trace.spans", "engine.memo_hit_ratio", "engine.memo_lookups",
               "dispatch.workers")


def traced_run(name: str, seed: int) -> dict:
    """One short traced run in a fresh process; returns the full result file."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, proc.stdout
    with open(run.OUT_DIR / f"{name}-seed{seed}-trace1.json", encoding="utf-8") as handle:
        return json.load(handle)


def exact_part(result: dict) -> dict:
    metrics = {
        key: value["value"]
        for key, value in result["metrics"].items()
        if key.endswith(EXACT_SUFFIXES) or key in EXACT_NAMES
    }
    metrics["sim_round_s"] = result["extras"]["sim_round_s"]
    metrics["input_digest"] = result["extras"]["input_digest"]
    metrics["output_digest"] = result["extras"]["output_digest"]
    return metrics


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_two_runs_give_identical_exact_counts(name):
    first, second = exact_part(traced_run(name, 3)), exact_part(traced_run(name, 3))
    assert first == second
    assert first["net.msgs"] > 0 and first["sim_round_s"] > 0


@pytest.mark.parametrize("name", ["fig5-standard", "bidder-round", "chaos-grid"])
def test_seed_changes_the_input_digest(name, tmp_path):
    digests = []
    for seed in (1, 1, 2):
        workload = workloads.WORKLOADS[name](seed, tmp_path)
        try:
            workload.setup()
            digests.append(workload.input_digest())
        finally:
            workload.close()
    assert digests[0] == digests[1] != digests[2]


@pytest.fixture(scope="module")
def fig4(tmp_path_factory):
    workload = workloads.Fig4Double(5, tmp_path_factory.mktemp("fig4"))
    workload.input_cap = 2
    workload.setup()
    yield workload
    workload.close()


def checked(workload, index, result):
    unit = run.Unit(index, 0.0, False, result, None, (0, 0))
    return run.check(workload, unit), unit.failed


def test_correct_round_passes_the_oracle(fig4):
    problems, failed = checked(fig4, 0, fig4.run(0))
    assert problems == [] and failed == 0


def test_fig4_oracle_rejects_a_result_for_other_bids(fig4):
    problems, failed = checked(fig4, 1, fig4.run(0))
    assert failed == 1
    assert "CentralizedAuctioneer" in problems[0]


def test_fig5_oracle_rejects_an_infeasible_allocation(tmp_path):
    workload = workloads.Fig5Standard(5, tmp_path)
    workload.input_cap = 1
    try:
        workload.setup()
        report = workload.run(0)
        bids, _ = workload.inputs[0]
        user = bids.users[0]
        entries = report.result.allocation.entries + ((user.user_id, bids.providers[0].provider_id,
                                                       user.demand * 10),)
        allocation = dataclasses.replace(report.result.allocation, entries=entries)
        result = dataclasses.replace(report.result, allocation=allocation)
        tampered = dataclasses.replace(report, outcome=dataclasses.replace(report.outcome,
                                                                           result=result))
        problems, failed = checked(workload, 0, tampered)
    finally:
        workload.close()
    assert failed == 1
    assert any("infeasible" in problem for problem in problems)


def test_bidder_oracle_rejects_a_wrong_observation(tmp_path):
    workload = workloads.BidderRound(5, tmp_path)
    workload.input_cap = 1
    workload.setup()
    result = workload.run(0)
    first = sorted(result.bidder_observations)[0]
    result.bidder_observations[first] = None
    problems, failed = checked(workload, 0, result)
    assert failed == 1
    assert "1 bidders" in problems[0]


def test_chaos_oracle_counts_failing_cells(tmp_path):
    workload = workloads.ChaosGrid(5, tmp_path)
    workload.input_cap = 1
    workload.setup()
    chaos_result, size = workload.run(0)
    chaos_result.records[0] = dataclasses.replace(chaos_result.records[0], replay_ok=False)
    problems, failed = checked(workload, 0, (chaos_result, size))
    assert failed == 1
    assert "1 failing" in problems[0]


def test_a_raising_unit_fails_all_its_cells(tmp_path):
    workload = workloads.ChaosGrid(5, tmp_path)
    unit = run.Unit(0, 0.0, False, None, "Traceback\nRuntimeError: boom\n", (0, 0))
    problems = run.check(workload, unit)
    assert unit.failed == workload.cells_per_unit
    assert "RuntimeError: boom" in problems[0]


def test_host_speed_converts_measured_times_only():
    speed = run.HostSpeed()
    speed.samples = [0.04, 0.05, 0.03]  # median 0.04 s: half the reference speed
    metrics = {"rounds_per_s": 2.0, "round_s_p50": 0.5, "sim_round_s": 0.1,
               "peak_rss_mb": 90.0}
    assert speed.convert(metrics, run.END_TO_END) == {
        "rounds_per_s": 4.0, "round_s_p50": 0.25, "sim_round_s": 0.1, "peak_rss_mb": 90.0}


def test_tail_has_ten_samples_beyond_it():
    value, info = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and info["beyond"] == 10 and info["n"] == 40


def test_block_family_maps_protocol_paths():
    assert tracer.block_family("framework/ba/batch") == "bid_agreement"
    assert tracer.block_family("framework/alloc/iv") == "input_validation"
    assert tracer.block_family("framework/alloc/coin") == "common_coin"
    assert tracer.block_family("framework/alloc/dt:pay/0") == "data_transfer"
    assert tracer.block_family("framework/alloc") == "allocator"
    assert tracer.block_family("submit_bid") is None


def test_wrappers_are_removed_after_uninstall():
    from repro.net import serialization
    from repro.consensus import commitment

    original = commitment.canonical_encode
    recorder = tracer.Recorder()
    recorder.install()
    try:
        assert commitment.canonical_encode is not original
        commitment.CommitmentScheme.digest_of({"a": [1, 2]}, b"n")
        spans = recorder.drain()
    finally:
        recorder.uninstall()
    assert commitment.canonical_encode is original is serialization.canonical_encode
    names = [span[0] for _main, buffer in spans for span in buffer]
    # canonical_encode recursed into the dict and list: still one encode span.
    assert names == ["consensus.digest", "serialization.encode"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
