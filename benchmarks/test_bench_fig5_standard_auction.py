"""Figure 5 — running time of the standard auction vs number of users (§6.3).

Series: p = 1 (centralised), p = 2 (distributed, k = 3) and p = 4 (distributed,
k = 1), with m = 8 providers.  The paper's qualitative findings that must hold:

* running time grows quickly with n (the allocation + per-user VCG payments are the
  dominant cost);
* for compute-dominated instances the distributed, parallelised execution is *faster*
  than the centralised one, and more parallelism (p = 4) beats less (p = 2);
* the communication overhead of the framework is negligible compared to the
  computation in this regime.

The user counts are smaller than Figure 4's because the mechanism is expensive —
exactly as in the paper.
"""

import statistics

import pytest

from repro.auctions.engine import ENGINES, clear_solve_cache
from repro.bench.harness import Figure5Experiment

#: Defense in depth next to the conftest auto-marker: the bench marker
#: must survive this file being run from outside the benchmarks rootdir.
pytestmark = pytest.mark.bench

N_VALUES = (25, 50, 75, 100, 125)
P_VALUES = (1, 2, 4)

_experiments = {
    engine: Figure5Experiment(
        n_values=N_VALUES, p_values=P_VALUES, epsilon=0.25, engine=engine, seed=42
    )
    for engine in ENGINES
}
_experiment = _experiments["reference"]


@pytest.mark.parametrize("num_users", N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("engine", ENGINES)
def test_fig5_running_time(benchmark, engine, num_users, p):
    """Both engines, cold-cache per point, so their mean times compare honestly."""
    point = benchmark.pedantic(
        _experiments[engine].run_distributed_point,
        args=(num_users, p),
        setup=clear_solve_cache,
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["figure"] = "fig5"
    benchmark.extra_info["series"] = point.series
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["users"] = num_users
    benchmark.extra_info["model_seconds"] = point.elapsed_seconds
    benchmark.extra_info["messages"] = point.messages
    assert not point.aborted


#: Interleaved repeats per parallelism level in the crossover check.
CROSSOVER_REPEATS = 9


def test_fig5_parallelisation_beats_centralised_at_scale():
    """The crossover of Figure 5: for large enough n, p=4 < p=2 < p=1.

    The modelled times include measured compute, so one run of each point is
    at the mercy of whatever else the host is doing.  After one warm-up run of
    each point, the points are run in interleaved repeats (p=1, 2, 4, then
    again) so a slow spell hits every series alike, and the medians are
    compared against the same thresholds a single run used to face.
    """
    n = 100
    for p in P_VALUES:  # warm-up: first runs pay one-off set-up costs
        _experiment.run_distributed_point(n, p)
    samples = {p: [] for p in P_VALUES}
    for _ in range(CROSSOVER_REPEATS):
        for p in P_VALUES:
            samples[p].append(_experiment.run_distributed_point(n, p).elapsed_seconds)
    central, p2, p4 = (statistics.median(samples[p]) for p in P_VALUES)
    assert p4 < p2 < central, repr(samples)
    # The speed-up of the fully parallel configuration is substantial (the paper
    # reports roughly 4x at n=125; require at least 1.5x here).
    assert central / p4 > 1.5, repr(samples)


def test_fig5_running_time_grows_quickly_with_n():
    small = _experiment.run_distributed_point(25, 1)
    large = _experiment.run_distributed_point(100, 1)
    assert large.elapsed_seconds > 2 * small.elapsed_seconds
