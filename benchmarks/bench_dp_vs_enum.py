"""Ablation A3: run-time DP search vs compile-time enumeration.

The paper's alternative to multi-versioning is searching for the optimal
sequence at run time (the Linnea approach), which it rejects for latency
reasons.  This benchmark quantifies that: the per-instance cost of the
generalized-chain dynamic program vs the (amortized, compile-time)
enumeration, and vs a single dispatch.
"""

import numpy as np
import pytest

from repro.runtime.dispatcher import Dispatcher
from repro.compiler.dp import dp_optimal_cost
from repro.compiler.selection import all_variants, essential_set, optimal_cost
from repro.experiments.sampling import sample_instances, sample_shapes

from conftest import emit


@pytest.fixture(scope="module", params=[4, 6, 8])
def chain_and_instance(request):
    n = request.param
    rng = np.random.default_rng(n)
    chain = sample_shapes(n, 1, rng, rectangular_probability=0.5)[0]
    sizes = tuple(int(x) for x in sample_instances(chain, 1, rng)[0])
    return n, chain, sizes


def test_dp_search_latency(benchmark, chain_and_instance):
    n, chain, sizes = chain_and_instance
    cost = benchmark(dp_optimal_cost, chain, sizes)
    assert cost > 0
    benchmark.extra_info["n"] = n


def test_enumeration_latency(benchmark, chain_and_instance):
    n, chain, sizes = chain_and_instance
    cost = benchmark(optimal_cost, chain, sizes)
    assert cost > 0
    benchmark.extra_info["n"] = n


def test_dispatch_latency(benchmark, chain_and_instance):
    """The multi-versioning alternative: amortized compile, cheap dispatch."""
    n, chain, sizes = chain_and_instance
    rng = np.random.default_rng(0)
    train = sample_instances(chain, 300, rng)
    dispatcher = Dispatcher(chain, essential_set(chain, training_instances=train))
    benchmark(dispatcher.select, sizes)
    benchmark.extra_info["n"] = n


def test_dp_agrees_with_enumeration(benchmark):
    def sweep():
        rows = []
        for n in (4, 5, 6, 7):
            rng = np.random.default_rng(n * 13)
            chain = sample_shapes(n, 1, rng, rectangular_probability=0.5)[0]
            agree = 0
            total = 10
            for q in sample_instances(chain, total, rng, low=2, high=500):
                dp = dp_optimal_cost(chain, tuple(q))
                enum = optimal_cost(chain, tuple(q))
                assert dp <= enum * (1 + 1e-9) + 1e-9
                if abs(dp - enum) <= 1e-9 * max(1.0, enum):
                    agree += 1
            rows.append(f"n={n}: DP == enumeration on {agree}/{total} instances")
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("Ablation A3: DP vs enumeration agreement", "\n".join(rows))
