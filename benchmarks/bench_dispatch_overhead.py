"""Ablation A1: run-time dispatch overhead vs chain length and set size.

Multi-versioning's run-time overhead is the per-call cost-function
evaluation plus the argmin (Section V motivates keeping the variant count
small because this overhead grows linearly with it).  This benchmark
measures dispatch latency for the Theorem 2 sets and for the full variant
enumeration, across chain lengths.
"""

import numpy as np
import pytest

from repro.runtime.dispatcher import Dispatcher
from repro.compiler.selection import all_variants, essential_set
from repro.experiments.sampling import sample_instances, sample_shapes

from conftest import emit


def _setup(n: int, full: bool):
    rng = np.random.default_rng(n)
    chain = sample_shapes(n, 1, rng, rectangular_probability=0.5)[0]
    if full:
        variants = all_variants(chain)
    else:
        train = sample_instances(chain, 300, rng)
        variants = essential_set(chain, training_instances=train)
    # memo_capacity=0: this ablation measures the *cost sweep* itself, so
    # the size-keyed dispatch memo (which would answer every repeat in
    # ~1 us regardless of set size) is disabled; bench_runtime_hot_path.py
    # covers the memoized steady state.
    dispatcher = Dispatcher(chain, variants, memo_capacity=0)
    sizes = tuple(int(x) for x in sample_instances(chain, 1, rng)[0])
    return dispatcher, sizes


@pytest.mark.parametrize("n", [3, 5, 7, 10])
def test_dispatch_essential_set(benchmark, n):
    dispatcher, sizes = _setup(n, full=False)
    benchmark(dispatcher.select, sizes)
    benchmark.extra_info["variants"] = len(dispatcher)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_dispatch_full_enumeration(benchmark, n):
    dispatcher, sizes = _setup(n, full=True)
    benchmark(dispatcher.select, sizes)
    benchmark.extra_info["variants"] = len(dispatcher)


def test_overhead_grows_with_set_size(benchmark):
    """Sanity: selecting among C_{n-1} variants evaluates C_{n-1} costs."""
    import time

    def sweep():
        rows = []
        for n in (4, 6, 8):
            dispatcher, sizes = _setup(n, full=True)
            start = time.perf_counter()
            reps = 200
            for _ in range(reps):
                dispatcher.select(sizes)
            elapsed = (time.perf_counter() - start) / reps
            rows.append(
                f"n={n}: {len(dispatcher):4d} variants, "
                f"{elapsed * 1e6:8.1f} us/dispatch"
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("Ablation A1: dispatch overhead", "\n".join(rows))
