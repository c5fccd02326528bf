"""Runtime hot path: memoized dispatch+execute vs a memo-less baseline.

The runtime (`repro.runtime`) answers a repeated instance from a
dispatch memo keyed on the operand shapes: one memo probe and a replay
of the `ExecutionPlan` compiled for those sizes (sizes are inferred only
on the miss that memoized them).

The **memo-less baseline** pays per call what the memo amortizes away:
a full cost-matrix sweep with per-row instance validation (a dispatcher
with ``memo_capacity=0``), a second ``infer_sizes`` inside
``execute_variant(check_shapes=True)``, and a plan compiled for the
sizes before its single replay (kernel lowering, ``StepCall``
construction, slot resolution).

The acceptance test asserts the memoized runtime answers repeated
same-size dispatch+execute requests >= 5x faster (bit-identical results);
CI runs it on every push alongside the timed benchmarks.
"""

import time

import numpy as np
import pytest

from repro.compiler.selection import essential_set
from repro.experiments.sampling import sample_instances, sample_shapes
from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix
from repro.ir.operand import Operand
from repro.runtime import (
    Dispatcher,
    execute_variant,
    infer_sizes,
    random_instance_arrays,
)

from conftest import emit

#: The CI acceptance bound on repeated same-size dispatch+execute.
REQUIRED_SPEEDUP = 5.0


def _general_chain(n: int) -> Chain:
    return Chain(
        tuple(
            Operand(Matrix(f"M{i}", Structure.GENERAL, Property.SINGULAR))
            for i in range(n)
        )
    )


def _setup(chain, rng, low=4, high=16):
    train = sample_instances(chain, 300, rng)
    variants = essential_set(chain, training_instances=train)
    sizes = tuple(int(x) for x in sample_instances(chain, 1, rng, low=low, high=high)[0])
    arrays = random_instance_arrays(chain, sizes, rng)
    return variants, sizes, arrays


def _memo_less_call(chain, dispatcher, arrays):
    """One request without the memo's amortization.

    ``dispatcher`` must have ``memo_capacity=0`` so ``select`` performs a
    full sweep (with per-row validation); ``execute_variant`` with
    ``check_shapes=True`` then re-infers the sizes and compiles a plan
    for its single replay.
    """
    sizes = infer_sizes(chain, [np.asarray(a) for a in arrays])
    variant, _ = dispatcher.select(sizes)
    return execute_variant(variant, list(arrays), check_shapes=True)


def _measure(fn, reps: int) -> float:
    fn()  # warm any lazy state outside the timed window
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def test_repeated_dispatch_acceptance(benchmark):
    """CI bound: the warm runtime is >= 5x the memo-less per-call path."""
    rng = np.random.default_rng(2026)
    rows = []
    worst = float("inf")
    for n in (8, 10):
        chain = _general_chain(n)
        variants, sizes, arrays = _setup(chain, rng)
        runtime = Dispatcher(chain, variants)
        legacy = Dispatcher(chain, variants, memo_capacity=0)
        # Identical answers before timing anything.
        np.testing.assert_array_equal(
            runtime(*arrays), _memo_less_call(chain, legacy, arrays)
        )
        reps = 300
        t_old = _measure(
            lambda: _memo_less_call(chain, legacy, arrays), reps
        )
        t_new = _measure(lambda: runtime(*arrays), reps)
        speedup = t_old / t_new
        worst = min(worst, speedup)
        rows.append(
            f"n={n:2d}: {len(variants):2d} variants, "
            f"memo-less {t_old * 1e6:8.1f} us/call, "
            f"runtime {t_new * 1e6:8.1f} us/call, {speedup:5.1f}x"
        )
    emit("Runtime hot path: repeated same-size dispatch+execute", "\n".join(rows))
    benchmark.extra_info["worst_speedup"] = round(worst, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert worst >= REQUIRED_SPEEDUP, (
        f"memoized runtime is only {worst:.1f}x the memo-less path "
        f"(required >= {REQUIRED_SPEEDUP}x):\n" + "\n".join(rows)
    )


@pytest.mark.parametrize("n", [5, 8, 10])
def test_warm_dispatch_execute(benchmark, n):
    """Timed: the steady-state per-call path (memo hit + plan replay)."""
    rng = np.random.default_rng(n)
    chain = _general_chain(n)
    variants, sizes, arrays = _setup(chain, rng)
    dispatcher = Dispatcher(chain, variants)
    dispatcher(*arrays)  # compile the plan
    benchmark(dispatcher, *arrays)
    benchmark.extra_info["variants"] = len(variants)
    benchmark.extra_info["memo"] = dispatcher.memo_stats()


@pytest.mark.parametrize("n", [5, 8, 10])
def test_memo_less_dispatch_execute(benchmark, n):
    """Timed: the memo-less per-call baseline."""
    rng = np.random.default_rng(n)
    chain = _general_chain(n)
    variants, sizes, arrays = _setup(chain, rng)
    dispatcher = Dispatcher(chain, variants, memo_capacity=0)
    benchmark(lambda: _memo_less_call(chain, dispatcher, arrays))
    benchmark.extra_info["variants"] = len(variants)


def test_execute_many_batched(benchmark):
    """Timed: batched execution shares one sweep across distinct sizes."""
    rng = np.random.default_rng(7)
    chain = sample_shapes(6, 1, rng, rectangular_probability=0.5)[0]
    train = sample_instances(chain, 300, rng)
    variants = essential_set(chain, training_instances=train)
    dispatcher = Dispatcher(chain, variants)
    batches = []
    for q in sample_instances(chain, 16, rng, low=4, high=16):
        batches.append(
            random_instance_arrays(chain, tuple(int(x) for x in q), rng)
        )
    benchmark(dispatcher.execute_many, batches)
    benchmark.extra_info["instances"] = len(batches)
    benchmark.extra_info["memo"] = dispatcher.memo_stats()
