"""Observability overhead on the runtime hot path.

The ``repro.obs`` layer instruments ``Dispatcher.run``: disabled, the
only addition over the plain replay is one module-flag read (the
execute-time histogram is fed in batches from the dispatcher's execution
log, like its counters); enabled, every kernel call is individually
timed into per-``(kernel, routine)`` histograms and the call is stamped
with a ``runtime.run`` leaf span.

The **pre-obs baseline**, reconstructed faithfully here from the PR-5
``run`` body, is the same memoized dispatch + plan replay with no flag
check and no histogram feed.  The acceptance test bounds the overhead
ratios: disabled tracing within ``DISABLED_BUDGET`` of the baseline, a
fully enabled run within ``ENABLED_BUDGET``.

Measurement notes, learned the hard way: the three modes are interleaved
*per call* (frequency/thermal drift hits all three equally), compared on
per-call **medians** (one interrupt cannot poison a mean), with the GC
paused (collection pauses land on random calls).  The workload uses
serving-realistic instance sizes — on toy 4x4 operands the kernel work
is a few µs and any ratio measures the bookkeeping against itself.
"""

import gc
import statistics
import time

import numpy as np
import pytest

from repro.compiler.selection import essential_set
from repro.experiments.sampling import sample_instances
from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix
from repro.ir.operand import Operand
from repro.obs import trace as obs_trace
from repro.runtime import Dispatcher, DispatchOutcome, random_instance_arrays

from conftest import emit

#: CI acceptance bounds on warm dispatch+execute, as overhead ratios.
DISABLED_BUDGET = 1.03  # tracing off: within 3% of the pre-obs baseline
ENABLED_BUDGET = 1.15  # tracing fully on: within 15%

#: Interleaved calls per mode for the acceptance medians.
REPS = 300


def _general_chain(n: int) -> Chain:
    return Chain(
        tuple(
            Operand(Matrix(f"M{i}", Structure.GENERAL, Property.SINGULAR))
            for i in range(n)
        )
    )


def _setup(n: int, rng, low=64, high=160):
    """A warm dispatcher on a serving-realistic instance."""
    chain = _general_chain(n)
    train = sample_instances(chain, 300, rng)
    variants = essential_set(chain, training_instances=train)
    sizes = tuple(
        int(x) for x in sample_instances(chain, 1, rng, low=low, high=high)[0]
    )
    arrays = random_instance_arrays(chain, sizes, rng)
    dispatcher = Dispatcher(chain, variants)
    dispatcher(*arrays)  # compile + memoize the plan outside any timing
    return dispatcher, arrays


def _baseline_call(dispatcher, arrays):
    """One warm request exactly as the pre-obs ``run`` paid it (the PR-5
    body, verbatim): memoized dispatch through ``plan_for``, plan replay,
    outcome counters — no flag read, no histogram feed."""
    values = [np.asarray(a, dtype=np.float64) for a in arrays]
    sizes = dispatcher._infer.infer(values)
    variant, cost, plan = dispatcher.plan_for(sizes, validate=False)
    start = time.perf_counter()
    result = plan.replay(values)
    elapsed = time.perf_counter() - start
    with dispatcher._memo_lock:
        dispatcher.backend_executions[plan.backend] = (
            dispatcher.backend_executions.get(plan.backend, 0) + 1
        )
        dispatcher.last_execute_seconds = elapsed
        dispatcher.last_execute_at = time.monotonic()
    return DispatchOutcome(sizes, variant, cost, result)


def _interleaved_medians(fns: dict[str, object]) -> dict[str, float]:
    """Per-function median call time over per-call interleaved rounds."""
    for fn in fns.values():
        fn()  # warm lazy state (plans, cached observers) untimed
    samples: dict[str, list[float]] = {name: [] for name in fns}
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPS):
            for name, fn in fns.items():
                start = time.perf_counter()
                fn()
                samples[name].append(time.perf_counter() - start)
    finally:
        gc.enable()
    return {name: statistics.median(times) for name, times in samples.items()}


def test_obs_overhead_acceptance(benchmark):
    """CI bound: disabled tracing <= 3% over the pre-obs path, enabled <= 15%."""
    assert not obs_trace.enabled()
    rng = np.random.default_rng(2026)
    rows = []
    worst_disabled = worst_enabled = 0.0
    for n in (10, 12):
        dispatcher, arrays = _setup(n, rng)

        def baseline():
            return _baseline_call(dispatcher, arrays)

        def disabled():
            return dispatcher.run(arrays)

        def enabled():
            obs_trace.enable()
            try:
                return dispatcher.run(arrays)
            finally:
                obs_trace.disable()

        timed = _interleaved_medians(
            {"baseline": baseline, "disabled": disabled, "enabled": enabled}
        )
        obs_trace.drain()  # drop the spans the enabled calls buffered
        ratio_disabled = timed["disabled"] / timed["baseline"]
        ratio_enabled = timed["enabled"] / timed["baseline"]
        worst_disabled = max(worst_disabled, ratio_disabled)
        worst_enabled = max(worst_enabled, ratio_enabled)
        rows.append(
            f"n={n}: baseline {timed['baseline'] * 1e6:7.1f} us/call, "
            f"disabled {ratio_disabled:.3f}x, enabled {ratio_enabled:.3f}x"
        )
    emit("Observability overhead: warm dispatch+execute", "\n".join(rows))
    benchmark.extra_info["worst_disabled_ratio"] = round(worst_disabled, 4)
    benchmark.extra_info["worst_enabled_ratio"] = round(worst_enabled, 4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert worst_disabled <= DISABLED_BUDGET, (
        f"disabled tracing costs {worst_disabled:.3f}x the pre-obs baseline "
        f"(budget {DISABLED_BUDGET}x):\n" + "\n".join(rows)
    )
    assert worst_enabled <= ENABLED_BUDGET, (
        f"enabled tracing costs {worst_enabled:.3f}x the pre-obs baseline "
        f"(budget {ENABLED_BUDGET}x):\n" + "\n".join(rows)
    )


@pytest.mark.parametrize("mode", ["baseline", "disabled", "enabled"])
def test_dispatch_execute_by_mode(benchmark, mode):
    """Timed: the warm per-call path under each observability mode."""
    rng = np.random.default_rng(8)
    dispatcher, arrays = _setup(10, rng)
    if mode == "baseline":
        benchmark(lambda: _baseline_call(dispatcher, arrays))
    elif mode == "disabled":
        benchmark(lambda: dispatcher.run(arrays))
    else:
        obs_trace.enable()
        try:
            dispatcher.run(arrays)  # build cached kernel observers untimed
            benchmark(lambda: dispatcher.run(arrays))
        finally:
            obs_trace.disable()
            obs_trace.drain()
    benchmark.extra_info["mode"] = mode
