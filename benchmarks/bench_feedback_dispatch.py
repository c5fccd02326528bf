"""Feedback-directed dispatch on a skewed synthetic machine.

The analytic FLOP model assumes every kernel class runs at one uniform
effective rate.  This benchmark builds a machine where that is maximally
wrong — a backend that executes one kernel class (``TRTRMM``) ``SKEW``
times slower than the reference substrate — and checks that the feedback
loop recovers: traced traffic feeds per-kernel observed FLOP/s, the
:class:`~repro.perfmodel.feedback.CalibratedEstimator` learns the skew,
a re-selection checkpoint re-sweeps the pool under the calibrated model,
and the memo entry swaps to the parenthesization that avoids the slow
kernel.  End-to-end, the calibrated dispatcher must beat the FLOPs-only
one by at least ``MIN_SPEEDUP`` on the skewed machine (the chain is
built so the expected ratio is ~``(SKEW + 1) / 2``).

A second gate bounds the cost of the feature where it is *not* needed:
warm dispatch with calibration + re-selection enabled (tracing off) must
stay within ``OVERHEAD_BUDGET`` of the reconstructed pre-obs call path —
the same 15% budget ``bench_obs_overhead`` holds the fully-traced path
to.  Measurement discipline follows that benchmark: per-call interleaved
rounds, medians, GC paused.
"""

import gc
import statistics
import time

import numpy as np

from repro.compiler.selection import essential_set
from repro.experiments.sampling import sample_instances
from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix
from repro.ir.operand import Operand
from repro.obs import get_registry
from repro.obs import trace as obs_trace
from repro.perfmodel.feedback import CalibratedEstimator
from repro.runtime import Dispatcher, DispatchOutcome, random_instance_arrays
from repro.runtime.backends import Backend, LoweredKernel, ReferenceBackend

from conftest import emit

#: Slowdown the synthetic machine applies to the ``TRTRMM`` kernel class.
SKEW = 16

#: CI acceptance floor on the end-to-end calibrated-vs-FLOPs speedup.
MIN_SPEEDUP = 1.3

#: CI acceptance bound on warm dispatch with feedback enabled, tracing
#: off, as a ratio over the pre-obs baseline (bench_obs_overhead's gate).
OVERHEAD_BUDGET = 1.15

#: Interleaved calls per mode for the acceptance medians.
REPS = 300

#: Disagreement/advantage factor that triggers a re-selection sweep.
RESELECT_RATIO = 2.0


class SkewedBackend(Backend):
    """Reference lowering with one kernel class slowed by a factor.

    The slow kernel's lowered callable simply repeats the reference
    implementation ``factor`` times — real work, so traced timings (and
    therefore the learned rates) reflect the skew honestly.
    """

    name = "skewed"

    def __init__(self, slow_kernel: str, factor: int):
        self.slow_kernel = slow_kernel
        self.factor = factor
        self._reference = ReferenceBackend()

    def specialize(self, call):
        lowered = self._reference.specialize(call)
        if call.kernel != self.slow_kernel:
            return lowered
        impl, reps = lowered.impl, self.factor

        def slowed(left, right):
            for _ in range(reps - 1):
                impl(left, right)
            return impl(left, right)

        return LoweredKernel(slowed, lowered.routine)


def _triangular_chain() -> Chain:
    """T1 (lower-tri) * T2 (lower-tri) * G: the essential set is
    {[TRTRMM, TRMM], [TRMM, TRMM]}, and at m = k the TRTRMM variant is
    FLOP-optimal — exactly the pick the skewed machine punishes."""
    return Chain(
        (
            Operand(Matrix("T1", Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR)),
            Operand(Matrix("T2", Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR)),
            Operand(Matrix("G", Structure.GENERAL, Property.SINGULAR)),
        )
    )


def _general_chain(n: int) -> Chain:
    return Chain(
        tuple(
            Operand(Matrix(f"M{i}", Structure.GENERAL, Property.SINGULAR))
            for i in range(n)
        )
    )


def _uses(variant, kernel_name: str) -> bool:
    return any(step.kernel.name == kernel_name for step in variant.steps)


def _baseline_call(dispatcher, arrays):
    """One warm request exactly as the pre-obs ``run`` paid it (the PR-5
    body, verbatim — same reconstruction as bench_obs_overhead)."""
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


def test_calibrated_beats_flops_on_skewed_machine(benchmark):
    """CI floor: feedback-directed dispatch >= MIN_SPEEDUP over FLOPs-only
    on a machine whose kernel rates the analytic model gets wrong."""
    assert not obs_trace.enabled()
    get_registry().reset()  # fresh kernel-rate windows for this scenario
    rng = np.random.default_rng(2026)
    chain = _triangular_chain()
    variants = essential_set(
        chain, training_instances=sample_instances(chain, 300, rng)
    )
    slow_kernel = "TRTRMM"
    assert any(_uses(v, slow_kernel) for v in variants)
    assert any(not _uses(v, slow_kernel) for v in variants)
    sizes = (160, 160, 160, 160)
    arrays = random_instance_arrays(chain, sizes, rng)
    machine = SkewedBackend(slow_kernel, SKEW)

    flops_only = Dispatcher(chain, variants, backend=machine)
    trapped = flops_only.run(arrays)
    assert _uses(trapped.variant, slow_kernel), (
        "the FLOP model must fall into the trap: its pick uses the kernel "
        "the machine runs slowly"
    )

    estimator = CalibratedEstimator(refresh_interval=0.0)
    calibrated = Dispatcher(
        chain,
        variants,
        backend=machine,
        calibration=estimator,
        reselect_ratio=RESELECT_RATIO,
    )
    obs_trace.enable()
    try:
        for _ in range(12):  # past the first checkpoint (8 executions)
            calibrated.run(arrays)
    finally:
        obs_trace.disable()
        obs_trace.drain()
    assert calibrated.reselections >= 1, calibrated.memo_stats()
    recovered = calibrated.run(arrays)
    assert not _uses(recovered.variant, slow_kernel), (
        "re-selection must swap to the variant that avoids the slow kernel"
    )

    timed = _interleaved_medians(
        {
            "flops": lambda: flops_only.run(arrays),
            "calibrated": lambda: calibrated.run(arrays),
        }
    )
    speedup = timed["flops"] / timed["calibrated"]
    emit(
        f"Feedback-directed dispatch: skewed machine (TRTRMM {SKEW}x slow)",
        f"flops-only  {timed['flops'] * 1e6:8.1f} us/call "
        f"({trapped.variant.name})\n"
        f"calibrated  {timed['calibrated'] * 1e6:8.1f} us/call "
        f"({recovered.variant.name}, "
        f"reselections={calibrated.reselections})\n"
        f"speedup     {speedup:.2f}x (floor {MIN_SPEEDUP}x, "
        f"ideal ~{(SKEW + 1) / 2:.1f}x)",
    )
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["skew"] = SKEW
    benchmark.extra_info["reselections"] = calibrated.reselections
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= MIN_SPEEDUP, (
        f"calibrated dispatch is only {speedup:.2f}x faster than FLOPs-only "
        f"on the skewed machine (floor {MIN_SPEEDUP}x)"
    )


def test_feedback_overhead_within_budget(benchmark):
    """CI bound: warm dispatch with calibration + re-selection enabled
    (tracing off) stays within 15% of the pre-obs baseline."""
    assert not obs_trace.enabled()
    rng = np.random.default_rng(8)
    chain = _general_chain(10)
    train = sample_instances(chain, 300, rng)
    variants = essential_set(chain, training_instances=train)
    sizes = tuple(
        int(x) for x in sample_instances(chain, 1, rng, low=64, high=160)[0]
    )
    arrays = random_instance_arrays(chain, sizes, rng)

    plain = Dispatcher(chain, variants)
    feedback = Dispatcher(
        chain,
        variants,
        cost_estimator=CalibratedEstimator(),
        reselect_ratio=RESELECT_RATIO,
    )
    plain(*arrays)
    feedback(*arrays)

    timed = _interleaved_medians(
        {
            "baseline": lambda: _baseline_call(plain, arrays),
            "feedback": lambda: feedback.run(arrays),
        }
    )
    ratio = timed["feedback"] / timed["baseline"]
    emit(
        "Feedback-directed dispatch: warm overhead, tracing off",
        f"baseline {timed['baseline'] * 1e6:7.1f} us/call, "
        f"feedback {ratio:.3f}x (budget {OVERHEAD_BUDGET}x)",
    )
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ratio <= OVERHEAD_BUDGET, (
        f"feedback-enabled warm dispatch costs {ratio:.3f}x the pre-obs "
        f"baseline (budget {OVERHEAD_BUDGET}x)"
    )
