"""Wall-clock timing of the NumPy reference kernels.

For users who want real-hardware numbers instead of the simulated machine:
:func:`time_callable` is the one median-of-repeats timer (as in the paper),
which :func:`repro.perfmodel.calibration.measure_performance` uses to fill
a measured model's FLOP/s grid — that model then prices variants through
the same ``time_call`` loop as the simulated one.  :func:`time_variant`
times a whole variant's reference plan.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Sequence

import numpy as np

from repro.compiler.variant import Variant
from repro.runtime import compile_plan, infer_sizes


def time_callable(fn: Callable[[], object], repeats: int = 10) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def time_variant(
    variant: Variant,
    arrays: Sequence[np.ndarray],
    repeats: int = 10,
) -> float:
    """Median wall-clock seconds to execute a variant on concrete operands.

    The reference plan is compiled once, outside the timed callable, so
    each repeat measures the replay alone.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    plan = compile_plan(variant, infer_sizes(variant.chain, arrays))
    return time_callable(lambda: plan.execute(arrays), repeats)
