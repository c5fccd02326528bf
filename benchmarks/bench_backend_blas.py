"""Execution backends: BLAS-lowered plans vs the reference kernels.

PR 6 adds a pluggable execution-backend layer (``repro.runtime.backends``).
The ``blas`` backend maps each step's ``StepCall`` record to a direct
``scipy.linalg.blas``/``lapack`` call (dtrmm/dsymm/dtrsm/dgemm/dsyrk, plus
LAPACK solvers) with the transpose/side/triangularity algebra resolved into
routine flags at plan-compile time, so structured operands stop paying
dense-matmul prices.

The acceptance test asserts the blas backend replays a
triangular/symmetric-heavy chain at n=1024 >= 2x faster than the reference
backend, with matching results; CI runs it on every push alongside the
timed benchmarks.  It skips itself only when scipy's BLAS/LAPACK routines
are unavailable.
"""

import functools
import time

import numpy as np
import pytest

from repro.api import compile_chain
from repro.runtime import (
    FALLBACK_ROUTINE,
    blas_available,
    random_instance_arrays,
)

from conftest import emit

#: The CI acceptance bound: blas vs reference replay at n=1024.
REQUIRED_SPEEDUP = 2.0

needs_blas = pytest.mark.skipif(
    not blas_available(), reason="scipy BLAS/LAPACK routines unavailable"
)

#: Triangular/symmetric-heavy chains in the Fig. 2 input language.  The
#: gate chain is an LDL^T-style product applied to a narrow block: every
#: step is structured (TRMM/DIMM), which is exactly where the reference
#: backend's dense matmuls leave the most on the table.
GATE_SOURCE = (
    "Matrix L <LowerTri, NonSingular>; "
    "Matrix D <Diagonal, NonSingular>; "
    "Matrix B <General, Singular>; "
    "R := L * D * L^T * B;"
)
SYMM_SOURCE = (
    "Matrix S <Symmetric, NonSingular>; "
    "Matrix U <UpperTri, NonSingular>; "
    "Matrix B <General, Singular>; "
    "R := S * U^T * B;"
)
CHAINS = {"ldlt": GATE_SOURCE, "symm": SYMM_SOURCE}

#: Right-hand-side width for every instance (keeps a 2048^2 operand's
#: products affordable while the structured operands dominate the cost).
RHS_COLS = 64


@functools.lru_cache(maxsize=None)
def _compiled(source: str):
    return compile_chain(source, num_training_instances=50, use_cache=False)


def _instance(gen, n: int):
    sizes = (n,) * gen.chain.n + (RHS_COLS,)
    arrays = random_instance_arrays(
        gen.chain, sizes, np.random.default_rng(n)
    )
    return sizes, arrays


def _plan(gen, sizes, backend: str):
    _, _, plan = gen.program.runtime(backend=backend).plan_for(sizes)
    return plan


def _measure(fn, reps: int) -> float:
    fn()  # warm any lazy state outside the timed window
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@needs_blas
def test_blas_backend_acceptance(benchmark):
    """CI bound: blas replay >= 2x reference on the gate chain at n=1024."""
    gen = _compiled(GATE_SOURCE)
    sizes, arrays = _instance(gen, 1024)
    ref_plan = _plan(gen, sizes, "reference")
    blas_plan = _plan(gen, sizes, "blas")
    # The gate chain must genuinely lower — an all-fallback plan would
    # "pass" by timing the reference path against itself.
    assert any(r != FALLBACK_ROUTINE for r in blas_plan.step_routines), (
        f"gate chain did not lower: {blas_plan.step_routines}"
    )
    # Matching answers before timing anything.
    np.testing.assert_allclose(
        blas_plan.execute(arrays), ref_plan.execute(arrays),
        rtol=1e-9, atol=1e-9,
    )
    reps = 5
    t_ref = _measure(lambda: ref_plan.execute(arrays), reps)
    t_blas = _measure(lambda: blas_plan.execute(arrays), reps)
    speedup = t_ref / t_blas
    emit(
        "BLAS backend: gate chain L * D * L^T * B at n=1024",
        "\n".join(
            [
                f"routines: {', '.join(blas_plan.step_routines)}",
                f"reference {t_ref * 1e3:8.2f} ms/replay, "
                f"blas {t_blas * 1e3:8.2f} ms/replay, {speedup:5.1f}x",
            ]
        ),
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["routines"] = list(blas_plan.step_routines)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"blas backend is only {speedup:.2f}x the reference backend at "
        f"n=1024 (required >= {REQUIRED_SPEEDUP}x); "
        f"routines: {blas_plan.step_routines}"
    )


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
@pytest.mark.parametrize("chain_name", sorted(CHAINS))
@pytest.mark.parametrize("backend", ["reference", "blas"])
def test_backend_replay(benchmark, chain_name, backend, n):
    """Timed: warm plan replay per backend across sizes 256-2048."""
    if backend == "blas" and not blas_available():
        pytest.skip("scipy BLAS/LAPACK routines unavailable")
    gen = _compiled(CHAINS[chain_name])
    sizes, arrays = _instance(gen, n)
    plan = _plan(gen, sizes, backend)
    benchmark(plan.execute, arrays)
    benchmark.extra_info["routines"] = list(plan.step_routines)
