"""C-emitter backend: native step interpreter vs per-step BLAS dispatch.

The ``c`` execution backend (``repro.runtime.backends.cemit``) packs each
variant's execution plan into an integer step record — every
transpose/side/triangularity flag resolved at plan-compile time, every
dimension a reference into the sizes bound per call — and replays it
with one call into a prebuilt native interpreter that walks the record
through cython_blas/lapack function pointers.  The win is zero Python
interpretation per step — exactly where long chains of *small* operands
spend their time.  The interpreter is compiled once per codegen cache
directory and kept in that bounded on-disk cache, so a warm deployment
never re-invokes the compiler, and a new size vector costs no packing.

CI gates (skipped when no C toolchain or capsules are available):

* warm dispatch+execute with ``c`` >= 1.5x over ``blas`` on a 10-matrix
  chain of small operands (sizes <= 64, Python-overhead dominated);
* no regression (>= 0.95x of ``blas``) at n=1024 where BLAS time
  dominates and the native loop can only win on call overhead;
* a second invocation in a fresh process hits the codegen disk cache:
  zero compiler invocations, also for size vectors the first process
  never saw, asserted via the obs counters.
"""

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import compile_chain
from repro.runtime import cemit_available, random_instance_arrays

from conftest import emit

#: CI acceptance bounds: c vs blas warm dispatch+execute.
REQUIRED_SMALL_SPEEDUP = 1.5
REQUIRED_LARGE_RATIO = 0.95

needs_cemit = pytest.mark.skipif(
    not cemit_available(),
    reason="C toolchain or scipy cython capsules unavailable",
)

#: The gate chain: 10 general matrices — 9 GEMM steps, so the per-step
#: Python overhead of the blas backend is paid nine times per replay
#: while the native loop pays one function call total.
N_MATRICES = 10
GATE_SOURCE = (
    "; ".join(f"Matrix A{i} <General, Singular>" for i in range(N_MATRICES))
    + "; R := "
    + " * ".join(f"A{i}" for i in range(N_MATRICES))
    + ";"
)

#: Right-hand-side width at n=1024 (keeps each step ~1024^2 x RHS_COLS).
RHS_COLS = 64


@functools.lru_cache(maxsize=None)
def _compiled():
    return compile_chain(GATE_SOURCE, num_training_instances=20, use_cache=False)


def _instance(n: int, rhs: int):
    gen = _compiled()
    sizes = (n,) * (gen.chain.n) + (rhs,)
    arrays = random_instance_arrays(gen.chain, sizes, np.random.default_rng(n))
    return gen, sizes, arrays


def _measure_pair(fn_a, fn_b, reps: int) -> tuple[float, float]:
    """Best-of-``reps`` for both callables, interleaved.

    Alternating the two timed calls keeps slow drift (thermal throttling,
    another process waking up) from landing entirely on one side — the
    failure mode of timing all of A before any of B.
    """
    fn_a()  # warm: memoized plan, loaded shared object, page-warm buffers
    fn_b()
    best_a = best_b = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _runtimes(gen, sizes, arrays):
    """Warm (c, blas) dispatchers with verified plans and matching answers."""
    c_runtime = gen.program.runtime(backend="c")
    blas_runtime = gen.program.runtime(backend="blas")
    _, _, c_plan = c_runtime.plan_for(sizes)
    assert c_plan.backend == "c", "gate chain did not lower natively"
    np.testing.assert_allclose(
        c_runtime(*arrays), blas_runtime(*arrays), rtol=1e-9, atol=1e-9
    )
    return c_runtime, blas_runtime


@needs_cemit
def test_c_backend_small_operand_acceptance(benchmark):
    """CI bound: c >= 1.5x blas warm dispatch+execute at sizes <= 64."""
    gen, sizes, arrays = _instance(16, 16)
    c_runtime, blas_runtime = _runtimes(gen, sizes, arrays)
    t_blas, t_c = _measure_pair(
        lambda: blas_runtime(*arrays), lambda: c_runtime(*arrays), reps=200
    )
    speedup = t_blas / t_c
    emit(
        f"C backend: {N_MATRICES}-matrix chain, small operands (n=16)",
        f"blas {t_blas * 1e6:8.1f} us/call, c {t_c * 1e6:8.1f} us/call, "
        f"{speedup:5.2f}x",
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= REQUIRED_SMALL_SPEEDUP, (
        f"c backend is only {speedup:.2f}x blas on the small-operand chain "
        f"(required >= {REQUIRED_SMALL_SPEEDUP}x)"
    )


@needs_cemit
def test_c_backend_large_operand_no_regression(benchmark):
    """CI bound: c >= 0.95x blas at n=1024 (BLAS time dominates)."""
    gen, sizes, arrays = _instance(1024, RHS_COLS)
    c_runtime, blas_runtime = _runtimes(gen, sizes, arrays)
    t_blas, t_c = _measure_pair(
        lambda: blas_runtime(*arrays), lambda: c_runtime(*arrays), reps=5
    )
    ratio = t_blas / t_c
    emit(
        f"C backend: {N_MATRICES}-matrix chain at n=1024, rhs={RHS_COLS}",
        f"blas {t_blas * 1e3:8.2f} ms/call, c {t_c * 1e3:8.2f} ms/call, "
        f"{ratio:5.2f}x",
    )
    benchmark.extra_info["ratio"] = round(ratio, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ratio >= REQUIRED_LARGE_RATIO, (
        f"c backend regressed to {ratio:.2f}x blas at n=1024 "
        f"(required >= {REQUIRED_LARGE_RATIO}x)"
    )


#: Run in a fresh interpreter: dispatch a fixed chain at the size vectors
#: given as JSON in argv[1] and report the backends, the number of plans
#: lowered (one per variant won: plans are per variant, not per size
#: vector) and the process's codegen counters as JSON.
_CHILD = r"""
import json, sys
from repro.api import compile_chain
from repro.obs import get_registry
from repro.runtime import cemit_available
from repro.runtime.codegen_cache import get_codegen_cache

if not cemit_available():
    print(json.dumps({"skip": True}))
    sys.exit(0)
source = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; "
    "Matrix C <General, Singular>; R := A * B * C;"
)
gen = compile_chain(source, num_training_instances=10, use_cache=False)
runtime = gen.program.runtime(backend="c")
plans = [runtime.plan_for(sizes)[2] for sizes in json.loads(sys.argv[1])]
stats = get_codegen_cache().stats()
print(json.dumps({
    "backends": [plan.backend for plan in plans],
    "plans": len({id(plan) for plan in plans}),
    "compiles_counter": get_registry().counter(
        "runtime.codegen_compiles").value,
    "cache_compiles": stats["compiles"],
    "cache_hits": stats["hits"],
    "cache_misses": stats["misses"],
}))
"""

#: Size vectors per process: the second lowers two the first never saw.
_FIRST_SIZES = [[24, 24, 24, 24]]
_SECOND_SIZES = [[24, 24, 24, 24], [7, 9, 11, 13], [31, 1, 17, 3]]


@needs_cemit
def test_fresh_process_hits_codegen_disk_cache(tmp_path, benchmark):
    """CI bound: the second process never invokes the compiler, even
    for size vectors the first process never saw."""
    env = dict(os.environ)
    env["REPRO_CODEGEN_CACHE_DIR"] = str(tmp_path / "codegen")
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )

    def run_child(sizes):
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, json.dumps(sizes)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    first = run_child(_FIRST_SIZES)
    assert first["backends"] == ["c"], first
    assert first["compiles_counter"] == 1, first
    assert first["cache_misses"] == 1, first
    second = run_child(_SECOND_SIZES)
    assert second["backends"] == ["c"] * len(_SECOND_SIZES), second
    # The whole point of the disk tier and the prebuilt interpreter: zero
    # compiler invocations, even for size vectors the first process
    # never lowered.
    assert second["compiles_counter"] == 0, second
    assert second["cache_compiles"] == 0, second
    # Each lowered plan finds the interpreter in the disk tier once.
    assert second["cache_hits"] == second["plans"] >= 1, second
    emit(
        "C backend: codegen disk cache across processes",
        f"first process compiles={first['compiles_counter']}, "
        f"second process ({len(_SECOND_SIZES)} size vectors, "
        f"{len(_SECOND_SIZES) - 1} new, {second['plans']} plans) "
        f"compiles={second['compiles_counter']} hits={second['cache_hits']}",
    )
    benchmark.extra_info["second_process_compiles"] = second["compiles_counter"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
