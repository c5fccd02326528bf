"""The C-emitter backend: native lowering, parity, fallback, codegen cache.

The ``c`` backend packs each frozen execution plan into a step record that
one prebuilt native interpreter (a CPython extension) walks through BLAS/
LAPACK function pointers.  Three properties matter and are tested here:

* **Parity** — a natively lowered plan produces the same numbers as the
  per-step blas lowering (tight tolerance) and the reference backend
  (routine-level reassociation tolerance), across the kernel table and
  over random chains (the hypothesis differential test, which also runs
  the reference plans and the emitted Python module against the oracle
  in C, F and strided operand layouts, plain and ``out=``), and rejects
  wrong-shaped operands like the other backends.  A second differential
  test drives ``Dispatcher.run`` itself (miss, hit, hit into ``out=``) on
  every backend and layout.
* **Graceful degradation** — no compiler, no capsules, or an unsupported
  step must silently fall back to ``blas`` (the plan reports the backend
  it actually runs on) while counting the reason in
  ``runtime.codegen_fallbacks``.
* **Codegen cache** — the interpreter's shared object persists across
  processes in an on-disk cache with hit/miss accounting, and is compiled
  once, not once per plan; a corrupt object is a counted fallback.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import compile_chain
from repro.codegen.python_emitter import emit_python
from repro.compiler.selection import all_variants
from repro.errors import ExecutionError
from repro.experiments.sampling import EXTENDED_MATRIX_OPTIONS, option_to_operand
from repro.ir.chain import Chain
from repro.ir.operand import Operand, UnaryOp
from repro.obs import get_registry
from repro.runtime import (
    Dispatcher,
    blas_available,
    cemit_available,
    compile_plan,
    naive_evaluate,
    random_instance_arrays,
)
from repro.runtime.backends import cemit
from repro.runtime.backends.toolchain import (
    discover_toolchain,
    reset_toolchain_cache,
)
from repro.runtime.codegen_cache import CodegenCache

needs_blas = pytest.mark.skipif(
    not blas_available(), reason="scipy BLAS/LAPACK routines unavailable"
)
needs_cemit = pytest.mark.skipif(
    not cemit_available(),
    reason="C toolchain or scipy cython capsules unavailable",
)


def _fallback_count(reason: str) -> int:
    return get_registry().counter(
        "runtime.codegen_fallbacks", reason=reason
    ).value


# ---------------------------------------------------------------------------
# Numerical equivalence across the kernel table
# ---------------------------------------------------------------------------

#: (id, source) — one chain per packer family, plus transposed/side
#: variants that exercise the flag algebra (trans/side/uplo resolved into
#: the step record at plan-compile time).
PARITY_CHAINS = [
    (
        "gemm",
        "Matrix A <General, Singular>; Matrix B <General, Singular>; "
        "Matrix C <General, Singular>; R := A * B * C;",
    ),
    (
        "gemm_trans",
        "Matrix A <General, Singular>; Matrix B <General, Singular>; "
        "Matrix C <General, Singular>; R := A^T * B * C^T;",
    ),
    (
        "symm_left",
        "Matrix S <Symmetric, NonSingular>; Matrix B <General, Singular>; "
        "R := S * B;",
    ),
    (
        "symm_right",
        "Matrix S <Symmetric, NonSingular>; Matrix B <General, Singular>; "
        "R := B * S;",
    ),
    (
        "trmm_upper",
        "Matrix U <UpperTri, NonSingular>; Matrix B <General, Singular>; "
        "R := U * B;",
    ),
    (
        "trmm_right_trans",
        "Matrix U <UpperTri, NonSingular>; Matrix B <General, Singular>; "
        "R := B * U^T;",
    ),
    (
        "ldlt",
        "Matrix L <LowerTri, NonSingular>; Matrix D <Diagonal, NonSingular>; "
        "Matrix B <General, Singular>; R := L * D * L^T * B;",
    ),
    (
        "dimm_right",
        "Matrix D <Diagonal, NonSingular>; Matrix B <General, Singular>; "
        "R := B * D;",
    ),
    (
        "diag_sym",
        "Matrix D <Diagonal, NonSingular>; Matrix S <Symmetric, NonSingular>; "
        "R := D * S;",
    ),
    (
        "sym_diag",
        "Matrix D <Diagonal, NonSingular>; Matrix S <Symmetric, NonSingular>; "
        "R := S * D;",
    ),
    (
        "didimm",
        "Matrix D <Diagonal, NonSingular>; Matrix E <Diagonal, NonSingular>; "
        "R := D * E;",
    ),
    (
        "spd_solve",
        "Matrix P <Symmetric, SPD>; Matrix B <General, Singular>; "
        "R := P^-1 * B;",
    ),
    (
        "spd_solve_right",
        "Matrix P <Symmetric, SPD>; Matrix B <General, Singular>; "
        "R := B * P^-1;",
    ),
    (
        "sym_solve",
        "Matrix S <Symmetric, NonSingular>; Matrix B <General, Singular>; "
        "R := S^-1 * B;",
    ),
    (
        "gen_solve",
        "Matrix A <General, NonSingular>; Matrix B <General, Singular>; "
        "R := A^-1 * B;",
    ),
    (
        "gen_solve_trans",
        "Matrix A <General, NonSingular>; Matrix B <General, Singular>; "
        "R := A^-T * B;",
    ),
    (
        "gen_solve_right",
        "Matrix A <General, NonSingular>; Matrix B <General, Singular>; "
        "R := B * A^-1;",
    ),
    (
        "tri_solve",
        "Matrix L <LowerTri, NonSingular>; Matrix B <General, Singular>; "
        "R := L^-1 * B;",
    ),
    (
        "tri_solve_right_trans",
        "Matrix L <LowerTri, NonSingular>; Matrix B <General, Singular>; "
        "R := B * L^-T;",
    ),
    (
        "diag_solve",
        "Matrix D <Diagonal, NonSingular>; Matrix B <General, Singular>; "
        "R := D^-1 * B;",
    ),
    (
        "diag_solve_right",
        "Matrix D <Diagonal, NonSingular>; Matrix B <General, Singular>; "
        "R := B * D^-1;",
    ),
    (
        "diag_solve_trans",
        "Matrix D <Diagonal, NonSingular>; Matrix B <General, Singular>; "
        "R := D^-1 * B^T;",
    ),
    (
        "diag_solve_sym",
        "Matrix D <Diagonal, NonSingular>; Matrix S <Symmetric, NonSingular>; "
        "R := D^-1 * S;",
    ),
    (
        "diag_solve_diag",
        "Matrix D <Diagonal, NonSingular>; Matrix E <Diagonal, NonSingular>; "
        "R := D^-1 * E;",
    ),
]


def _plan_for(source: str, backend: str, sizes=None):
    gen = compile_chain(source, num_training_instances=10, use_cache=False)
    chain = gen.program.chain
    q = sizes or [13] * (chain.n + 1)
    runtime = gen.program.runtime(backend=backend)
    _, _, plan = runtime.plan_for(q)
    return chain, q, plan


@needs_cemit
@pytest.mark.parametrize(
    "source", [src for _, src in PARITY_CHAINS], ids=[k for k, _ in PARITY_CHAINS]
)
def test_native_parity_across_kernel_table(source):
    chain, q, c_plan = _plan_for(source, "c")
    assert c_plan.backend == "c", "expected a native lowering, got a fallback"
    _, _, blas_plan = _plan_for(source, "blas")
    _, _, ref_plan = _plan_for(source, "reference")
    arrays = random_instance_arrays(chain, q, np.random.default_rng(0))
    pristine = [a.copy() for a in arrays]
    got = c_plan.execute(arrays)
    via_blas = blas_plan.execute([a.copy() for a in pristine])
    via_ref = ref_plan.execute([a.copy() for a in pristine])
    # Same routines, same flags, same arithmetic: near-bitwise vs blas.
    np.testing.assert_allclose(got, via_blas, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got, via_ref, rtol=1e-7, atol=1e-8)
    # Operands are never mutated (solves copy coefficients to scratch).
    for orig, after in zip(pristine, arrays):
        np.testing.assert_array_equal(orig, after)


@needs_cemit
def test_native_plan_accepts_noncontiguous_inputs():
    source = PARITY_CHAINS[0][1]
    chain, q, plan = _plan_for(source, "c")
    arrays = random_instance_arrays(chain, q, np.random.default_rng(3))
    strided = [np.asfortranarray(a) for a in arrays]
    got = plan.execute(strided)
    expected = naive_evaluate(chain, arrays)
    np.testing.assert_allclose(got, expected, rtol=1e-7, atol=1e-8)


@needs_cemit
def test_native_result_is_fresh_per_call():
    source = PARITY_CHAINS[0][1]
    chain, q, plan = _plan_for(source, "c")
    arrays = random_instance_arrays(chain, q, np.random.default_rng(4))
    first = plan.execute(arrays)
    second = plan.execute(arrays)
    assert first is not second
    np.testing.assert_array_equal(first, second)


@needs_cemit
@pytest.mark.parametrize("extra", [0, 1])
def test_chains_past_the_operand_limit_fall_back_to_blas(extra):
    """The interpreter keeps operand buffer views on its stack: a chain of
    up to MAX_OPERANDS operands runs natively, a longer one falls back."""
    from repro.compiler.dp import dp_optimal_plan

    from conftest import general_chain

    chain = general_chain(cemit.MAX_OPERANDS + extra)
    q = (2,) * (chain.n + 1)
    before = _fallback_count("too-many-operands")
    plan = compile_plan(dp_optimal_plan(chain, q), q, backend="c")
    assert plan.backend == ("c" if extra == 0 else "blas")
    assert _fallback_count("too-many-operands") == before + extra
    arrays = random_instance_arrays(chain, q, np.random.default_rng(9))
    np.testing.assert_allclose(
        plan.execute(arrays), naive_evaluate(chain, arrays), rtol=1e-8, atol=1e-8
    )


@needs_cemit
def test_describe_reports_native_path():
    _, _, plan = _plan_for(PARITY_CHAINS[0][1], "c")
    assert "native: fused step-interpreter call" in plan.describe()


@needs_cemit
def test_native_plan_names_the_routines_that_run(monkeypatch):
    """A native plan reports the packer's labels and builds no per-step
    blas lowering: the interpreter divides by the diagonal itself."""
    from repro.runtime.backends import BlasBackend

    def refuse(self, call):
        raise AssertionError("a native plan lowered a step through blas")

    monkeypatch.setattr(BlasBackend, "specialize", refuse)
    source = (
        "Matrix D <Diagonal, NonSingular>; Matrix B <General, Singular>; "
        "X := D^-1 * B;"
    )
    _, _, plan = _plan_for(source, "c")
    assert plan.backend == "c"
    assert plan.step_routines == ("diag-solve",)
    described = plan.describe()
    assert "-> diag-solve" in described
    assert "reference fallback" not in described


@needs_cemit
@pytest.mark.parametrize(
    "kind, routine", [("gen_solve", "dgetrf"), ("spd_solve", "dposv")]
)
def test_failed_factorization_names_step_and_routine(kind, routine):
    chain, q, plan = _plan_for(dict(PARITY_CHAINS)[kind], "c")
    assert plan.backend == "c"
    arrays = random_instance_arrays(chain, q, np.random.default_rng(9))
    arrays[0] = np.zeros_like(arrays[0])  # the coefficient
    with pytest.raises(ExecutionError, match=f"plan step 0: {routine} failed"):
        plan.execute(arrays)
    assert not arrays[0].any()


@needs_cemit
@pytest.mark.parametrize(
    "kind", ["diag_solve", "diag_solve_right", "diag_solve_trans", "diag_solve_diag"]
)
def test_diagonal_solve_is_bit_identical_and_rejects_zero_pivots(kind):
    chain, q, plan = _plan_for(dict(PARITY_CHAINS)[kind], "c")
    assert plan.backend == "c"
    _, _, ref_plan = _plan_for(dict(PARITY_CHAINS)[kind], "reference")
    arrays = random_instance_arrays(chain, q, np.random.default_rng(10))
    # Divisions, not reciprocal products: the same bits as numpy.
    np.testing.assert_array_equal(
        plan.execute(arrays), ref_plan.execute([a.copy() for a in arrays])
    )
    coeff = 0 if kind != "diag_solve_right" else 1
    arrays[coeff][3, 3] = 0.0
    with pytest.raises(ExecutionError, match="plan step 0: diagonal solve failed"):
        plan.execute(arrays)
    with pytest.raises(ExecutionError, match="zero diagonal entry"):
        ref_plan.execute(arrays)


@pytest.mark.parametrize("backend", ["reference", "blas", "c"])
@pytest.mark.parametrize("bad", ["transposed", "flat"])
def test_wrong_shaped_operand_raises_on_every_backend(backend, bad):
    if backend != "reference" and not blas_available():
        pytest.skip("scipy BLAS/LAPACK routines unavailable")
    chain, q, plan = _plan_for(PARITY_CHAINS[0][1], backend, sizes=[4, 5, 6, 3])
    arrays = random_instance_arrays(chain, q, np.random.default_rng(8))
    # Same element count as the expected (5, 6) operand: a byte-length
    # check alone cannot tell these apart from the right operand.
    arrays[1] = arrays[1].T.copy() if bad == "transposed" else arrays[1].ravel()
    with pytest.raises(Exception) as raised:
        plan.execute(arrays)
    if plan.backend == "c":
        assert isinstance(raised.value, ExecutionError)
        assert "operand 1" in str(raised.value)


# ---------------------------------------------------------------------------
# Differential test: random chains through every variant and every consumer
# of the call record (reference, blas, c, emitted Python) vs the oracle
# ---------------------------------------------------------------------------

#: Sizes per equivalence class: 1, small, and large enough to skew shapes.
_SIZES = st.one_of(st.just(1), st.integers(2, 6), st.integers(20, 40))


@st.composite
def _chain_and_sizes(draw):
    """A random chain over the extended option space (transposes,
    inverses, diagonals), possibly repeating one square matrix, with
    sizes drawn per size-symbol class."""
    n = draw(st.integers(2, 4))
    operands = []
    for i in range(n):
        index = draw(st.integers(0, len(EXTENDED_MATRIX_OPTIONS) - 1))
        operand = option_to_operand(index, f"M{i}", EXTENDED_MATRIX_OPTIONS)
        if draw(st.booleans()):
            operand = Operand(
                operand.matrix, UnaryOp.from_flags(operand.op.inverted, True)
            )
        operands.append(operand)
    square = [i for i, o in enumerate(operands) if o.is_square]
    repeat = None
    if len(square) >= 2 and draw(st.booleans()):
        # The same matrix twice (as in A * B * A^T): one stored array.
        src, dst = draw(st.permutations(square))[:2]
        matrix, op = operands[src].matrix, operands[dst].op
        inverted = op.inverted and matrix.is_invertible
        operands[dst] = Operand(matrix, UnaryOp.from_flags(inverted, op.transposed))
        repeat = (src, dst)
    chain = Chain(tuple(operands))
    values = [draw(_SIZES) for _ in chain.equivalence_classes()]
    return chain, _sizes_for(chain, values, repeat), repeat


def _sizes_for(chain, values, repeat):
    """The size vector that gives each size-symbol class of ``chain`` the
    value at its position in ``values`` (extra values unused)."""
    classes = chain.equivalence_classes()
    values = list(values[: len(classes)])
    if repeat is not None:
        # A repeated square matrix ties its two size classes together.
        tied = {chain.class_of(i) for i in repeat}
        shared = values[classes.index(next(iter(tied)))]
        values = [shared if cls in tied else v for cls, v in zip(classes, values)]
    sizes = [0] * (chain.n + 1)
    for cls, value in zip(classes, values):
        for index in cls:
            sizes[index] = value
    return tuple(sizes)


def _layouts(arrays):
    """The operands C-ordered, F-ordered, and as non-contiguous strided
    views; a repeated operand stays one (aliased) array in each layout."""

    def strided(a):
        big = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
        view = big[::2, ::2]
        view[...] = a
        return view

    for name, convert in (
        ("C", lambda a: a),
        ("F", np.asfortranarray),
        ("strided", strided),
    ):
        converted: dict[int, np.ndarray] = {}
        yield name, [converted.setdefault(id(a), convert(a)) for a in arrays]


#: ``M0^-1 M1^-1 M2^-1 M3^-1``, all general non-singular, every size 20:
#: ``P2 = (M0 M1)(M2 M3)`` ends in a product of two intermediates, the
#: one final GEMM whose transposed packing would flip both BLAS flags.
_FOUR_INVERSES = (
    Chain(tuple(
        option_to_operand(1, f"M{i}", EXTENDED_MATRIX_OPTIONS) for i in range(4)
    )),
    (20,) * 5,
    None,
)


@settings(max_examples=100, deadline=None)
@given(
    case=_chain_and_sizes(),
    seed=st.integers(0, 2**16),
    resize=st.lists(_SIZES, min_size=5, max_size=5),
)
@example(case=_FOUR_INVERSES, seed=4, resize=[7, 7, 7, 7, 7])
def _check_every_consumer_against_oracle(case, seed, resize):
    """Every consumer of the per-step call record — reference, blas and c
    plans (plain and ``out=`` replay) and the emitted Python module's
    ``variant_<i>`` — agrees with ``naive_evaluate`` on every variant, in
    every operand layout, without mutating an operand.  Plans are
    compiled once, at the first size vector, and the same plan objects
    then serve a second one: sizes bind at call time."""
    chain, q, repeat = case
    variants = all_variants(chain)
    module: dict = {}
    exec(emit_python(chain, variants), module)
    plans = [
        {
            backend: compile_plan(variant, q, backend=backend)
            for backend in ("reference", "blas", "c")
        }
        for variant in variants
    ]
    for sizes in (q, _sizes_for(chain, resize, repeat)):
        arrays = random_instance_arrays(chain, sizes, np.random.default_rng(seed))
        if repeat is not None:
            arrays[repeat[1]] = arrays[repeat[0]]
        pristine = [a.copy() for a in arrays]
        expected = naive_evaluate(chain, pristine)
        scale = max(1.0, float(np.abs(expected).max()))
        for i, variant in enumerate(variants):
            for layout, operands in _layouts(arrays):
                results = {"python": module[f"variant_{i}"](operands)}
                for backend, plan in plans[i].items():
                    results[backend] = plan.execute(operands)
                    out = np.empty(expected.shape)
                    got = plan.replay(list(operands), out=out)
                    assert got is out
                    results[f"{backend} out="] = got
                for path, out in (("c", None), ("c out=", np.empty(expected.shape))):
                    # A timed c replay runs the same program as the untimed
                    # one: the same bits, one duration per variant step.
                    durations: list[float] = []
                    got = plans[i]["c"].replay(
                        list(operands), out, record=durations.append
                    )
                    assert np.array_equal(got, results[path]), path
                    assert len(durations) == len(variant.steps)
                    results[f"{path} timed"] = got
                if layout == "C":
                    # Same routines, same flags, same arithmetic: near-bitwise.
                    np.testing.assert_allclose(
                        results["c"], results["blas"],
                        rtol=1e-12, atol=1e-12 * scale,
                    )
                for path, got in results.items():
                    np.testing.assert_allclose(
                        got / scale, expected / scale, atol=1e-6,
                        err_msg=f"{variant.name} via {path} at q={sizes}, "
                        f"{layout} operands",
                    )
                for orig, after in zip(pristine, operands):
                    np.testing.assert_array_equal(orig, after)


@needs_blas
@settings(max_examples=60, deadline=None)
@given(case=_chain_and_sizes(), seed=st.integers(0, 2**16))
@example(case=_FOUR_INVERSES, seed=4)
def test_dispatcher_run_differential(case, seed):
    """``Dispatcher.run`` itself — memo, native table on ``c``, execution
    log — agrees with ``naive_evaluate`` on every backend and operand
    layout: a miss, a warm hit and a warm hit into ``out=``, the hits
    bit-identical to the miss, counted as one miss and two hits.  On
    ``c`` the interpreter serves the C-ordered hits and declines the
    F-ordered and strided ones, which take the Python path."""
    chain, q, repeat = case
    variants = all_variants(chain)
    arrays = random_instance_arrays(chain, q, np.random.default_rng(seed))
    if repeat is not None:
        arrays[repeat[1]] = arrays[repeat[0]]
    pristine = [a.copy() for a in arrays]
    expected = naive_evaluate(chain, pristine)
    scale = max(1.0, float(np.abs(expected).max()))
    for backend in ("reference", "blas", "c"):
        for layout, operands in _layouts(arrays):
            dispatcher = Dispatcher(chain, variants, backend=backend)
            miss = dispatcher.run(operands)
            hit = dispatcher.run(operands)
            out = np.empty(expected.shape)
            into = dispatcher.run(operands, out=out)
            assert into.result is out
            where = f"{backend}, {layout} operands, q={q}"
            for outcome in (miss, hit, into):
                assert outcome.sizes == q and outcome.variant is miss.variant
                np.testing.assert_allclose(
                    outcome.result / scale, expected / scale, atol=1e-6,
                    err_msg=where,
                )
            assert np.array_equal(hit.result, miss.result), where
            assert np.array_equal(into.result, miss.result), where
            stats = dispatcher.memo_stats()
            assert (stats["misses"], stats["hits"]) == (1, 2), where
            assert sum(stats["executions"].values()) == 3, where
            for orig, after in zip(pristine, operands):
                np.testing.assert_array_equal(orig, after)


@needs_blas
def test_interpreter_differential_compiles_at_most_once(tmp_path, monkeypatch):
    cache = CodegenCache(directory=str(tmp_path))
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: cache)
    compiles = get_registry().counter("runtime.codegen_compiles")
    before = compiles.value
    _check_every_consumer_against_oracle()
    # Every plan above shares one interpreter build.
    assert compiles.value - before <= 1


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------


@needs_blas
def test_no_toolchain_falls_back_to_blas(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_CC", "1")
    reset_toolchain_cache()
    try:
        assert discover_toolchain() is None
        assert not cemit_available()
        before = _fallback_count("no-toolchain")
        chain, q, plan = _plan_for(PARITY_CHAINS[0][1], "c")
        assert plan.backend == "blas"
        assert _fallback_count("no-toolchain") == before + 1
        arrays = random_instance_arrays(chain, q, np.random.default_rng(1))
        expected = naive_evaluate(chain, arrays)
        np.testing.assert_allclose(plan.execute(arrays), expected, rtol=1e-7)
    finally:
        monkeypatch.delenv("REPRO_DISABLE_CC")
        reset_toolchain_cache()


@needs_blas
def test_no_capsules_falls_back_to_blas(monkeypatch):
    monkeypatch.setattr(cemit, "_harvest_addresses", lambda: None)
    before = _fallback_count("no-capsules")
    _, _, plan = _plan_for(PARITY_CHAINS[0][1], "c")
    assert plan.backend == "blas"
    assert _fallback_count("no-capsules") == before + 1


@needs_cemit
def test_unsupported_step_falls_back_to_blas(monkeypatch):
    # A family without a packer (here: the diagonal solves, taken out of
    # the table) falls the whole plan back.
    monkeypatch.delitem(cemit._PACKERS, "disv")
    source = (
        "Matrix D <Diagonal, NonSingular>; Matrix B <General, Singular>; "
        "R := D^-1 * B;"
    )
    before = _fallback_count("unsupported-step")
    chain, q, plan = _plan_for(source, "c")
    assert plan.backend == "blas"
    assert _fallback_count("unsupported-step") == before + 1
    arrays = random_instance_arrays(chain, q, np.random.default_rng(2))
    expected = naive_evaluate(chain, arrays)
    np.testing.assert_allclose(plan.execute(arrays), expected, rtol=1e-7)


@needs_blas
def test_compile_error_falls_back_to_blas(tmp_path, monkeypatch):
    from repro.runtime.backends import toolchain as tc_mod

    toolchain = discover_toolchain()
    if toolchain is None:
        pytest.skip("no C toolchain")

    def broken(self, source, out_path):
        raise tc_mod.ToolchainError("simulated compiler failure")

    monkeypatch.setattr(tc_mod.Toolchain, "compile_shared", broken)
    cache = CodegenCache(directory=str(tmp_path))
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: cache)
    before = _fallback_count("compile-error")
    _, _, plan = _plan_for(PARITY_CHAINS[0][1], "c")
    assert plan.backend == "blas"
    assert _fallback_count("compile-error") == before + 1


@needs_blas
def test_failed_interpreter_build_is_not_retried(tmp_path, monkeypatch):
    """A compiler failure is remembered per cache object: later plans fall
    back at once (still counted) instead of re-running the compiler."""
    from repro.runtime.backends import toolchain as tc_mod

    toolchain = discover_toolchain()
    if toolchain is None:
        pytest.skip("no C toolchain")
    calls = []

    def broken(self, source, out_path):
        calls.append(out_path)
        raise tc_mod.ToolchainError("simulated compiler failure")

    monkeypatch.setattr(tc_mod.Toolchain, "compile_shared", broken)
    cache = CodegenCache(directory=str(tmp_path))
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: cache)
    gen = compile_chain(PARITY_CHAINS[0][1], num_training_instances=10, use_cache=False)
    chain = gen.program.chain
    before = _fallback_count("compile-error")
    rng = np.random.default_rng(8)
    for n in range(5):
        q = [5 + n, 6, 7 + n, 8]
        # A fresh dispatcher per call: each lowers its own plan.
        _, _, plan = gen.program.to_dispatcher(backend="c").plan_for(q)
        assert plan.backend == "blas"
        arrays = random_instance_arrays(chain, q, rng)
        np.testing.assert_allclose(
            plan.execute(arrays), naive_evaluate(chain, arrays), rtol=1e-7
        )
    assert len(calls) == 1
    assert _fallback_count("compile-error") == before + 5
    # A new cache object (what configure_codegen_cache builds) retries.
    fresh = CodegenCache(directory=str(tmp_path))
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: fresh)
    _, _, plan = _plan_for(PARITY_CHAINS[0][1], "c")
    assert plan.backend == "blas"
    assert len(calls) == 2


@needs_blas
def test_unwritable_codegen_directory_is_not_retried(tmp_path, monkeypatch):
    _toolchain_or_skip()
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    cache = CodegenCache(directory=str(blocker / "codegen"))
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: cache)
    before = _fallback_count("compile-error")
    for n in range(3):
        _, _, plan = _plan_for(PARITY_CHAINS[0][1], "c", sizes=[4 + n, 5, 6, 7])
        assert plan.backend == "blas"
    # One build attempt (the cache miss); the later plans fall back at once.
    assert cache.stats()["misses"] == 1
    assert _fallback_count("compile-error") == before + 3


# ---------------------------------------------------------------------------
# On-disk codegen cache
# ---------------------------------------------------------------------------


def _toolchain_or_skip():
    toolchain = discover_toolchain()
    if toolchain is None:
        pytest.skip("no C toolchain")
    return toolchain


def test_codegen_cache_miss_then_hit(tmp_path):
    toolchain = _toolchain_or_skip()
    cache = CodegenCache(directory=str(tmp_path))
    source = "double cg_probe_value = 42.0;\n"
    first = cache.shared_object("probe", source, toolchain)
    assert os.path.exists(first)
    second = cache.shared_object("probe", source, toolchain)
    assert second == first
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    assert stats["compiles"] == 1
    assert stats["entries"] == 1
    assert stats["total_bytes"] > 0


@needs_cemit
def test_truncated_shared_object_falls_back_to_blas(tmp_path, monkeypatch):
    cache = CodegenCache(directory=str(tmp_path))
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: cache)
    monkeypatch.setattr(cemit, "_loaded", {})
    key, _ = cemit._interpreter_source()
    (tmp_path / f"{key}.so").write_bytes(b"\x7fELF truncated")
    before = _fallback_count("load-error")
    chain, q, plan = _plan_for(PARITY_CHAINS[0][1], "c")
    assert plan.backend == "blas"
    assert _fallback_count("load-error") == before + 1
    arrays = random_instance_arrays(chain, q, np.random.default_rng(4))
    expected = naive_evaluate(chain, arrays)
    np.testing.assert_allclose(plan.execute(arrays), expected, rtol=1e-7)


def test_codegen_cache_clear(tmp_path):
    toolchain = _toolchain_or_skip()
    cache = CodegenCache(directory=str(tmp_path))
    cache.shared_object("probe", "double cg_probe_clear = 7.0;\n", toolchain)
    assert cache.clear() == 1
    assert cache.stats()["entries"] == 0


@needs_cemit
def test_fresh_plan_hits_disk_cache_without_recompiling(tmp_path, monkeypatch):
    cache = CodegenCache(directory=str(tmp_path))
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: cache)
    source = (
        "Matrix A <General, Singular>; Matrix B <General, Singular>; "
        "R := A * B;"
    )
    _, _, first = _plan_for(source, "c", sizes=[9, 10, 11])
    assert first.backend == "c"
    assert cache.stats()["compiles"] == 1
    # A second plan build (fresh ExecutionPlan, same interpreter) must
    # come out of the disk cache: zero additional compiler invocations.
    _, _, again = _plan_for(source, "c", sizes=[9, 10, 11])
    assert again.backend == "c"
    stats = cache.stats()
    assert stats["compiles"] == 1
    assert stats["hits"] >= 1


# ---------------------------------------------------------------------------
# Plumbing: artifacts, CLI
# ---------------------------------------------------------------------------


def test_artifact_roundtrip_records_c_backend(tmp_path):
    from repro.compiler.program import CompiledProgram

    source = (
        "Matrix A <General, Singular>; Matrix B <General, Singular>; "
        "Matrix C <General, Singular>; R := A * B * C;"
    )
    gen = compile_chain(
        source, num_training_instances=10, backend="c", use_cache=False
    )
    path = tmp_path / "prog.json"
    gen.save(path)
    program = CompiledProgram.load(path)
    assert program.options.get("backend") == "c"
    runtime = program.runtime()  # resolves to the recorded backend
    q = [7, 8, 9, 10]
    _, _, plan = runtime.plan_for(q)
    # Native when the host can emit, silently blas otherwise.
    assert plan.backend == ("c" if cemit_available() else "blas")
    arrays = random_instance_arrays(
        program.chain, q, np.random.default_rng(5)
    )
    expected = naive_evaluate(program.chain, arrays)
    np.testing.assert_allclose(plan.execute(arrays), expected, rtol=1e-7)


def test_cli_accepts_c_backend(tmp_path, capsys, restore_global_codegen_cache):
    from repro.cli import main

    source = (
        "Matrix A <General, Singular>; Matrix B <General, Singular>; "
        "R := A * B;"
    )
    artifact = tmp_path / "prog.json"
    assert (
        main(
            [
                "compile",
                "--source",
                source,
                "--train",
                "10",
                "--backend",
                "c",
                "--output",
                str(artifact),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [
                "run",
                str(artifact),
                "--sizes",
                "6,7,8",
                "--codegen-cache-dir",
                str(tmp_path / "cg"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "backend=c" in out or "backend=blas" in out
    if cemit_available():
        assert "backend=c" in out


def test_cli_cache_stats_reports_codegen_tier(tmp_path, capsys, restore_global_codegen_cache):
    from repro.cli import main

    assert (
        main(
            [
                "cache",
                "stats",
                "--cache-dir",
                str(tmp_path / "compile-cache"),
                "--codegen-cache-dir",
                str(tmp_path / "cg"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "codegen directory:" in out
    assert "codegen entries:   0" in out
