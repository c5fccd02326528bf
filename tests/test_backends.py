"""The execution-backend layer: lowering, parity, the default backend, plumbing.

The heart of this file is the bit-compatibility parity net: every kernel
of Table I (plus the diagonal extension), swept over side x trans x
stored-triangularity call records and both memory orders, must produce the same answer
through the blas backend as through the reference backend (tight
tolerance — same arithmetic up to routine-level reassociation).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.errors import CompilationError, DispatchError, ExecutionError
from repro.ir.chain import Chain
from repro.kernels.spec import (
    DIAGONAL_KERNELS,
    PRODUCT_KERNELS,
    SOLVE_KERNELS,
)
from repro.runtime import (
    BACKEND_NAMES,
    BLAS_LOWERED_KERNELS,
    Dispatcher,
    FALLBACK_ROUTINE,
    REFERENCE_ROUTINE,
    StepCall,
    BlasBackend,
    ReferenceBackend,
    blas_available,
    cemit_available,
    compile_plan,
    get_backend,
    naive_evaluate,
    random_instance_arrays,
)

from conftest import (
    make_call,
    make_general,
    make_lower,
    make_symmetric,
    make_upper,
)

RNG = np.random.default_rng(7)

needs_blas = pytest.mark.skipif(
    not blas_available(), reason="scipy BLAS/LAPACK routines unavailable"
)

#: Operand structure each kernel assumes: (structured operand, other).
#: Kernel names encode it — the first two letters name the structured /
#: coefficient operand (the left one iff ``call.s_left``), the middle two
#: the other operand (GE when unmarked).
KERNEL_STRUCTS = {
    "GEMM": ("general", "general"),
    "SYMM": ("sym", "general"),
    "SYSYMM": ("sym", "sym"),
    "TRMM": ("tri", "general"),
    "TRSYMM": ("tri", "sym"),
    "TRTRMM": ("tri", "tri"),
    "DIMM": ("diag", "general"),
    "DIDIMM": ("diag", "diag"),
    "GEGESV": ("geninv", "general"),
    "GESYSV": ("geninv", "sym"),
    "GETRSV": ("geninv", "tri"),
    "SYGESV": ("sym", "general"),
    "SYSYSV": ("sym", "sym"),
    "SYTRSV": ("sym", "tri"),
    "POGESV": ("spd", "general"),
    "POSYSV": ("spd", "sym"),
    "POTRSV": ("spd", "tri"),
    "TRSM": ("tri", "general"),
    "TRSYSV": ("tri", "sym"),
    "TRTRSV": ("tri", "tri"),
    "DIGESV": ("diag", "general"),
    "DISYSV": ("diag", "sym"),
    "DITRSV": ("diag", "tri"),
    "DIDISV": ("diag", "diag"),
}

def _stored_array(struct: str, rows: int, cols: int, lower: bool) -> np.ndarray:
    """A well-conditioned stored array honoring the declared structure."""
    a = RNG.standard_normal((rows, cols))
    if struct in ("general",):
        return a
    assert rows == cols, "structured operands are square"
    n = rows
    if struct == "geninv":
        return a + np.eye(n) * np.sqrt(n) * 2
    if struct == "sym":
        return (a + a.T) / 2 + np.eye(n) * n
    if struct == "spd":
        return a @ a.T / np.sqrt(n) + np.eye(n) * 2
    if struct == "tri":
        t = np.tril(a) if lower else np.triu(a)
        t[np.diag_indices(n)] = np.abs(np.diag(t)) + n
        return t
    if struct == "diag":
        return np.diag(np.abs(RNG.standard_normal(n)) + 1.0)
    raise AssertionError(struct)


#: Every binary kernel of Table I plus the diagonal extension.
BINARY_KERNELS = sorted(
    k.name for k in (*PRODUCT_KERNELS, *SOLVE_KERNELS, *DIAGONAL_KERNELS)
)


def _parity_cases(kernel: str):
    """Every (call, (left_struct, right_struct), (left_lower, right_lower))
    combination worth sweeping."""
    side_struct, other_struct = KERNEL_STRUCTS[kernel]
    for side, lt, rt in itertools.product(
        ("left", "right"), (False, True), (False, True)
    ):
        structs = (
            (side_struct, other_struct)
            if side == "left"
            else (other_struct, side_struct)
        )
        lower_choices = [
            (True, False) if struct == "tri" else (None,) for struct in structs
        ]
        for ll, rl in itertools.product(*lower_choices):
            yield make_call(kernel, side, lt, rt, ll, rl), structs, (ll, rl)


def _case_arrays(call: StepCall, structs, lowers, n=7, m=5):
    """Stored operand arrays for one parity case.

    Products allow one rectangular general operand; solves need the
    right-hand side conformable with the (square) coefficient.
    """
    shapes = [(n, n), (n, n)]
    ls, rs = structs
    # The general operand may be rectangular as long as the logical
    # product op(left) @ op(right) (for solves: with the coefficient
    # inverted) conforms with the square structured operand.
    if ls == "general":
        shapes[0] = (n, m) if call.left_trans else (m, n)
    elif rs == "general":
        shapes[1] = (m, n) if call.right_trans else (n, m)
    left = _stored_array(ls, *shapes[0], lower=bool(lowers[0]))
    right = _stored_array(rs, *shapes[1], lower=bool(lowers[1]))
    return left, right


class TestParityNet:
    """reference vs blas bit-compatibility over the whole kernel table."""

    @needs_blas
    @pytest.mark.parametrize("kernel", BINARY_KERNELS)
    def test_blas_matches_reference(self, kernel):
        ref = ReferenceBackend()
        blas = BlasBackend()
        for call, structs, lowers in _parity_cases(kernel):
            left, right = _case_arrays(call, structs, lowers)
            expected = ref.specialize(call).impl(left, right)
            for order in ("C", "F"):
                lo = np.asarray(left, order=order)
                ro = np.asarray(right, order=order)
                got = blas.specialize(call).impl(lo, ro)
                np.testing.assert_allclose(
                    got,
                    expected,
                    rtol=1e-9,
                    atol=1e-9,
                    err_msg=f"{kernel} {call} {lowers} order={order}",
                )

    @needs_blas
    @pytest.mark.parametrize("kernel", sorted(BLAS_LOWERED_KERNELS))
    def test_claimed_kernels_actually_lower(self, kernel):
        blas = BlasBackend()
        for call, _, _ in _parity_cases(kernel):
            lowered = blas.specialize(call)
            assert lowered.routine == BLAS_LOWERED_KERNELS[kernel], (
                f"{kernel} {call} lowered to {lowered.routine!r}"
            )

    def test_diagonal_solves_fall_back(self):
        blas = BlasBackend()
        for kernel in ("DIGESV", "DISYSV", "DITRSV", "DIDISV"):
            assert blas.specialize(make_call(kernel)).routine == FALLBACK_ROUTINE

    def test_unknown_kernel_falls_back_not_raises(self):
        call = StepCall("NOPE", "nope", True)
        with pytest.raises(Exception):
            BlasBackend().specialize(call)  # reference rejects too

    @needs_blas
    def test_gemm_syrk_path_on_aliased_operand(self):
        blas = BlasBackend()
        a = RNG.standard_normal((6, 4))
        got = blas.specialize(make_call("GEMM", rt=True)).impl(a, a)
        np.testing.assert_allclose(got, a @ a.T, rtol=1e-12, atol=1e-12)
        # And the transposed-first flavour (A^T A).
        got = blas.specialize(make_call("GEMM", lt=True)).impl(a, a)
        np.testing.assert_allclose(got, a.T @ a, rtol=1e-12, atol=1e-12)

    @needs_blas
    def test_singular_coefficient_raises_execution_error(self):
        singular = np.zeros((4, 4))
        rhs = RNG.standard_normal((4, 3))
        with pytest.raises(ExecutionError):
            BlasBackend().specialize(make_call("GEGESV")).impl(singular, rhs)
        with pytest.raises(ExecutionError):
            BlasBackend().specialize(make_call("POGESV")).impl(singular, rhs)


    @needs_blas
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_sysv_gets_the_blocked_workspace(self, side, monkeypatch):
        from repro.runtime.backends import blas as blas_mod

        lapack = blas_mod._lapack
        seen = []

        class RecordingLapack:
            def __getattr__(self, name):
                return getattr(lapack, name)

            def dsysv(self, *args, **kwargs):
                seen.append(kwargs.get("lwork"))
                return lapack.dsysv(*args, **kwargs)

        monkeypatch.setattr(blas_mod, "_lapack", RecordingLapack())
        n = 48
        call = make_call("SYGESV", side)
        s = _stored_array("sym", n, n, lower=False)
        g = RNG.standard_normal((n, 5) if side == "left" else (5, n))
        left, right = (s, g) if side == "left" else (g, s)
        got = BlasBackend().specialize(call).impl(left, right)
        expected = ReferenceBackend().specialize(call).impl(left, right)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)
        # scipy's default lwork (n) forces the unblocked factorization.
        optimum = int(lapack.dsysv_lwork(n, lower=0)[0])
        assert seen and seen[0] is not None and seen[0] >= optimum


class TestBackendRegistry:
    def test_get_backend_resolves_names_and_instances(self):
        assert get_backend("reference").name == "reference"
        assert get_backend("blas").name == "blas"
        backend = BlasBackend()
        assert get_backend(backend) is backend

    def test_auto_is_not_a_plan_backend(self):
        with pytest.raises(ExecutionError):
            get_backend("auto")

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutionError):
            get_backend("cuda")


def _structured_chain() -> Chain:
    from repro.ir.operand import Operand, UnaryOp

    return Chain(
        (
            make_lower("L").as_operand(),
            make_symmetric("S").as_operand(),
            Operand(make_upper("U"), UnaryOp.TRANSPOSE),
            make_general("B").as_operand(),
        )
    )


def _plan_pool(chain: Chain):
    from repro.api import compile_chain

    return compile_chain(
        chain, num_training_instances=50, use_cache=False
    ).variants


class TestPlanBackends:
    @needs_blas
    def test_blas_plan_matches_reference_plan(self):
        chain = _structured_chain()
        variants = _plan_pool(chain)
        q = [9, 9, 9, 9, 6]
        arrays = random_instance_arrays(chain, q, np.random.default_rng(3))
        expected = naive_evaluate(chain, arrays)
        for variant in variants:
            ref = compile_plan(variant, q, backend="reference")
            blas = compile_plan(variant, q, backend="blas")
            out_ref = ref.execute(arrays)
            out_blas = blas.execute(arrays)
            np.testing.assert_allclose(out_blas, out_ref, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(out_blas, expected, rtol=1e-7, atol=1e-7)

    def test_plan_records_backend_and_routines(self):
        chain = _structured_chain()
        variant = _plan_pool(chain)[0]
        q = [8, 8, 8, 8, 4]
        ref_plan = compile_plan(variant, q)
        assert ref_plan.backend == "reference"
        assert ref_plan.step_routines == (REFERENCE_ROUTINE,) * len(
            variant.steps
        )
        assert "backend=reference" in ref_plan.describe()
        assert f"-> {REFERENCE_ROUTINE}" in ref_plan.describe()

    @needs_blas
    def test_blas_plan_routines_in_describe(self):
        chain = _structured_chain()
        variant = _plan_pool(chain)[0]
        plan = compile_plan(variant, [8, 8, 8, 8, 4], backend="blas")
        assert plan.backend == "blas"
        assert len(plan.step_routines) == len(variant.steps)
        described = plan.describe()
        for routine in plan.step_routines:
            assert f"-> {routine}" in described

    def test_plan_rejects_auto(self):
        chain = _structured_chain()
        variant = _plan_pool(chain)[0]
        with pytest.raises(ExecutionError):
            compile_plan(variant, [8, 8, 8, 8, 4], backend="auto")


class TestDispatcherBackend:
    def _dispatcher(self, backend="reference", chain=None):
        chain = chain or _structured_chain()
        return chain, Dispatcher(
            chain, _plan_pool(chain), backend=backend
        )

    def test_rejects_unknown_backend(self):
        chain = _structured_chain()
        pool = _plan_pool(chain)
        with pytest.raises(DispatchError):
            Dispatcher(chain, pool, backend="cuda")

    def test_backend_names_constant(self):
        assert BACKEND_NAMES == ("reference", "blas", "c")

    def test_default_and_legacy_auto_name_resolve_to_c(self):
        chain = _structured_chain()
        pool = _plan_pool(chain)
        assert Dispatcher(chain, pool).backend == "c"
        dispatcher = Dispatcher(chain, pool, backend="auto")
        assert dispatcher.backend == "c"
        assert dispatcher.memo_stats()["backend"] == "c"
        dispatcher.backend = "blas"
        dispatcher.backend = "auto"
        assert dispatcher.backend == "c"

    def test_execution_counters_and_last_time(self):
        chain, dispatcher = self._dispatcher()
        arrays = random_instance_arrays(
            chain, [8, 8, 8, 8, 4], np.random.default_rng(0)
        )
        stats = dispatcher.memo_stats()
        assert stats["backend"] == "reference"
        assert stats["executions"] == {}
        assert stats["last_execute_seconds"] is None
        dispatcher.run(arrays)
        dispatcher.run(arrays)
        stats = dispatcher.memo_stats()
        assert stats["executions"] == {"reference": 2}
        assert stats["last_execute_seconds"] > 0
        assert dispatcher.last_execute_at is not None

    def test_execute_many_counts_per_backend(self):
        chain, dispatcher = self._dispatcher()
        rng = np.random.default_rng(1)
        batch = [
            random_instance_arrays(chain, [8, 8, 8, 8, 4], rng),
            random_instance_arrays(chain, [6, 6, 6, 6, 3], rng),
        ]
        dispatcher.execute_many(batch)
        stats = dispatcher.memo_stats()
        assert stats["executions"] == {"reference": 2}
        assert stats["last_execute_seconds"] > 0

    @needs_blas
    def test_backend_setter_recompiles_plans_keeps_decisions(self):
        chain, dispatcher = self._dispatcher()
        q = [8, 8, 8, 8, 4]
        arrays = random_instance_arrays(chain, q, np.random.default_rng(4))
        first = dispatcher.run(arrays)
        assert [p.backend for p in dispatcher._lowered.values()] == ["reference"]
        dispatcher.backend = "blas"
        assert not dispatcher._lowered  # plans dropped, decision kept
        assert dispatcher._infer.shapes(q) in dispatcher._memo
        second = dispatcher.run(arrays)
        assert [p.backend for p in dispatcher._lowered.values()] == ["blas"]
        assert second.variant is first.variant
        np.testing.assert_allclose(
            second.result, first.result, rtol=1e-9, atol=1e-9
        )
        # Warm decision: the backend swap must not have cost the memo.
        stats = dispatcher.memo_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1


class TestOptionsPlumbing:
    def test_compile_options_validates_backend(self):
        from repro.compiler.pipeline import CompileOptions

        with pytest.raises(CompilationError):
            CompileOptions(backend="cuda")

    def test_backend_excluded_from_cache_token(self):
        from repro.compiler.pipeline import CompileOptions

        ref = CompileOptions(backend="reference")
        blas = CompileOptions(backend="blas")
        assert ref.cache_token() == blas.cache_token()

    @needs_blas
    def test_compile_chain_backend_flows_to_runtime(self):
        from repro.api import compile_chain
        from repro.compiler.session import CompilerSession

        session = CompilerSession()
        chain = _structured_chain()
        gen_default = compile_chain(
            chain, num_training_instances=50, session=session
        )
        gen_blas = compile_chain(
            chain, num_training_instances=50, session=session, backend="blas"
        )
        assert gen_default.dispatcher.backend == "c"
        assert gen_blas.dispatcher.backend == "blas"
        # Same cache entry despite the different backend (runtime knob).
        assert session.cache_stats().hits >= 1
        assert gen_blas.program.options["backend"] == "blas"

    @needs_blas
    def test_artifact_roundtrip_preserves_backend(self, tmp_path):
        from repro.api import compile_chain, load_program
        from repro.compiler.program import CompiledProgram

        gen = compile_chain(
            _structured_chain(),
            num_training_instances=50,
            backend="blas",
            use_cache=False,
        )
        path = tmp_path / "prog.json"
        gen.save(path)
        loaded = CompiledProgram.load(path)
        assert loaded.options["backend"] == "blas"
        assert loaded.runtime().backend == "blas"
        # Explicit override beats the artifact snapshot.
        assert load_program(path, backend="reference").dispatcher.backend == (
            "reference"
        )

    def test_legacy_artifact_defaults_to_c(self):
        from repro.compiler.program import CompiledProgram

        gen_chain = _structured_chain()
        program = CompiledProgram.from_artifacts(
            gen_chain, _plan_pool(gen_chain), None
        )
        assert program.runtime().backend == "c"

    @needs_blas
    def test_default_backend_is_c_and_matches_oracle(self):
        from repro.api import compile_chain
        from repro.compiler.session import CompilerSession

        chain = _structured_chain()
        q = [9, 9, 9, 9, 5]
        arrays = random_instance_arrays(chain, q, np.random.default_rng(11))
        expected = naive_evaluate(chain, arrays)
        for generated in (
            compile_chain(chain, num_training_instances=50, session=CompilerSession()),
            CompilerSession().compile(chain, num_training_instances=50),
        ):
            assert generated.program.options["backend"] == "c"
            assert generated.dispatcher.backend == "c"
            out = generated.dispatcher.run(arrays)
            np.testing.assert_allclose(out.result, expected, rtol=1e-7, atol=1e-7)
            # Native where the host can build it, else the counted blas
            # fallback.
            ran = "c" if cemit_available() else "blas"
            assert generated.dispatcher.memo_stats()["executions"] == {ran: 1}

    @needs_blas
    def test_auto_artifact_loads_and_runs_on_c(self, tmp_path):
        import json

        from repro.api import compile_chain, load_program
        from repro.compiler.program import CompiledProgram

        gen = compile_chain(
            _structured_chain(), num_training_instances=50, use_cache=False
        )
        payload = json.loads(gen.to_program().dumps())
        payload["meta"]["options"]["backend"] = "auto"
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(payload))
        program = CompiledProgram.load(path)
        assert program.options["backend"] == "auto"
        runtime = program.runtime()
        assert runtime.backend == "c"
        assert program.runtime() is runtime  # "auto" hits the cached runtime
        q = [6, 6, 6, 6, 10]
        arrays = random_instance_arrays(program.chain, q, np.random.default_rng(12))
        expected = naive_evaluate(program.chain, arrays)
        for generated in (program.to_generated_code(), load_program(path)):
            np.testing.assert_allclose(generated(*arrays), expected, rtol=1e-7, atol=1e-7)
        _, _, plan = runtime.plan_for(q)
        assert plan.backend == ("c" if cemit_available() else "blas")

    @needs_blas
    def test_default_backend_without_toolchain_runs_on_blas(self, monkeypatch):
        from repro.api import compile_chain
        from repro.obs import get_registry
        from repro.runtime.backends.toolchain import reset_toolchain_cache

        fallbacks = get_registry().counter(
            "runtime.codegen_fallbacks", reason="no-toolchain"
        )
        monkeypatch.setenv("REPRO_DISABLE_CC", "1")
        reset_toolchain_cache()
        try:
            chain = _structured_chain()
            generated = compile_chain(
                chain, num_training_instances=50, use_cache=False
            )
            assert generated.dispatcher.backend == "c"
            before = fallbacks.value
            rng = np.random.default_rng(13)
            for q in ([8, 8, 8, 8, 4], [5, 5, 5, 5, 9]):
                arrays = random_instance_arrays(chain, q, rng)
                np.testing.assert_allclose(
                    generated(*arrays),
                    naive_evaluate(chain, arrays),
                    rtol=1e-7,
                    atol=1e-7,
                )
            assert fallbacks.value == before + 2
            stats = generated.dispatcher.memo_stats()
            assert stats["backend"] == "c"
            assert stats["executions"] == {"blas": 2}
        finally:
            monkeypatch.delenv("REPRO_DISABLE_CC")
            reset_toolchain_cache()

    def test_runtime_cache_keyed_on_backend(self):
        from repro.compiler.program import CompiledProgram

        chain = _structured_chain()
        program = CompiledProgram.from_artifacts(chain, _plan_pool(chain), None)
        first = program.runtime()
        assert program.runtime() is first
        other = program.runtime(backend="blas")
        assert other is not first
        assert other.backend == "blas"


class TestServeStats:
    @needs_blas
    def test_stats_expose_backend_executions(self):
        from repro.compiler.pipeline import CompileOptions
        from repro.compiler.session import CompilerSession
        from repro.serve.service import CompileService

        session = CompilerSession(options=CompileOptions(backend="blas"))
        service = CompileService(session, workers=1)
        try:
            source = (
                "Matrix L <LowerTri, NonSingular>;"
                "Matrix B <General, Singular>;"
                "R := L * L^T * B;"
            )
            generated = service.submit(
                source, num_training_instances=50
            ).result(timeout=30)
            handle = generated.program.key
            chain = generated.chain
            arrays = random_instance_arrays(
                chain, [8, 8, 8, 8], np.random.default_rng(0)
            )
            service.execute(handle, arrays)
            stats = service.stats()
            execution = stats["execution"]
            assert execution["backend"] == "blas"
            assert execution["executions"] == {"blas": 1}
            assert execution["last_execute_seconds"] > 0
        finally:
            service.close()


class TestCliBackend:
    @needs_blas
    def test_run_backend_flag_and_routing_output(self, tmp_path, capsys):
        from repro.cli import main

        source = (
            "Matrix L <LowerTri, NonSingular>;"
            "Matrix B <General, Singular>;"
            "R := L * L^T * B;"
        )
        artifact = tmp_path / "prog.json"
        assert (
            main(
                [
                    "compile",
                    "--source",
                    source,
                    "--train",
                    "50",
                    "--backend",
                    "blas",
                    "--output",
                    str(artifact),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["run", str(artifact), "--sizes", "16,16,16,8"]) == 0
        )
        out = capsys.readouterr().out
        assert "backend=blas" in out
        assert "dtrmm" in out
        # Override back to reference from the command line.
        assert (
            main(
                [
                    "run",
                    str(artifact),
                    "--sizes",
                    "16,16,16,8",
                    "--backend",
                    "reference",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend=reference" in out
