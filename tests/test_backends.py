"""The execution-backend layer: lowering, parity, auto strategy, plumbing.

The heart of this file is the bit-compatibility parity net: every kernel
lowered by ``repro.kernels.reference.specialize_kernel``, swept over
side x trans x stored-triangularity configurations and both memory
orders, must produce the same answer
through the blas backend as through the reference backend (tight
tolerance — same arithmetic up to routine-level reassociation).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.errors import CompilationError, DispatchError, ExecutionError
from repro.ir.chain import Chain
from repro.kernels.reference import PRODUCT_KERNELS, SOLVER_BY_KERNEL
from repro.runtime import (
    BACKEND_NAMES,
    BLAS_LOWERED_KERNELS,
    Dispatcher,
    FALLBACK_ROUTINE,
    KernelCallConfig,
    REFERENCE_ROUTINE,
    BlasBackend,
    ReferenceBackend,
    blas_available,
    compile_plan,
    get_backend,
    naive_evaluate,
    random_instance_arrays,
)

from conftest import make_general, make_lower, make_symmetric, make_upper

RNG = np.random.default_rng(7)

needs_blas = pytest.mark.skipif(
    not blas_available(), reason="scipy BLAS/LAPACK routines unavailable"
)

#: Operand structure each kernel assumes: (structure at cfg.side, other).
#: Kernel names encode it — the first two letters name the structured /
#: coefficient operand (the one standing on ``cfg.side``), the middle two
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


def _parity_cases(kernel: str):
    """Every (cfg, left_struct, right_struct) combination worth sweeping."""
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
            yield (
                KernelCallConfig(
                    side=side,
                    left_trans=lt,
                    right_trans=rt,
                    left_lower=ll,
                    right_lower=rl,
                ),
                structs,
            )


def _case_arrays(kernel: str, cfg: KernelCallConfig, structs, n=7, m=5):
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
        shapes[0] = (n, m) if cfg.left_trans else (m, n)
    elif rs == "general":
        shapes[1] = (m, n) if cfg.right_trans else (n, m)
    left = _stored_array(ls, *shapes[0], lower=bool(cfg.left_lower))
    right = _stored_array(rs, *shapes[1], lower=bool(cfg.right_lower))
    return left, right


class TestParityNet:
    """reference vs blas bit-compatibility over the whole kernel table."""

    @needs_blas
    @pytest.mark.parametrize(
        "kernel", sorted(PRODUCT_KERNELS | SOLVER_BY_KERNEL.keys())
    )
    def test_blas_matches_reference(self, kernel):
        ref = ReferenceBackend()
        blas = BlasBackend()
        for cfg, structs in _parity_cases(kernel):
            left, right = _case_arrays(kernel, cfg, structs)
            expected = ref.specialize(kernel, cfg).impl(left, right)
            for order in ("C", "F"):
                lo = np.asarray(left, order=order)
                ro = np.asarray(right, order=order)
                got = blas.specialize(kernel, cfg).impl(lo, ro)
                np.testing.assert_allclose(
                    got,
                    expected,
                    rtol=1e-9,
                    atol=1e-9,
                    err_msg=f"{kernel} {cfg} order={order}",
                )

    @needs_blas
    @pytest.mark.parametrize("kernel", sorted(BLAS_LOWERED_KERNELS))
    def test_claimed_kernels_actually_lower(self, kernel):
        blas = BlasBackend()
        for cfg, _ in _parity_cases(kernel):
            lowered = blas.specialize(kernel, cfg)
            assert lowered.routine == BLAS_LOWERED_KERNELS[kernel], (
                f"{kernel} {cfg} lowered to {lowered.routine!r}"
            )

    def test_diagonal_solves_fall_back(self):
        blas = BlasBackend()
        for kernel in ("DIGESV", "DISYSV", "DITRSV", "DIDISV"):
            cfg = KernelCallConfig(
                side="left",
                left_trans=False,
                right_trans=False,
                left_lower=None,
                right_lower=None,
            )
            assert blas.specialize(kernel, cfg).routine == FALLBACK_ROUTINE

    def test_unknown_kernel_falls_back_not_raises(self):
        cfg = KernelCallConfig(
            side="left",
            left_trans=False,
            right_trans=False,
            left_lower=None,
            right_lower=None,
        )
        with pytest.raises(Exception):
            BlasBackend().specialize("NOPE", cfg)  # reference rejects too

    @needs_blas
    def test_gemm_syrk_path_on_aliased_operand(self):
        blas = BlasBackend()
        cfg = KernelCallConfig(
            side="left",
            left_trans=False,
            right_trans=True,
            left_lower=None,
            right_lower=None,
        )
        a = RNG.standard_normal((6, 4))
        got = blas.specialize("GEMM", cfg).impl(a, a)
        np.testing.assert_allclose(got, a @ a.T, rtol=1e-12, atol=1e-12)
        # And the transposed-first flavour (A^T A).
        cfg_t = KernelCallConfig(
            side="left",
            left_trans=True,
            right_trans=False,
            left_lower=None,
            right_lower=None,
        )
        got = blas.specialize("GEMM", cfg_t).impl(a, a)
        np.testing.assert_allclose(got, a.T @ a, rtol=1e-12, atol=1e-12)

    @needs_blas
    def test_singular_coefficient_raises_execution_error(self):
        cfg = KernelCallConfig(
            side="left",
            left_trans=False,
            right_trans=False,
            left_lower=None,
            right_lower=None,
        )
        singular = np.zeros((4, 4))
        rhs = RNG.standard_normal((4, 3))
        with pytest.raises(ExecutionError):
            BlasBackend().specialize("GEGESV", cfg).impl(singular, rhs)
        with pytest.raises(ExecutionError):
            BlasBackend().specialize("POGESV", cfg).impl(singular, rhs)


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
        cfg = KernelCallConfig(
            side=side,
            left_trans=False,
            right_trans=False,
            left_lower=None,
            right_lower=None,
        )
        s = _stored_array("sym", n, n, lower=False)
        g = RNG.standard_normal((n, 5) if side == "left" else (5, n))
        left, right = (s, g) if side == "left" else (g, s)
        got = BlasBackend().specialize("SYGESV", cfg).impl(left, right)
        expected = ReferenceBackend().specialize("SYGESV", cfg).impl(left, right)
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
        assert BACKEND_NAMES == ("reference", "blas", "c", "auto")

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
    def test_auto_measures_and_caches_winner(self):
        chain, dispatcher = self._dispatcher(backend="auto")
        q = [16, 16, 16, 16, 8]
        arrays = random_instance_arrays(chain, q, np.random.default_rng(2))
        out = dispatcher.run(arrays)
        expected = naive_evaluate(chain, arrays)
        np.testing.assert_allclose(out.result, expected, rtol=1e-7, atol=1e-7)
        entry = dispatcher._memo[tuple(q)]
        assert entry.backend in ("reference", "blas", "c")
        assert entry.bench is not None
        # The c lowering joins the tournament only on hosts that can
        # emit native plans; reference and blas always compete.
        assert set(entry.bench) >= {"reference", "blas"}
        assert set(entry.bench) <= {"reference", "blas", "c"}
        assert all(t > 0 for t in entry.bench.values())
        # The cached winner serves later calls without re-benchmarking.
        bench = entry.bench
        dispatcher.run(arrays)
        assert dispatcher._memo[tuple(q)].bench is bench
        stats = dispatcher.memo_stats()
        assert stats["backend"] == "auto"
        assert sum(stats["executions"].values()) == 2
        assert set(stats["executions"]) == {entry.backend}

    @needs_blas
    def test_backend_setter_recompiles_plans_keeps_decisions(self):
        chain, dispatcher = self._dispatcher()
        q = [8, 8, 8, 8, 4]
        arrays = random_instance_arrays(chain, q, np.random.default_rng(4))
        first = dispatcher.run(arrays)
        assert dispatcher._memo[tuple(q)].plan.backend == "reference"
        dispatcher.backend = "blas"
        assert dispatcher._memo[tuple(q)].plan is None  # decision kept
        second = dispatcher.run(arrays)
        assert dispatcher._memo[tuple(q)].plan.backend == "blas"
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
        gen_ref = compile_chain(
            chain, num_training_instances=50, session=session
        )
        gen_blas = compile_chain(
            chain, num_training_instances=50, session=session, backend="blas"
        )
        assert gen_ref.dispatcher.backend == "reference"
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

    def test_legacy_artifact_defaults_to_reference(self):
        from repro.compiler.program import CompiledProgram

        gen_chain = _structured_chain()
        program = CompiledProgram.from_artifacts(
            gen_chain, _plan_pool(gen_chain), None
        )
        assert program.runtime().backend == "reference"

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
