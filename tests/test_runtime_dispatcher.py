"""Tests for the memoizing runtime dispatcher (repro.runtime.dispatcher)."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.compiler.selection import all_variants
from repro.runtime import (
    Dispatcher,
    blas_available,
    cemit_available,
    execute_variant,
    flop_estimator,
    naive_evaluate,
    random_instance_arrays,
)

from conftest import general_chain, random_option_chain, small_sizes_for


class TestMemoCorrectness:
    def test_warm_answers_match_cold_bit_identically(self):
        rng = np.random.default_rng(0)
        chain = random_option_chain(4, rng)
        variants = all_variants(chain)
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        warm = Dispatcher(chain, variants)
        cold_reference = execute_variant(warm.select(sizes)[0], list(arrays))
        first = warm(*arrays)
        second = warm(*arrays)  # memo hit
        np.testing.assert_array_equal(first, cold_reference)
        np.testing.assert_array_equal(second, first)
        stats = warm.memo_stats()
        assert stats["hits"] >= 1 and stats["misses"] == 1

    def test_select_is_memoized(self):
        chain = general_chain(4)
        dispatcher = Dispatcher(chain, all_variants(chain))
        q = (30, 2, 40, 3, 50)
        first = dispatcher.select(q)
        assert dispatcher.memo_stats()["misses"] == 1
        second = dispatcher.select(q)
        assert second[0] is first[0]
        assert second[1] == first[1]
        assert dispatcher.memo_stats()["hits"] == 1

    def test_tie_break_stability_through_memo(self):
        """Warm answers are the same decision, not merely an equal one."""
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(
            chain, variants, cost_estimator=lambda v, q: 42.0
        )
        q = (4, 5, 6, 7)
        picked, cost = dispatcher.select(q)
        assert picked is variants[0] and cost == 42.0
        for _ in range(5):
            again, _ = dispatcher.select(q)
            assert again is picked

    def test_real_cost_tie_through_memo(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, variants)
        q = (10, 10, 10, 10)  # (AB)C and A(BC) tie exactly
        for _ in range(3):
            picked, _ = dispatcher.select(q)
            assert picked.signature() == variants[0].signature()

    def test_sizes_inferred_once_per_miss_never_per_hit(self, monkeypatch):
        """A miss infers (and thereby validates) the sizes once; a hit on
        the same operand shapes trusts the memo key and infers nothing."""
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        rng = np.random.default_rng(2)
        arrays = random_instance_arrays(chain, (3, 4, 5, 6), rng)
        from repro.runtime.executor import SizeInferencer

        calls = []
        real = SizeInferencer.infer

        def counting(self, arrays_arg):
            calls.append(1)
            return real(self, arrays_arg)

        monkeypatch.setattr(SizeInferencer, "infer", counting)
        dispatcher(*arrays)  # cold: sweep + plan compile
        assert len(calls) == 1
        for _ in range(3):
            dispatcher(*arrays)  # warm: memo replay
        assert len(calls) == 1
        assert dispatcher.memo_stats()["hits"] == 3


class TestMemoInvalidation:
    def test_variants_reassignment_clears_the_memo(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, variants)
        q = (2, 3, 2, 100)
        dispatcher.select(q)
        dispatcher.variants = [variants[0]]
        picked, cost = dispatcher.select(q)
        assert picked is variants[0]
        assert cost == pytest.approx(variants[0].flop_cost(q))
        assert dispatcher.memo_stats()["misses"] == 2  # re-swept

    def test_same_length_in_place_replacement_is_caught(self):
        """Regression: the old guard only keyed the term stack on pool
        *length*, so same-length in-place replacement silently reused the
        stale flattened cost stack (and would now also hit a stale memo)."""
        chain = general_chain(3)
        v0, v1 = all_variants(chain)
        dispatcher = Dispatcher(chain, [v0])
        q = (2, 3, 2, 100)
        _, cost_before = dispatcher.select(q)
        assert cost_before == pytest.approx(v0.flop_cost(q))
        dispatcher.variants[0] = v1  # in place, same length
        picked, cost_after = dispatcher.select(q)
        assert picked is v1
        assert cost_after == pytest.approx(v1.flop_cost(q))
        # Batched paths see the replacement too.
        matrix = dispatcher.cost_matrix([q])
        assert matrix[0, 0] == pytest.approx(v1.flop_cost(q))

    def test_in_place_growth_still_caught(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, [variants[0]])
        q = (100, 2, 3, 2)
        dispatcher.select(q)
        dispatcher.variants.extend(variants[1:])
        _, cost = dispatcher.select(q)
        assert cost == pytest.approx(min(v.flop_cost(q) for v in variants))

    def test_cost_estimator_swap_clears_the_memo(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, variants)
        q = (2, 3, 2, 100)
        best, _ = dispatcher.select(q)
        assert best.flop_cost(q) == pytest.approx(
            min(v.flop_cost(q) for v in variants)
        )
        dispatcher.cost_estimator = lambda v, sizes: -flop_estimator(v, sizes)
        worst, _ = dispatcher.select(q)
        assert worst.flop_cost(q) == pytest.approx(
            max(v.flop_cost(q) for v in variants)
        )
        assert worst.signature() != best.signature()


class TestMemoBounds:
    def test_capacity_is_enforced_lru(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain), memo_capacity=2)
        for m in (2, 3, 4, 5):
            dispatcher.select((m, 3, 4, 5))
        assert dispatcher.memo_stats()["entries"] == 2
        # The most recent entries are retained.
        dispatcher.select((5, 3, 4, 5))
        assert dispatcher.memo_stats()["hits"] == 1

    def test_a_hit_spares_its_entry_from_the_next_eviction(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain), memo_capacity=2)
        a, b, c = (2, 3, 4, 5), (3, 3, 4, 5), (4, 3, 4, 5)
        dispatcher.select(a)
        dispatcher.select(b)
        dispatcher.select(a)  # hit: a is in use, b is not
        dispatcher.select(c)
        stats = dispatcher.memo_stats()
        assert stats["entries"] == 2 and stats["evictions"] == 1
        dispatcher.select(a)
        assert dispatcher.memo_stats()["hits"] == 2  # a survived
        dispatcher.select(b)
        assert dispatcher.memo_stats()["misses"] == 4  # b was evicted

    def test_zero_capacity_disables_memoization(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain), memo_capacity=0)
        q = (4, 5, 6, 7)
        dispatcher.select(q)
        dispatcher.select(q)
        stats = dispatcher.memo_stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_negative_capacity_rejected(self):
        from repro.errors import DispatchError

        chain = general_chain(3)
        with pytest.raises(DispatchError):
            Dispatcher(chain, all_variants(chain), memo_capacity=-1)


class TestValidateFastPath:
    def test_cost_matrix_parity(self):
        chain = general_chain(4)
        dispatcher = Dispatcher(chain, all_variants(chain))
        instances = np.array(
            [[3, 4, 5, 6, 7], [10, 2, 9, 2, 10]], dtype=np.float64
        )
        np.testing.assert_array_equal(
            dispatcher.cost_matrix(instances, validate=False),
            dispatcher.cost_matrix(instances, validate=True),
        )

    def test_select_many_parity(self):
        chain = general_chain(4)
        dispatcher = Dispatcher(chain, all_variants(chain))
        instances = [(3, 4, 5, 6, 7), (10, 2, 9, 2, 10)]
        fast = dispatcher.select_many(instances, validate=False)
        slow = dispatcher.select_many(instances, validate=True)
        assert [(v.signature(), c) for v, c in fast] == [
            (v.signature(), c) for v, c in slow
        ]

    def test_fast_path_still_checks_width(self):
        from repro.errors import DispatchError

        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        with pytest.raises(DispatchError, match="expected 4"):
            dispatcher.cost_matrix(np.ones((2, 3)), validate=False)


class TestBatchValidation:
    """The numpy batch check agrees with ``Chain.validate_sizes`` per row."""

    def setup_method(self):
        from repro.ir.chain import Chain

        from conftest import make_general, make_lower, make_symmetric

        # L is square (q0 == q1), S is square (q2 == q3), G is not.
        self.chain = Chain(
            (
                make_lower("L").as_operand(),
                make_general("G").as_operand(),
                make_symmetric("S").as_operand(),
            )
        )
        self.dispatcher = Dispatcher(self.chain, all_variants(self.chain))

    def per_row(self, instances):
        instances = np.atleast_2d(np.asarray(instances))
        return np.array(
            [self.chain.validate_sizes([int(x) for x in row]) for row in instances],
            dtype=np.float64,
        ).reshape(instances.shape[0], self.chain.n + 1)

    @pytest.mark.parametrize(
        "instances",
        [
            [[3, 3, 5, 5], [7, 7, 2, 2]],
            np.array([[3, 3, 5, 5], [7, 7, 2, 2]], dtype=np.int32),
            np.array([[3.7, 3.2, 5.0, 5.9], [7.0, 7.0, 2.5, 2.0]]),
            [4, 4, 6, 6],
            np.zeros((0, 4)),
            np.zeros((0, 3)),
        ],
    )
    def test_valid_batches_match_per_row_loop(self, instances):
        got = self.dispatcher._as_instance_matrix(np.asarray(instances), True)
        expected = self.per_row(instances)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "instances",
        [
            [[3, 3, 5, 5], [0, 0, 2, 2]],  # zero
            [[3, 3, 5, 5], [-4, -4, 2, 2]],  # negative
            [[0.5, 0.5, 5, 5]],  # positive, but truncates to zero
            [[3, 4, 5, 5]],  # L not square
            [[3, 3, 5, 6]],  # S not square
            [[3, 3, 5]],  # wrong width
            [[3, 3, 5, 5, 5]],  # wrong width
            [[3.0, 3.0, float("nan"), 5.0]],  # NaN
            [[3.0, 3.0, float("inf"), 5.0]],  # infinite
        ],
    )
    def test_invalid_batches_raise_like_per_row_loop(self, instances):
        with pytest.raises(Exception) as expected:
            self.per_row(instances)
        with pytest.raises(type(expected.value)) as got:
            self.dispatcher.cost_matrix(np.asarray(instances))
        assert str(got.value) == str(expected.value)


class TestExecuteMany:
    def test_matches_per_call_execution(self):
        rng = np.random.default_rng(7)
        chain = random_option_chain(3, rng)
        dispatcher = Dispatcher(chain, all_variants(chain))
        batches = []
        for _ in range(6):
            sizes = small_sizes_for(chain, rng)
            batches.append(random_instance_arrays(chain, sizes, rng))
        batched = dispatcher.execute_many(batches)
        solo = Dispatcher(chain, dispatcher.variants)
        for arrays, got in zip(batches, batched):
            np.testing.assert_array_equal(got, solo(*arrays))

    def test_batch_warms_the_memo(self):
        rng = np.random.default_rng(8)
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        sizes = (3, 4, 5, 6)
        batches = [
            random_instance_arrays(chain, sizes, rng) for _ in range(4)
        ]
        dispatcher.execute_many(batches)
        assert dispatcher.memo_stats()["entries"] == 1
        dispatcher(*batches[0])
        assert dispatcher.memo_stats()["hits"] >= 1

    def test_empty_batch(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        assert dispatcher.execute_many([]) == []


class TestRunOutcome:
    def test_outcome_fields(self):
        rng = np.random.default_rng(9)
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        sizes = (3, 4, 5, 6)
        arrays = random_instance_arrays(chain, sizes, rng)
        outcome = dispatcher.run(arrays)
        assert outcome.sizes == sizes
        assert outcome.variant in dispatcher.variants
        assert outcome.cost == pytest.approx(dispatcher.select(sizes)[1])
        np.testing.assert_allclose(
            outcome.result, naive_evaluate(chain, arrays), atol=1e-8
        )


class TestProgramRuntime:
    def test_runtime_is_cached_and_to_dispatcher_is_fresh(self):
        from repro import compile_chain

        generated = compile_chain(
            "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;",
            use_cache=False,
        )
        program = generated.to_program()
        runtime = program.runtime()
        assert program.runtime() is runtime
        assert program.to_dispatcher() is not runtime
        # A different estimator builds (and caches) a different runtime.
        other = program.runtime(lambda v, q: 1.0)
        assert other is not runtime

    def test_program_execute_hits_the_memo(self):
        from repro import compile_chain

        generated = compile_chain(
            "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;",
            use_cache=False,
        )
        program = generated.to_program()
        rng = np.random.default_rng(3)
        arrays = random_instance_arrays(program.chain, (3, 4, 5), rng)
        first = program.execute(*arrays)
        second = program.execute(*arrays)
        np.testing.assert_array_equal(first, second)
        assert program.runtime().memo_stats()["hits"] >= 1

    def test_generated_code_dispatcher_is_the_program_runtime(self):
        from repro import compile_chain

        generated = compile_chain(
            "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;",
            use_cache=False,
        )
        assert generated.program is not None
        assert generated.dispatcher is generated.program.runtime()

    def test_loaded_artifact_shares_the_live_runtime(self, tmp_path):
        from repro import compile_chain, load_program

        generated = compile_chain(
            "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;",
            use_cache=False,
        )
        path = tmp_path / "prog.json"
        generated.save(path)
        loaded = load_program(path)
        assert loaded.dispatcher is loaded.program.runtime()
        rng = np.random.default_rng(4)
        arrays = random_instance_arrays(loaded.chain, (3, 4, 5), rng)
        np.testing.assert_array_equal(loaded(*arrays), loaded(*arrays))
        assert loaded.dispatcher.memo_stats()["hits"] >= 1


class TestServeWarmMemo:
    SOURCE = "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"

    @staticmethod
    def _execute(service, handle, arrays):
        from repro.serve.frontend import handle_request

        response = handle_request(
            service,
            {
                "op": "execute",
                "handle": handle,
                "arrays": [a.tolist() for a in arrays],
            },
        )
        assert response["ok"], response
        return response

    def test_execute_identical_with_and_without_warm_memo(self):
        """The serve `execute` op answers bit-identically whether the
        handle's dispatch memo is cold or warm."""
        from repro.serve import CompileService
        from repro.serve.frontend import handle_request

        rng = np.random.default_rng(11)
        arrays = None
        responses = []
        for _ in range(2):  # two independent services: cold vs warmed
            with CompileService(workers=1, warm=False) as service:
                compiled = handle_request(
                    service, {"op": "compile", "source": self.SOURCE}
                )
                assert compiled["ok"], compiled
                handle = compiled["handle"]
                if arrays is None:
                    generated = service.lookup(handle)
                    arrays = random_instance_arrays(
                        generated.chain, (3, 4, 5), rng
                    )
                cold = self._execute(service, handle, arrays)
                warm = self._execute(service, handle, arrays)  # memo hit
                assert warm["result"] == cold["result"]
                assert warm["variant"] == cold["variant"]
                assert warm["cost"] == cold["cost"]
                assert service.lookup(handle).dispatcher.memo_stats()[
                    "hits"
                ] >= 1
                responses.append(cold)
        # Across services (cold memo vs fresh process state): identical.
        assert responses[0]["result"] == responses[1]["result"]
        assert responses[0]["variant"] == responses[1]["variant"]

    def test_service_execute_matches_interpretive_reference(self):
        """service.execute == pre-refactor select + execute_variant."""
        from repro.ir.parser import parse_program
        from repro.serve import CompileService

        rng = np.random.default_rng(12)
        chain = parse_program(self.SOURCE).chain
        with CompileService(workers=1, warm=False) as service:
            future = service.submit(chain)
            generated = future.result(timeout=30)
            handle = future.handle
            arrays = random_instance_arrays(generated.chain, (4, 5, 6), rng)
            outcome = service.execute(handle, arrays)
            variant, cost = generated.select((4, 5, 6))
            np.testing.assert_array_equal(
                outcome.result, execute_variant(variant, list(arrays))
            )
            assert outcome.variant.signature() == variant.signature()
            assert outcome.cost == cost
            with pytest.raises(KeyError):
                service.execute("no-such-handle", arrays)


def ran_on(backend):
    """The backend a plan of ``backend`` reports: without a toolchain the
    ``c`` backend falls back to ``blas``."""
    return "blas" if backend == "c" and not cemit_available() else backend


class TestExecutionLog:
    """Warm-call bookkeeping is batched, yet exact whenever it is read —
    for hits on the Python path and served natively from the memo alike."""

    @staticmethod
    def executed(backend="reference"):
        from repro.obs import get_registry, metric_key

        key = metric_key("runtime.execute_seconds", {"backend": backend})
        histogram = get_registry().snapshot()["histograms"].get(key)
        return histogram["count"] if histogram else 0

    @pytest.mark.parametrize("backend", ["reference", "c"])
    def test_reads_see_every_call(self, backend):
        from repro.obs import get_registry
        from repro.runtime.dispatcher import EXECUTION_LOG_BATCH

        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain), backend=backend)
        arrays = random_instance_arrays(
            chain, (3, 4, 5, 6), np.random.default_rng(3)
        )
        label = ran_on(backend)
        before = self.executed(label)
        calls = EXECUTION_LOG_BATCH + 3  # one batch fold, then a tail
        for _ in range(calls):
            dispatcher.run(arrays)
        # The registry snapshot folds the tail before reading histograms.
        assert self.executed(label) == before + calls
        stats = dispatcher.memo_stats()
        assert stats["hits"] == calls - 1 and stats["misses"] == 1
        assert stats["executions"] == {label: calls}
        assert stats["last_execute_seconds"] > 0
        runtime = get_registry().snapshot()["scopes"]["runtime"]
        assert runtime["memo_hits"] >= calls - 1

    @pytest.mark.parametrize("backend", ["reference", "c"])
    def test_a_dropped_dispatcher_still_reports_its_calls(self, backend):
        import gc

        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain), backend=backend)
        arrays = random_instance_arrays(
            chain, (3, 4, 5, 6), np.random.default_rng(4)
        )
        label = ran_on(backend)
        before = self.executed(label)
        for _ in range(3):
            dispatcher.run(arrays)
        del dispatcher
        gc.collect()
        assert self.executed(label) == before + 3

    def test_a_full_native_log_costs_one_python_call(self, monkeypatch):
        """The interpreter declines warm calls once its log is full; the
        one Python-path call that follows folds it, and hits go native
        again."""
        from repro.runtime.dispatcher import EXECUTION_LOG_BATCH
        from repro.runtime.plan import ExecutionPlan

        if not cemit_available():
            pytest.skip("C toolchain or scipy cython capsules unavailable")
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain), backend="c")
        arrays = random_instance_arrays(
            chain, (3, 4, 5, 6), np.random.default_rng(5)
        )
        expected = dispatcher.run(arrays).result  # the miss lowers the plan
        replays = []
        replay = ExecutionPlan.replay

        def counting(plan, *args, **kwargs):
            replays.append(1)
            return replay(plan, *args, **kwargs)

        monkeypatch.setattr(ExecutionPlan, "replay", counting)
        calls = 4 * EXECUTION_LOG_BATCH
        for _ in range(calls):
            np.testing.assert_array_equal(dispatcher.run(arrays).result, expected)
        assert len(replays) <= calls // EXECUTION_LOG_BATCH
        stats = dispatcher.memo_stats()
        assert stats["hits"] == calls and stats["executions"] == {"c": calls + 1}

    def test_native_and_fallback_entries_share_one_log(self, monkeypatch):
        """One ``c`` dispatcher whose variants lower natively and to the
        blas fallback: each logged execution is counted under the backend
        that ran it, through batch folds, full-log declines, a swap to
        ``blas`` and back, and the finalizer of a dropped dispatcher."""
        import gc

        from repro.obs import get_registry
        from repro.runtime.backends import CEmitBackend
        from repro.runtime.dispatcher import EXECUTION_LOG_BATCH
        from repro.runtime.plan import compile_plan

        if not cemit_available():
            pytest.skip("C toolchain or scipy cython capsules unavailable")
        chain = general_chain(3)
        variants = all_variants(chain)
        rng = np.random.default_rng(8)
        # (G1 G2) G3 wins the first size vector, G1 (G2 G3) the second.
        native_q, fallen_q = (2, 10, 10, 10), (10, 10, 10, 2)
        native = random_instance_arrays(chain, native_q, rng)
        fallen = random_instance_arrays(chain, fallen_q, rng)
        probe = Dispatcher(chain, variants, backend="reference")
        native_variant = probe.select(native_q)[0]
        blas_variant = probe.select(fallen_q)[0]
        assert native_variant is not blas_variant
        lower_plan = CEmitBackend.lower_plan

        def decline_one(self, plan):
            if plan.variant is blas_variant:
                return None
            return lower_plan(self, plan)

        monkeypatch.setattr(CEmitBackend, "lower_plan", decline_one)
        assert compile_plan(native_variant, native_q, backend="c").backend == "c"
        assert compile_plan(blas_variant, fallen_q, backend="c").backend == "blas"
        registry = get_registry()
        hists = {
            label: registry.histogram("runtime.execute_seconds", backend=label)
            for label in ("c", "blas")
        }
        gc.collect()
        registry.snapshot()  # fold every other live dispatcher first
        before = {label: h.count for label, h in hists.items()}
        dispatcher = Dispatcher(chain, variants, backend="c")
        ran = {"c": 0, "blas": 0}

        def drive(calls, arrays, label):
            for _ in range(calls):
                dispatcher.run(arrays)
            ran[label] += calls

        def check():
            stats = dispatcher.memo_stats()
            assert stats["executions"] == ran
            assert stats["misses"] == 2
            assert stats["hits"] == sum(ran.values()) - 2
            for label, h in hists.items():
                assert h.count - before[label] == ran[label], label

        for _ in range(EXECUTION_LOG_BATCH // 2 + 1):  # a batch fold + 3
            drive(1, native, "c")
            drive(1, fallen, "blas")
        drive(1, native, "c")
        check()
        drive(2 * EXECUTION_LOG_BATCH, native, "c")  # full-log declines
        drive(3, fallen, "blas")
        check()
        dispatcher.backend = "blas"
        drive(5, native, "blas")
        drive(2, fallen, "blas")
        dispatcher.backend = "c"
        drive(EXECUTION_LOG_BATCH + 1, native, "c")
        drive(4, fallen, "blas")
        check()
        drive(7, native, "c")
        drive(2, fallen, "blas")
        del dispatcher
        gc.collect()
        for label, h in hists.items():
            assert h.count - before[label] == ran[label], label


class TestConcurrency:
    """One dispatcher driven from many threads, with evictions; on ``c``,
    one more thread swaps the backend and the cost estimator meanwhile."""

    THREADS = 8
    CALLS = 500
    CAPACITY = 4

    @pytest.mark.parametrize("backend", ["reference", "c"])
    def test_threads_share_one_dispatcher(self, backend):
        if backend == "c" and not cemit_available():
            pytest.skip("C toolchain or scipy cython capsules unavailable")
        rng = np.random.default_rng(21)
        chain = general_chain(4)  # 5 variants: a sweep picks one of them
        dispatcher = Dispatcher(
            chain,
            all_variants(chain),
            memo_capacity=self.CAPACITY,
            backend=backend,
        )
        sizes = [(m, 9 - m, 7, 2 + m, 3 + m) for m in range(1, 7)]  # 6 shapes
        instances = [random_instance_arrays(chain, q, rng) for q in sizes]
        expected = [naive_evaluate(chain, arrays) for arrays in instances]

        def worst(variant, q):
            return -flop_estimator(variant, q)

        # The variants a cost sweep picks for each shape, under either
        # estimator the swapper below installs.
        picks = [
            {
                Dispatcher(chain, dispatcher.variants, cost_estimator=e).select(q)[0]
                for e in (flop_estimator, worst)
            }
            for q in sizes
        ]
        barrier = threading.Barrier(self.THREADS)
        errors = []
        done = threading.Event()

        def worker(seed):
            order = np.random.default_rng(seed).integers(len(sizes), size=self.CALLS)
            # Every other call lands in this thread's own out= buffer.
            outs = [np.empty(e.shape) for e in expected]
            barrier.wait()
            try:
                for k, i in enumerate(order.tolist()):
                    out = outs[i] if k % 2 else None
                    outcome = dispatcher.run(list(instances[i]), out=out)
                    if out is not None:
                        assert outcome.result is out
                    assert outcome.sizes == sizes[i]
                    assert outcome.variant in picks[i]
                    np.testing.assert_allclose(
                        outcome.result, expected[i], rtol=1e-10, atol=1e-10
                    )
            except BaseException as exc:  # reported from the main thread
                errors.append(exc)

        def swapper():
            try:
                while not done.is_set():
                    dispatcher.backend = "blas"
                    dispatcher.cost_estimator = worst
                    dispatcher.backend = "c"
                    dispatcher.cost_estimator = flop_estimator
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,), daemon=True)
            for seed in range(self.THREADS)
        ]
        swappers = (
            [threading.Thread(target=swapper, daemon=True)] if backend == "c" else []
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for thread in threads + swappers:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            done.set()
            for thread in swappers:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + swappers)
        assert not errors, errors[0]
        calls = self.THREADS * self.CALLS
        stats = dispatcher.memo_stats()
        assert stats["hits"] + stats["misses"] == calls
        assert sum(stats["executions"].values()) == calls
        assert stats["entries"] <= self.CAPACITY
        assert stats["evictions"] > 0


class TestTracedDispatch:
    """A traced call on ``c`` runs the program an untraced call runs, and
    its kernel histograms describe the routines that ran."""

    CALLS = 40

    def test_traced_c_times_the_routines_that_run(self, monkeypatch):
        from repro.ir.parser import parse_chain
        from repro.obs import get_registry
        from repro.obs import trace as obs_trace
        from repro.perfmodel.feedback import KERNEL_RATE_METRIC, CalibratedEstimator
        from repro.runtime.backends import FALLBACK_ROUTINE, BlasBackend

        native = cemit_available()
        if native:

            def refuse(self, call):
                raise AssertionError("a native plan lowered a step through blas")

            monkeypatch.setattr(BlasBackend, "specialize", refuse)
        elif not blas_available():
            pytest.skip("scipy BLAS/LAPACK routines unavailable")
        chain = parse_chain(
            "Matrix D <Diagonal, NonSingular>; Matrix A <General, Singular>; "
            "Matrix B <General, Singular>; X := D^-1 * A * B;"
        )
        dispatcher = Dispatcher(chain, all_variants(chain), backend="c")
        arrays = random_instance_arrays(
            chain, (9, 9, 12, 7), np.random.default_rng(11)
        )
        expected = dispatcher.run(arrays).result  # untraced; lowers the plan
        _, _, plan = dispatcher.plan_for((9, 9, 12, 7))
        labels = {
            "DIGESV": "diag-solve" if native else FALLBACK_ROUTINE,
            "GEMM": "dgemm",
        }
        steps = plan.variant.steps
        assert plan.step_routines == tuple(labels[s.kernel.name] for s in steps)
        registry = get_registry()
        hists = [
            (
                registry.histogram(
                    "runtime.kernel_seconds", kernel=s.kernel.name, routine=r
                ),
                registry.histogram(KERNEL_RATE_METRIC, kernel=s.kernel.name, routine=r),
            )
            for s, r in zip(steps, plan.step_routines)
        ]
        before = [(h.count, rate.count) for h, rate in hists]
        obs_trace.enable()
        try:
            for _ in range(self.CALLS):
                np.testing.assert_array_equal(dispatcher.run(arrays).result, expected)
        finally:
            obs_trace.disable()
            obs_trace.drain()
        stats = dispatcher.memo_stats()
        assert stats["executions"] == {"c" if native else "blas": self.CALLS + 1}
        # Each step's labels are distinct here: one sample of each per call.
        pairs = {(s.kernel.name, r) for s, r in zip(steps, plan.step_routines)}
        assert len(pairs) == len(steps)
        for (seconds, rate), (n_seconds, n_rate) in zip(hists, before):
            assert seconds.count - n_seconds == self.CALLS
            assert rate.count - n_rate == self.CALLS
        estimator = CalibratedEstimator()
        estimator.refresh()
        table = estimator.snapshot()["table"]
        for step, routine in zip(steps, plan.step_routines):
            assert f"{step.kernel.name}|{routine}" in table


class TestOutBuffer:
    """``run(arrays, out=...)``: the caller's buffer receives the result."""

    SIZES = (32, 48, 24, 40)

    def setup_method(self):
        self.chain = general_chain(3)
        self.variants = all_variants(self.chain)

    def instance(self, seed, sizes=SIZES):
        rng = np.random.default_rng(seed)
        return random_instance_arrays(self.chain, sizes, rng)

    def test_out_parameter_via_dispatcher(self):
        dispatcher = Dispatcher(self.chain, self.variants, backend="reference")
        arrays = self.instance(7)
        expected = dispatcher.run(arrays).result
        out = np.empty_like(expected)
        outcome = dispatcher.run(arrays, out=out)
        assert outcome.result is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("backend", ["reference", "c"])
    def test_traced_replay_with_out_stays_correct(self, backend):
        from repro.obs import trace as obs_trace

        dispatcher = Dispatcher(self.chain, self.variants, backend=backend)
        arrays = self.instance(9)
        expected = naive_evaluate(self.chain, arrays)
        obs_trace.enable()
        try:
            out = np.empty_like(expected)
            traced = dispatcher.run(arrays, out=out)
        finally:
            obs_trace.disable()
        assert traced.result is out
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    def test_warm_out_replay_allocates_nothing(self):
        """A warm native replay writes straight into a conforming ``out``.

        Small Python-object churn (the values list, floats, the outcome
        tuple) is unavoidable and irrelevant; the bound is one block big
        enough to be a matrix buffer (16 KiB — the result here is 32 KiB).
        The interpreter's C workspace is malloc'ed outside tracemalloc's
        view; it holds intermediates only.
        """
        if not cemit_available():
            pytest.skip("C toolchain or scipy cython capsules unavailable")
        dispatcher = Dispatcher(self.chain, self.variants, backend="c")
        arrays = self.instance(8, (64, 96, 48, 64))
        warm = dispatcher.run(arrays)  # cold: selects and lowers the plan
        out = np.empty(warm.result.shape)
        assert out.nbytes > 16 * 1024
        dispatcher.run(arrays, out=out)
        tracemalloc.start()
        try:
            for _ in range(10):
                dispatcher.run(arrays, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dispatcher.memo_stats()["executions"] == {"c": 12}
        assert peak < 16 * 1024, f"warm out= replays peaked at {peak} bytes"
        np.testing.assert_allclose(out, warm.result, rtol=1e-12, atol=1e-12)


class TestWhatAHitTrusts:
    """A warm call skips size inference; everything else it must still
    honour behaves exactly as on a cold dispatcher."""

    SIZES = (3, 4, 5, 6)

    def setup_method(self):
        self.chain = general_chain(3)
        self.variants = all_variants(self.chain)
        rng = np.random.default_rng(31)
        self.arrays = random_instance_arrays(self.chain, self.SIZES, rng)

    def warm(self, **options):
        dispatcher = Dispatcher(self.chain, self.variants, **options)
        dispatcher.run(self.arrays)
        dispatcher.run(self.arrays)
        return dispatcher

    def assert_same_outcome(self, warm, cold):
        assert warm.sizes == cold.sizes
        assert warm.variant is cold.variant
        assert warm.cost == cold.cost
        np.testing.assert_array_equal(warm.result, cold.result)

    def test_in_place_pool_mutation(self):
        v0, v1 = self.variants
        dispatcher = Dispatcher(self.chain, [v0])
        dispatcher.run(self.arrays)
        dispatcher.run(self.arrays)
        dispatcher.variants[0] = v1  # in place, same length
        warm = dispatcher.run(self.arrays)
        self.assert_same_outcome(warm, Dispatcher(self.chain, [v1]).run(self.arrays))
        assert warm.variant is v1

    def test_estimator_swap(self):
        def worst(variant, sizes):
            return -flop_estimator(variant, sizes)

        dispatcher = self.warm()
        best = dispatcher.run(self.arrays).variant
        dispatcher.cost_estimator = worst
        warm = dispatcher.run(self.arrays)
        cold = Dispatcher(self.chain, self.variants, cost_estimator=worst)
        self.assert_same_outcome(warm, cold.run(self.arrays))
        assert warm.variant is not best

    @pytest.mark.skipif(not blas_available(), reason="scipy BLAS unavailable")
    def test_backend_swap(self):
        dispatcher = self.warm(backend="reference")
        dispatcher.backend = "blas"
        warm = dispatcher.run(self.arrays)
        cold = Dispatcher(self.chain, self.variants, backend="blas")
        self.assert_same_outcome(warm, cold.run(self.arrays))
        assert dispatcher.memo_stats()["executions"] == {"reference": 2, "blas": 1}

    def test_feedback_reselection_runs_on_hits(self):
        first = Dispatcher(self.chain, self.variants).select(self.SIZES)[0]
        other = next(v for v in self.variants if v is not first)

        def calibration(variant, sizes):
            return 1e6 if variant is first else 1e-9

        dispatcher = Dispatcher(
            self.chain,
            self.variants,
            calibration=calibration,
            reselect_ratio=2.0,
            reselect_min_executions=2,
        )
        outcomes = [dispatcher.run(self.arrays) for _ in range(4)]
        assert [o.variant for o in outcomes] == [first, first, other, other]
        assert dispatcher.reselections == 1
        np.testing.assert_array_equal(
            outcomes[-1].result, execute_variant(other, list(self.arrays))
        )
        stats = dispatcher.memo_stats()
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_zero_capacity_resolves_every_call(self, monkeypatch):
        from repro.runtime.executor import SizeInferencer

        calls = []
        real = SizeInferencer.infer

        def counting(self, arrays_arg):
            calls.append(1)
            return real(self, arrays_arg)

        monkeypatch.setattr(SizeInferencer, "infer", counting)
        dispatcher = Dispatcher(self.chain, self.variants, memo_capacity=0)
        cold = Dispatcher(self.chain, self.variants).run(self.arrays)
        for _ in range(3):
            self.assert_same_outcome(dispatcher.run(self.arrays), cold)
        assert len(calls) == 4  # every memo-less call infers
        stats = dispatcher.memo_stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 3

    def test_out_buffer(self):
        dispatcher = self.warm()
        cold = Dispatcher(self.chain, self.variants).run(self.arrays)
        out = np.empty_like(cold.result)
        warm = dispatcher.run(self.arrays, out=out)
        assert warm.result is out
        self.assert_same_outcome(warm, cold)

    @pytest.mark.parametrize(
        "bad", ["transposed", "flat", "missing", "inner", "square"]
    )
    def test_wrong_shaped_operand_raises_as_cold(self, bad):
        from repro.ir.chain import Chain

        from conftest import make_general, make_lower

        # L must be square; G is free.
        chain = Chain((make_lower("L").as_operand(), make_general("G").as_operand()))
        variants = all_variants(chain)
        rng = np.random.default_rng(5)
        arrays = random_instance_arrays(chain, (4, 4, 5), rng)
        warm = Dispatcher(chain, variants)
        warm.run(arrays)
        warm.run(arrays)
        broken = {
            "transposed": [arrays[0], arrays[1].T.copy()],
            "flat": [arrays[0], arrays[1].ravel()],
            "missing": [arrays[0]],
            "inner": [arrays[0], np.ones((5, 5))],
            "square": [np.ones((4, 5)), np.ones((5, 5))],
        }[bad]
        with pytest.raises(Exception) as cold_error:
            Dispatcher(chain, variants).run(broken)
        with pytest.raises(type(cold_error.value)) as warm_error:
            warm.run(broken)
        assert str(warm_error.value) == str(cold_error.value)

    def test_every_warm_shape_sees_a_pool_or_estimator_change(self):
        """Reassigning the pool or swapping the estimator drops the plans of
        every warm shape, not only of the next one called."""
        v0, v1 = self.variants
        other = random_instance_arrays(
            self.chain, (5, 3, 6, 4), np.random.default_rng(43)
        )
        dispatcher = Dispatcher(self.chain, [v0], backend="c")
        for arrays in (self.arrays, other, self.arrays, other):
            dispatcher.run(arrays)
        dispatcher.variants = [v1]
        dispatcher.run(self.arrays)
        assert dispatcher.run(other).variant is v1

        def worst(variant, sizes):
            return -flop_estimator(variant, sizes)

        dispatcher = Dispatcher(self.chain, self.variants, backend="c")
        for arrays in (self.arrays, other, self.arrays, other):
            dispatcher.run(arrays)
        dispatcher.cost_estimator = worst
        dispatcher.run(self.arrays)
        cold = Dispatcher(self.chain, self.variants, cost_estimator=worst)
        self.assert_same_outcome(dispatcher.run(other), cold.run(other))

    def test_backend_swap_off_c(self, monkeypatch):
        """After a swap off ``c``, no call is served by a native plan."""
        from repro.runtime.plan import ExecutionPlan

        dispatcher = self.warm(backend="c")
        dispatcher.backend = "reference"
        replays = []
        replay = ExecutionPlan.replay

        def counting(plan, *args, **kwargs):
            replays.append(plan.backend)
            return replay(plan, *args, **kwargs)

        monkeypatch.setattr(ExecutionPlan, "replay", counting)
        warm = [dispatcher.run(self.arrays) for _ in range(3)]
        assert replays == ["reference"] * 3
        cold = Dispatcher(self.chain, self.variants, backend="reference")
        self.assert_same_outcome(warm[-1], cold.run(self.arrays))
        assert dispatcher.memo_stats()["executions"] == {
            ran_on("c"): 2,
            "reference": 3,
        }

    def test_eviction_at_capacity_one(self):
        """Two shapes alternating through a one-entry memo: every switch
        evicts, and the interpreter never serves the evicted shape."""
        rng = np.random.default_rng(41)
        a = random_instance_arrays(self.chain, self.SIZES, rng)
        b = random_instance_arrays(self.chain, (5, 3, 6, 4), rng)
        dispatcher = Dispatcher(
            self.chain, self.variants, memo_capacity=1, backend="c"
        )
        cold = Dispatcher(self.chain, self.variants, backend="c")
        order = [a, a, b, b, a, b, a, a]
        for arrays in order:
            self.assert_same_outcome(dispatcher.run(arrays), cold.run(arrays))
        stats = dispatcher.memo_stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 5 and stats["hits"] == 3
        assert stats["evictions"] == 4
        assert sum(stats["executions"].values()) == len(order)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "int64"])
    def test_operands_the_table_declines_at_a_warm_shape(self, layout):
        """An operand the native table does not take — F-ordered, strided,
        not float64 — gets the right answer from the Python path, counted
        as the one hit it is."""
        dispatcher = self.warm(backend="c")
        rng = np.random.default_rng(7)
        ints = [
            rng.integers(-5, 5, size=a.shape, dtype=np.int64) for a in self.arrays
        ]
        floats = [a.astype(np.float64) for a in ints]
        expected = dispatcher.run(floats).result
        operands = {
            "fortran": [np.asfortranarray(a) for a in floats],
            "strided": [np.repeat(a, 2, axis=1)[:, ::2] for a in floats],
            "int64": ints,
        }[layout]
        assert not all(a.flags.c_contiguous for a in operands) or layout == "int64"
        before = dispatcher.memo_stats()
        got = dispatcher.run(operands)
        after = dispatcher.memo_stats()
        assert got.result.dtype == np.float64
        np.testing.assert_allclose(got.result, expected, rtol=1e-12, atol=1e-12)
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert sum(after["executions"].values()) == (
            sum(before["executions"].values()) + 1
        )

    def test_a_reselected_entry_serves_the_new_variant(self, monkeypatch):
        """Re-selection drops the entry's native record; the next
        call lowers the new variant, and warm calls serve it from then on."""
        from repro.runtime import dispatcher as dispatcher_module

        lowered = []
        compile_plan = dispatcher_module.compile_plan

        def counting(variant, *args, **kwargs):
            lowered.append(variant)
            return compile_plan(variant, *args, **kwargs)

        monkeypatch.setattr(dispatcher_module, "compile_plan", counting)
        first = Dispatcher(self.chain, self.variants).select(self.SIZES)[0]
        other = next(v for v in self.variants if v is not first)

        def calibration(variant, sizes):
            return 1e6 if variant is first else 1e-9

        dispatcher = Dispatcher(
            self.chain,
            self.variants,
            backend="c",
            calibration=calibration,
            reselect_ratio=2.0,
            reselect_min_executions=2,
        )
        outcomes = [dispatcher.run(self.arrays) for _ in range(8)]
        assert [o.variant for o in outcomes] == [first] * 2 + [other] * 6
        assert dispatcher.reselections == 1
        assert lowered == [first, other]
        expected = execute_variant(other, list(self.arrays))
        for outcome in outcomes[2:]:
            np.testing.assert_allclose(
                outcome.result, expected, rtol=1e-12, atol=1e-12
            )
        stats = dispatcher.memo_stats()
        assert stats["hits"] == 7 and stats["misses"] == 1
        assert sum(stats["executions"].values()) == 8

    def test_a_decision_changed_while_lowering_gets_no_stale_record(
        self, monkeypatch
    ):
        """A re-selection that lands while the old variant's plan lowers
        leaves the entry without a native record: the next call lowers and
        serves the new variant, never the old variant's record."""
        from repro.runtime import dispatcher as dispatcher_module

        if not cemit_available():
            pytest.skip("C toolchain or scipy cython capsules unavailable")
        dispatcher = Dispatcher(self.chain, self.variants, backend="c")
        first = dispatcher.select(self.SIZES)[0]
        other = next(v for v in self.variants if v is not first)
        lowered = []
        compile_plan = dispatcher_module.compile_plan

        def reselected_meanwhile(variant, *args, **kwargs):
            lowered.append(variant)
            plan = compile_plan(variant, *args, **kwargs)
            if variant is first:
                with dispatcher._memo_lock:
                    (entry,) = dispatcher._memo.values()
                    entry.reset(other, entry.cost)
            return plan

        monkeypatch.setattr(dispatcher_module, "compile_plan", reselected_meanwhile)
        assert dispatcher.run(self.arrays).variant is first
        outcomes = [dispatcher.run(self.arrays) for _ in range(3)]
        assert [o.variant for o in outcomes] == [other] * 3
        assert lowered == [first, other]
        expected = execute_variant(other, list(self.arrays))
        for outcome in outcomes:
            np.testing.assert_allclose(
                outcome.result, expected, rtol=1e-12, atol=1e-12
            )

    def test_a_dropped_dispatcher_is_collected(self):
        """A memo of native records holds no reference cycle through C: the
        dispatcher dies with its last reference."""
        import gc
        import weakref

        dispatcher = self.warm(backend="c")
        dispatcher.run(self.arrays, out=np.empty((self.SIZES[0], self.SIZES[-1])))
        ref = weakref.ref(dispatcher)
        del dispatcher
        gc.collect()
        assert ref() is None

    def test_int64_operands_at_a_warm_shape(self):
        rng = np.random.default_rng(6)
        ints = [
            rng.integers(-5, 5, size=a.shape, dtype=np.int64) for a in self.arrays
        ]
        floats = [a.astype(np.float64) for a in ints]
        dispatcher = Dispatcher(self.chain, self.variants)
        expected = dispatcher.run(floats).result
        got = dispatcher.run(ints)
        assert got.result.dtype == np.float64
        np.testing.assert_array_equal(got.result, expected)
        assert dispatcher.memo_stats()["hits"] == 1


class TestCallArguments:
    """``Dispatcher.__call__`` (and so ``GeneratedCode.__call__``) reads one
    list or tuple argument as the operand list only when it is one."""

    def test_one_operand_chain_takes_a_nested_list(self):
        from repro.api import compile_chain

        generated = compile_chain(
            "Matrix L <LowerTri, NonSingular>; X := L^-1;"
        )
        lower = [[2.0, 0.0], [1.0, 2.0]]
        expected = np.linalg.inv(np.asarray(lower))
        np.testing.assert_allclose(generated(lower), expected)
        np.testing.assert_allclose(generated([np.asarray(lower)]), expected)

    def test_many_operand_chain_unwraps_the_operand_list(self):
        from repro.api import compile_chain

        generated = compile_chain(
            "Matrix A <General, Singular>; Matrix B <General, Singular>; "
            "X := A * B;"
        )
        a, b = [[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]
        expected = np.asarray(a) @ np.asarray(b)
        np.testing.assert_allclose(generated(a, b), expected)
        np.testing.assert_allclose(generated([a, b]), expected)
        np.testing.assert_allclose(generated((np.asarray(a), np.asarray(b))), expected)
