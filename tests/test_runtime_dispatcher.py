"""Tests for the memoizing runtime dispatcher (repro.runtime.dispatcher)."""

import sys
import threading

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


class TestExecutionLog:
    """Warm-call bookkeeping is batched, yet exact whenever it is read."""

    @staticmethod
    def executed(backend="reference"):
        from repro.obs import get_registry, metric_key

        key = metric_key("runtime.execute_seconds", {"backend": backend})
        histogram = get_registry().snapshot()["histograms"].get(key)
        return histogram["count"] if histogram else 0

    def test_reads_see_every_call(self):
        from repro.obs import get_registry
        from repro.runtime.dispatcher import EXECUTION_LOG_BATCH

        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain), backend="reference")
        arrays = random_instance_arrays(
            chain, (3, 4, 5, 6), np.random.default_rng(3)
        )
        before = self.executed()
        calls = EXECUTION_LOG_BATCH + 3  # one batch fold, then a tail
        for _ in range(calls):
            dispatcher.run(arrays)
        # The registry snapshot folds the tail before reading histograms.
        assert self.executed() == before + calls
        stats = dispatcher.memo_stats()
        assert stats["hits"] == calls - 1 and stats["misses"] == 1
        assert stats["executions"] == {"reference": calls}
        assert stats["last_execute_seconds"] > 0
        runtime = get_registry().snapshot()["scopes"]["runtime"]
        assert runtime["memo_hits"] >= calls - 1

    def test_a_dropped_dispatcher_still_reports_its_calls(self):
        import gc

        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain), backend="reference")
        arrays = random_instance_arrays(
            chain, (3, 4, 5, 6), np.random.default_rng(4)
        )
        before = self.executed()
        for _ in range(3):
            dispatcher.run(arrays)
        del dispatcher
        gc.collect()
        assert self.executed() == before + 3


class TestConcurrency:
    """One dispatcher driven from many threads, with evictions."""

    THREADS = 8
    CALLS = 500
    CAPACITY = 4

    @pytest.mark.parametrize("backend", ["reference", "c"])
    def test_threads_share_one_dispatcher(self, backend):
        if backend == "c" and not cemit_available():
            pytest.skip("C toolchain or scipy cython capsules unavailable")
        rng = np.random.default_rng(21)
        chain = general_chain(3)
        dispatcher = Dispatcher(
            chain,
            all_variants(chain),
            memo_capacity=self.CAPACITY,
            backend=backend,
        )
        sizes = [(m, 9 - m, 7, 2 + m) for m in range(1, 7)]  # 6 shapes
        instances = [random_instance_arrays(chain, q, rng) for q in sizes]
        expected = [naive_evaluate(chain, arrays) for arrays in instances]
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def worker(seed):
            order = np.random.default_rng(seed).integers(len(sizes), size=self.CALLS)
            barrier.wait()
            try:
                for k, i in enumerate(order.tolist()):
                    outcome = dispatcher.run(
                        list(instances[i]), reuse_buffers=bool(k % 2)
                    )
                    assert outcome.sizes == sizes[i]
                    np.testing.assert_allclose(
                        outcome.result, expected[i], rtol=1e-10, atol=1e-10
                    )
            except BaseException as exc:  # reported from the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,), daemon=True)
            for seed in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        calls = self.THREADS * self.CALLS
        stats = dispatcher.memo_stats()
        assert stats["hits"] + stats["misses"] == calls
        assert sum(stats["executions"].values()) == calls
        assert stats["entries"] <= self.CAPACITY
        assert stats["evictions"] > 0


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

    def test_reuse_buffers(self):
        # Arenas pool the intermediates of per-step replays; a native c
        # plan keeps its own.
        dispatcher = self.warm(backend="reference")
        cold = Dispatcher(self.chain, self.variants, backend="reference").run(
            self.arrays
        )
        for _ in range(3):
            self.assert_same_outcome(
                dispatcher.run(self.arrays, reuse_buffers=True), cold
            )
        assert dispatcher.memo_stats()["idle_arenas"] == 1

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
