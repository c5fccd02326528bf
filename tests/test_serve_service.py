"""CompileService: coalescing, queue bounds, correctness, lifecycle."""

import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.compiler.pipeline import CompilerPass, default_pipeline
from repro.compiler.session import CompilerSession
from repro.errors import (
    CompilationError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve import CompileService
from repro.serve.metrics import ServiceMetrics, percentile

from conftest import count_admits, general_chain, make_general, queued_path


def renamed_clone(prefix: str, n: int = 3):
    """A chain structurally identical to ``general_chain(n)``, new names."""
    from repro.ir.chain import Chain

    return Chain(
        tuple(make_general(f"{prefix}{i}").as_operand() for i in range(n))
    )


class GatePass(CompilerPass):
    """A back-pipeline pass that blocks until the test opens the gate."""

    name = "gate"

    def __init__(self, gate: threading.Event):
        self.gate = gate

    def run(self, ctx):
        self.gate.wait(timeout=30)


def gated_session(gate: threading.Event, observer=None) -> CompilerSession:
    """A session whose back pipeline stalls on ``gate`` (after sampling)."""
    return CompilerSession(
        pipeline=default_pipeline(observer).extended(GatePass(gate), after="sample")
    )


class TestCoalescing:
    def test_concurrent_identical_requests_compile_once(self):
        """M threads, same structure: exactly 1 pipeline execution, M results.

        The acceptance criterion of the serve subsystem: enumeration runs
        once (asserted via pass instrumentation), every caller gets a
        correct result rebound to its own matrix names.
        """
        M = 12
        gate = threading.Event()
        enumerations = []

        def observer(compiler_pass, ctx, elapsed):
            if compiler_pass.name == "enumerate" and elapsed is not None:
                enumerations.append(ctx.chain)

        session = gated_session(gate, observer)
        service = CompileService(session, workers=4, warm=False)
        try:
            futures = [
                service.submit(renamed_clone(f"T{i}"), num_training_instances=25)
                for i in range(M)
            ]
            # Wait until every non-leader request has attached to the
            # in-flight leader (the leader is parked on the gate).
            deadline = time.time() + 10
            while service.metrics.coalesced < M - 1:
                assert time.time() < deadline, (
                    f"only {service.metrics.coalesced} of {M - 1} coalesced"
                )
                time.sleep(0.005)
            gate.set()
            results = [future.result(timeout=30) for future in futures]
        finally:
            gate.set()
            service.close()

        assert len(enumerations) == 1  # exactly one pipeline execution
        assert service.metrics.compiled == 1
        assert service.metrics.coalesced == M - 1
        # Every caller got code rebound to its own names, and it computes.
        a, b, c = np.ones((2, 3)), np.ones((3, 4)), np.ones((4, 5))
        for i, generated in enumerate(results):
            assert [m.name for m in generated.chain.matrices] == [
                f"T{i}0", f"T{i}1", f"T{i}2"
            ]
            np.testing.assert_allclose(generated(a, b, c), (a @ b) @ c)

    def test_distinct_structures_do_not_coalesce(self):
        service = CompileService(workers=2, warm=False)
        try:
            futures = [
                service.submit(general_chain(n), num_training_instances=25)
                for n in (3, 4, 5)
            ]
            results = [future.result(timeout=30) for future in futures]
        finally:
            service.close()
        assert [r.chain.n for r in results] == [3, 4, 5]
        assert service.metrics.coalesced == 0
        assert service.metrics.compiled == 3

    def test_sequential_repeat_hits_cache_not_coalescing(self):
        service = CompileService(workers=2, warm=False)
        try:
            first = service.compile(general_chain(3), num_training_instances=25)
            second = service.compile(general_chain(3), num_training_instances=25)
        finally:
            service.close()
        # Nothing in flight on the second call: it is a plain cache hit,
        # counted as such — not as a second pipeline execution.
        assert service.metrics.coalesced == 0
        assert service.metrics.compiled == 1
        assert service.metrics.cache_hits == 1
        assert service.session.cache_stats().hits == 1
        assert [v.signature() for v in first.variants] == [
            v.signature() for v in second.variants
        ]

    def test_results_match_direct_session_compile(self):
        service = CompileService(workers=2, warm=False)
        reference = CompilerSession()
        try:
            chain = general_chain(4)
            served = service.compile(
                chain, num_training_instances=30, expand_by=1
            )
        finally:
            service.close()
        direct = reference.compile(chain, num_training_instances=30, expand_by=1)
        assert [v.signature() for v in served.variants] == [
            v.signature() for v in direct.variants
        ]
        np.testing.assert_array_equal(
            served.training_instances, direct.training_instances
        )

    def test_use_cache_false_requests_are_private(self):
        service = CompileService(workers=2, warm=False)
        try:
            generated = service.compile(
                general_chain(3), num_training_instances=20, use_cache=False
            )
        finally:
            service.close()
        assert len(generated) >= 1
        assert service.session.cache_stats().lookups == 0
        assert service.metrics.compiled == 1


class TestBackpressure:
    def test_full_queue_rejects_with_overload_error(self):
        gate = threading.Event()
        service = CompileService(
            gated_session(gate), workers=1, max_queue=1, warm=False
        )
        try:
            # Leader occupies the worker (parked on the gate); the next
            # distinct structure fills the single queue slot; the third
            # distinct structure must be rejected, not buffered.
            running = service.submit(general_chain(3), num_training_instances=20)
            deadline = time.time() + 10
            while service.metrics.queue_depth() > 0:
                assert time.time() < deadline
                time.sleep(0.005)
            queued = service.submit(general_chain(4), num_training_instances=20)
            rejected = service.submit(general_chain(5), num_training_instances=20)
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                rejected.result(timeout=5)
            assert service.metrics.rejected == 1
            # Coalesced followers ride along without occupying a slot.
            follower = service.submit(
                renamed_clone("F"), num_training_instances=20
            )
            gate.set()
            assert len(running.result(timeout=30)) >= 1
            assert len(queued.result(timeout=30)) >= 1
            assert len(follower.result(timeout=30)) >= 1
        finally:
            gate.set()
            service.close()

    def test_rejected_leader_key_is_retryable(self):
        gate = threading.Event()
        service = CompileService(
            gated_session(gate), workers=1, max_queue=1, warm=False
        )
        try:
            service.submit(general_chain(3), num_training_instances=20)
            deadline = time.time() + 10
            while service.metrics.queue_depth() > 0:
                assert time.time() < deadline
                time.sleep(0.005)
            queued = service.submit(general_chain(4), num_training_instances=20)
            rejected = service.submit(general_chain(5), num_training_instances=20)
            with pytest.raises(ServiceOverloadedError):
                rejected.result(timeout=5)
            gate.set()
            queued.result(timeout=30)  # drain the queue before retrying
            # The rejected structure left no stale in-flight registration:
            # a retry compiles normally.
            retry = service.compile(
                general_chain(5), num_training_instances=20, timeout=30
            )
            assert len(retry) >= 1
        finally:
            gate.set()
            service.close()


class TestErrorsAndLifecycle:
    def test_parse_error_fails_the_future(self):
        service = CompileService(workers=1, warm=False)
        try:
            future = service.submit(object())
            with pytest.raises(CompilationError):
                future.result(timeout=5)
            assert service.metrics.errors == 1
        finally:
            service.close()

    def test_compile_error_propagates_to_all_coalesced_futures(self):
        gate = threading.Event()

        class ExplodingPass(CompilerPass):
            name = "explode"

            def run(self, ctx):
                gate.wait(timeout=30)
                raise RuntimeError("boom in the back pipeline")

        session = CompilerSession(
            pipeline=default_pipeline().extended(ExplodingPass(), after="sample")
        )
        service = CompileService(session, workers=1, warm=False)
        try:
            futures = [
                service.submit(renamed_clone(f"E{i}"), num_training_instances=20)
                for i in range(4)
            ]
            deadline = time.time() + 10
            while service.metrics.coalesced < 3:
                assert time.time() < deadline
                time.sleep(0.005)
            gate.set()
            done, not_done = wait(futures, timeout=30)
            assert not not_done
            for future in futures:
                with pytest.raises(RuntimeError, match="boom"):
                    future.result()
            assert service.metrics.errors == 4
        finally:
            gate.set()
            service.close()

    def test_close_drains_pending_work_then_rejects(self):
        service = CompileService(workers=2, warm=False)
        futures = [
            service.submit(general_chain(n), num_training_instances=20)
            for n in (3, 4)
        ]
        service.close()
        for future in futures:
            assert len(future.result(timeout=5)) >= 1
        late = service.submit(general_chain(5))
        with pytest.raises(ServiceClosedError):
            late.result(timeout=5)
        service.close()  # idempotent

    def test_submit_racing_close_never_hangs_a_future(self):
        """Every future resolves (result or error) even when submits race close.

        A submit that slips past the closed check must still be ordered
        ahead of the worker shutdown sentinels (both happen under the
        service lock), so no request can be parked on an unserviced queue.
        """
        service = CompileService(workers=2, warm=False)
        futures = []
        stop = threading.Event()

        def spam_submits():
            i = 0
            while not stop.is_set() and i < 200:
                futures.append(
                    service.submit(
                        renamed_clone(f"R{i}"), num_training_instances=15
                    )
                )
                i += 1

        submitter = threading.Thread(target=spam_submits)
        submitter.start()
        time.sleep(0.01)  # let some submissions through
        service.close()
        stop.set()
        submitter.join(timeout=30)
        assert not submitter.is_alive()
        done, not_done = wait(futures, timeout=30)
        assert not not_done  # nothing hangs
        outcomes = {"ok": 0, "closed": 0}
        for future in futures:
            if future.exception() is None:
                outcomes["ok"] += 1
            else:
                assert isinstance(future.exception(), ServiceClosedError)
                outcomes["closed"] += 1
        assert sum(outcomes.values()) == len(futures)

    def test_context_manager_closes(self):
        with CompileService(workers=1, warm=False) as service:
            generated = service.compile(
                general_chain(3), num_training_instances=20, timeout=30
            )
        assert len(generated) >= 1
        with pytest.raises(ServiceClosedError):
            service.submit(general_chain(3)).result(timeout=5)

    def test_map_preserves_order(self):
        with CompileService(workers=4, warm=False) as service:
            chains = [general_chain(n) for n in (5, 3, 4)]
            results = service.map(chains, num_training_instances=20, timeout=30)
        assert [r.chain.n for r in results] == [5, 3, 4]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CompileService(max_queue=0, warm=False)
        with pytest.raises(ValueError):
            CompileService(workers=0, warm=False)
        with pytest.raises(ValueError):
            CompileService(registry_capacity=0, warm=False)


class TestDispatchRegistry:
    def test_dispatch_by_handle(self):
        with CompileService(workers=1, warm=False) as service:
            future = service.submit(general_chain(3), num_training_instances=20)
            future.result(timeout=30)
            handle = future.handle
            assert isinstance(handle, str) and handle
            variant, cost = service.dispatch(handle, [10, 20, 5, 30])
            direct, direct_cost = future.result().select([10, 20, 5, 30])
            assert variant.name == direct.name
            assert cost == direct_cost

    def test_unknown_handle_raises_keyerror(self):
        with CompileService(workers=1, warm=False) as service:
            with pytest.raises(KeyError, match="unknown compilation handle"):
                service.dispatch("no-such-handle", [2, 3, 4])

    def test_registry_is_lru_bounded(self):
        with CompileService(
            workers=1, warm=False, registry_capacity=2
        ) as service:
            handles = []
            for n in (3, 4, 5):
                future = service.submit(
                    general_chain(n), num_training_instances=20
                )
                future.result(timeout=30)
                handles.append(future.handle)
            assert service.lookup(handles[0]) is None  # evicted
            assert service.lookup(handles[1]) is not None
            assert service.lookup(handles[2]) is not None

    def test_compile_hit_keeps_the_warm_runtime(self):
        """A repeat compile keeps the handle's dispatcher (and its memo);
        a compile asking for a different runtime replaces it."""
        from repro.runtime import random_instance_arrays

        chain = general_chain(3)
        with CompileService(workers=1, warm=False) as service:
            future = service.submit(chain, num_training_instances=20)
            generated = future.result(timeout=30)
            handle = future.handle
            arrays = random_instance_arrays(
                generated.chain, (3, 4, 5, 6), np.random.default_rng(0)
            )
            service.execute(handle, arrays)  # cold: memo miss
            service.compile(chain, num_training_instances=20, timeout=30)
            dispatcher = service.lookup(handle).dispatcher
            service.execute(handle, arrays)
            assert dispatcher.memo_stats()["hits"] == 1
            service.compile(
                chain, num_training_instances=20, backend="blas", timeout=30
            )
            replaced = service.lookup(handle).dispatcher
            assert replaced is not dispatcher
            assert replaced.backend == "blas"

    def test_uncached_compilations_not_registered(self):
        with CompileService(workers=1, warm=False) as service:
            future = service.submit(
                general_chain(3), num_training_instances=20, use_cache=False
            )
            future.result(timeout=30)
            assert future.handle is None


def count_dispatchers(monkeypatch) -> list:
    """Record every ``Dispatcher`` built from here on."""
    from repro.runtime.dispatcher import Dispatcher

    built: list = []
    original = Dispatcher.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Dispatcher, "__init__", counting)
    return built


def signatures(generated) -> list:
    return [variant.signature() for variant in generated.variants]


class TestRegistryHit:
    """A compile whose key is registered resolves on the caller thread."""

    def test_repeat_compile_skips_queue_worker_and_rebind(self, monkeypatch):
        chain = general_chain(3)
        with CompileService(workers=1, warm=False) as service:
            first = service.submit(chain, num_training_instances=20)
            first.result(timeout=30)
            admitted = count_admits(service, monkeypatch)
            built = count_dispatchers(monkeypatch)
            hits = service.session.cache_stats().hits
            future = service.submit(chain, num_training_instances=20)
            # Resolved before submit returned: no worker was involved.
            assert future.done()
            assert future.handle == first.handle
            generated = future.result()
            assert generated is service.lookup(first.handle)
            assert admitted == [] and built == []
            assert service.metrics.cache_hits == 1
            assert service.metrics.snapshot()["latency_samples"] == 2
            assert service.session.cache_stats().hits == hits + 1
            queued_path(service, monkeypatch)
            queued = service.submit(chain, num_training_instances=20)
            assert queued.result(timeout=30) is not generated
            assert len(admitted) == 1
        assert queued.handle == future.handle
        assert queued.result().chain == generated.chain
        assert signatures(queued.result()) == signatures(generated)

    def test_renamed_operands_take_the_queue_and_keep_their_names(
        self, monkeypatch
    ):
        with CompileService(workers=1, warm=False) as service:
            original = service.compile(
                general_chain(3), num_training_instances=20, timeout=30
            )
            admitted = count_admits(service, monkeypatch)
            renamed = renamed_clone("X")
            future = service.submit(renamed, num_training_instances=20)
            generated = future.result(timeout=30)
            assert len(admitted) == 1
            assert generated.chain == renamed
            # The registry keeps the warm entry under its own names.
            assert service.lookup(future.handle) is original
        assert signatures(generated) == signatures(original)

    def test_other_backend_replaces_then_hits_its_own_entry(self, monkeypatch):
        chain = general_chain(3)
        with CompileService(workers=1, warm=False) as service:
            future = service.submit(chain, num_training_instances=20)
            future.result(timeout=30)
            admitted = count_admits(service, monkeypatch)
            blas = service.compile(
                chain, num_training_instances=20, backend="blas", timeout=30
            )
            assert len(admitted) == 1
            assert service.lookup(future.handle) is blas
            assert blas.dispatcher.backend == "blas"
            again = service.compile(
                chain, num_training_instances=20, backend="blas", timeout=30
            )
            assert again is blas and len(admitted) == 1
            default = service.compile(chain, num_training_instances=20, timeout=30)
            assert len(admitted) == 2
            assert service.lookup(future.handle) is default

    def test_evicted_handle_takes_the_queue(self, monkeypatch):
        with CompileService(workers=1, warm=False, registry_capacity=1) as service:
            first = service.submit(general_chain(3), num_training_instances=20)
            first.result(timeout=30)
            service.compile(general_chain(4), num_training_instances=20, timeout=30)
            assert service.lookup(first.handle) is None
            admitted = count_admits(service, monkeypatch)
            again = service.submit(general_chain(3), num_training_instances=20)
            generated = again.result(timeout=30)
            assert len(admitted) == 1
            assert again.handle == first.handle
            assert service.lookup(again.handle) is generated

    def test_session_cache_eviction_takes_the_queue(self, monkeypatch):
        chain = general_chain(3)
        with CompileService(workers=1, warm=False) as service:
            future = service.submit(chain, num_training_instances=20)
            registered = future.result(timeout=30)
            service.session.clear_cache()
            admitted = count_admits(service, monkeypatch)
            service.compile(chain, num_training_instances=20, timeout=30)
            assert len(admitted) == 1
            assert service.metrics.compiled == 2
            # Same runtime: the warm registered entry is kept.
            assert service.lookup(future.handle) is registered

    def test_reassigned_pipeline_gives_a_fresh_handle(self, monkeypatch):
        chain = general_chain(3)
        with CompileService(workers=1, warm=False) as service:
            before = service.submit(chain, num_training_instances=20)
            before.result(timeout=30)
            service.session.pipeline = service.session.pipeline.without("expand")
            admitted = count_admits(service, monkeypatch)
            after = service.submit(chain, num_training_instances=20)
            generated = after.result(timeout=30)
            assert len(admitted) == 1
            assert after.handle != before.handle
            assert service.lookup(after.handle) is generated

    def test_uncached_compile_takes_the_queue(self, monkeypatch):
        chain = general_chain(3)
        with CompileService(workers=1, warm=False) as service:
            service.compile(chain, num_training_instances=20, timeout=30)
            admitted = count_admits(service, monkeypatch)
            future = service.submit(
                chain, num_training_instances=20, use_cache=False
            )
            future.result(timeout=30)
            assert len(admitted) == 1 and future.handle is None

    def test_in_flight_key_is_followed_not_answered(self):
        """A registered key whose recompile is in flight (here: for
        another backend) coalesces later requests onto that compile."""
        gate = threading.Event()
        gate.set()
        chain = general_chain(3)
        with CompileService(gated_session(gate), workers=1, warm=False) as service:
            service.compile(chain, num_training_instances=20, timeout=30)
            gate.clear()
            blas = service.submit(chain, num_training_instances=20, backend="blas")
            follower = service.submit(chain, num_training_instances=20)
            assert not follower.done()
            assert service.metrics.coalesced == 1
            gate.set()
            blas.result(timeout=30)
            follower.result(timeout=30)

    def test_registry_hit_emits_one_annotated_request_span(self):
        from repro.obs import trace as obs_trace

        chain = general_chain(3)
        with CompileService(workers=1, warm=False) as service:
            service.compile(chain, num_training_instances=20, timeout=30)
            obs_trace.enable()
            try:
                with obs_trace.capture() as spans:
                    service.compile(chain, num_training_instances=20, timeout=30)
            finally:
                obs_trace.disable()
        requests = [span for span in spans if span.name == "serve.request"]
        assert len(requests) == 1
        assert requests[0].attributes["registry_hit"] is True

    def test_submit_registered_never_queues(self, monkeypatch):
        chain = general_chain(3)
        with CompileService(workers=1, warm=False) as service:
            admitted = count_admits(service, monkeypatch)
            assert service.submit_registered(chain, num_training_instances=20) is None
            assert admitted == [] and service.metrics.requests == 0
            future = service.submit(chain, num_training_instances=20)
            future.result(timeout=30)
            hit = service.submit_registered(chain, num_training_instances=20)
            assert hit.done() and hit.handle == future.handle
            assert hit.result() is service.lookup(future.handle)
            assert service.metrics.requests == 2
            assert len(admitted) == 1


class TestMetrics:
    def test_percentile_edge_cases(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_snapshot_shape_and_rates(self):
        metrics = ServiceMetrics()
        for _ in range(4):
            metrics.record_request()
        metrics.record_compiled()
        metrics.record_coalesced()
        metrics.record_coalesced()
        metrics.record_rejected()
        metrics.record_latency(0.010)
        metrics.record_latency(0.020)
        snap = metrics.snapshot()
        assert snap["requests"] == 4
        assert snap["coalesced"] == 2
        assert snap["coalesce_rate"] == pytest.approx(2 / 3, abs=1e-3)
        assert snap["p50_ms"] == pytest.approx(10.0)
        assert snap["latency_samples"] == 2
        assert "queue_depth" in snap
        text = str(metrics)
        assert "coalesce_rate" in text and "p99" in text

    def test_service_stats_include_cache_and_registry(self):
        with CompileService(workers=1, warm=False) as service:
            service.compile(general_chain(3), num_training_instances=20, timeout=30)
            stats = service.stats()
        assert stats["service"]["requests"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["registry_entries"] == 1
        assert stats["workers"] == 1
        assert stats["inflight"] == 0


def counting_observer(enumerations):
    """Observer appending one entry per executed enumerate pass."""

    def observer(compiler_pass, ctx, elapsed):
        if compiler_pass.name == "enumerate" and elapsed is not None:
            enumerations.append(ctx.chain)

    return observer


class TestCompileMany:
    def test_duplicates_compile_once_in_order(self):
        enumerations = []
        session = CompilerSession(
            pipeline=default_pipeline(counting_observer(enumerations))
        )
        with CompileService(session, workers=2, warm=False) as service:
            chains = [renamed_clone(f"B{i}", 4) for i in range(8)]
            results = service.compile_many(
                chains, num_training_instances=25, timeout=60
            )
        assert len(enumerations) == 1
        assert [
            [m.name for m in generated.chain.matrices] for generated in results
        ] == [[f"B{i}{j}" for j in range(4)] for i in range(8)]
        sigs = {
            tuple(v.signature() for v in generated.variants)
            for generated in results
        }
        assert len(sigs) == 1  # every caller got the same compilation

    def test_batch_of_duplicates_needs_one_queue_slot(self):
        # max_queue=1: a naive per-request path could only hold one
        # compilation; the grouped batch admits 6 duplicates as one record.
        gate = threading.Event()
        session = gated_session(gate)
        service = CompileService(session, workers=1, max_queue=1, warm=False)
        try:
            futures = service.submit_many(
                [renamed_clone(f"Q{i}", 3) for i in range(6)],
                num_training_instances=20,
            )
            gate.set()
            results = [future.result(timeout=30) for future in futures]
            assert len(results) == 6
            assert service.metrics.coalesced == 5
        finally:
            gate.set()
            service.close()

    def test_private_batches_group_too(self):
        # use_cache=False per-request means N private pipeline runs; the
        # explicit batch is one caller's unit, so duplicates still group.
        enumerations = []
        session = CompilerSession(
            pipeline=default_pipeline(counting_observer(enumerations))
        )
        with CompileService(session, workers=2, warm=False) as service:
            results = service.compile_many(
                [renamed_clone(f"P{i}", 3) for i in range(5)],
                num_training_instances=20,
                use_cache=False,
                timeout=60,
            )
        assert len(enumerations) == 1
        assert len(results) == 5
        assert session.cache_stats().lookups == 0  # genuinely private

    def test_mixed_batch_compiles_each_structure_once(self):
        enumerations = []
        session = CompilerSession(
            pipeline=default_pipeline(counting_observer(enumerations))
        )
        with CompileService(session, workers=2, warm=False) as service:
            chains = [
                renamed_clone("A0", 3),
                renamed_clone("B0", 4),
                renamed_clone("A1", 3),
                renamed_clone("B1", 4),
                renamed_clone("A2", 3),
            ]
            results = service.compile_many(
                chains, num_training_instances=20, timeout=60
            )
        assert len(enumerations) == 2  # one per distinct structure
        assert [generated.chain.n for generated in results] == [3, 4, 3, 4, 3]

    def test_parse_error_fails_only_its_future(self):
        with CompileService(workers=1, warm=False) as service:
            futures = service.submit_many(
                [renamed_clone("G0", 3), "this is not a program", renamed_clone("G1", 3)],
                num_training_instances=20,
            )
            assert futures[0].result(timeout=30) is not None
            with pytest.raises(Exception):
                futures[1].result(timeout=30)
            assert futures[2].result(timeout=30) is not None
            assert service.metrics.errors == 1

    def test_batch_attaches_to_inflight_leader(self):
        # A batch whose structure is already compiling rides the in-flight
        # record: zero new queue slots, one total pipeline run.
        enumerations = []
        gate = threading.Event()
        session = gated_session(gate, counting_observer(enumerations))
        service = CompileService(session, workers=1, warm=False)
        try:
            leader = service.submit(
                renamed_clone("L0", 3), num_training_instances=20
            )
            assert service._inflight  # registered synchronously by submit
            futures = service.submit_many(
                [renamed_clone(f"F{i}", 3) for i in range(4)],
                num_training_instances=20,
            )
            gate.set()
            assert leader.result(timeout=30) is not None
            for future in futures:
                assert future.result(timeout=30) is not None
            assert len(enumerations) == 1
            assert service.metrics.coalesced == 4
        finally:
            gate.set()
            service.close()

    def test_closed_service_fails_batch(self):
        service = CompileService(workers=1, warm=False)
        service.close()
        futures = service.submit_many(
            [renamed_clone("C0", 3)], num_training_instances=20
        )
        with pytest.raises(ServiceClosedError):
            futures[0].result(timeout=5)

    def test_handles_registered_for_batch(self):
        with CompileService(workers=2, warm=False) as service:
            results = service.compile_many(
                [renamed_clone("H0", 3), renamed_clone("H1", 3)],
                num_training_instances=20,
                timeout=60,
            )
            futures = service.submit_many(
                [renamed_clone("H2", 3)], num_training_instances=20
            )
            futures[0].result(timeout=30)
            handle = futures[0].handle
            assert handle is not None
            assert service.lookup(handle) is not None

    def test_empty_batch(self):
        with CompileService(workers=1, warm=False) as service:
            assert service.compile_many([]) == []

    def test_closed_service_skips_batch_preparation(self):
        service = CompileService(workers=1, warm=False)
        service.close()
        # prepare() would raise on this junk source; the closed fast path
        # must fail the futures without ever parsing.
        futures = service.submit_many(["not a program at all"] * 3)
        for future in futures:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=5)
        assert service.metrics.errors == 0  # closed, not parse-errored
