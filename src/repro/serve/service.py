"""The concurrent compilation service: queue + worker pool + coalescing.

The paper's model (Fig. 1) is a code generator invoked once per chain
*shape* with run-time dispatch per instance — exactly the shape of a
long-lived service that compiles on demand and answers many callers.
:class:`CompileService` turns a :class:`~repro.compiler.session.CompilerSession`
into that service:

* ``submit`` runs the cheap front half of compilation (parse + simplify +
  structural key, :meth:`CompilerSession.prepare`) inline on the caller
  thread and returns a :class:`~concurrent.futures.Future`;
  ``submit_many``/``compile_many`` do the same for a batch, grouping
  structurally identical requests *before* enqueueing so a batch of N
  duplicates costs one queue slot and one pipeline run;
* a **bounded** request queue feeds a pool of worker threads that run the
  expensive back half (:meth:`CompilerSession.finish`); a full queue fails
  the future with :class:`~repro.errors.ServiceOverloadedError` instead of
  buffering unboundedly (back-pressure, not latency collapse);
* with ``workers_mode="process"``, the worker threads delegate the
  CPU-bound pipeline to a process pool and receive the result as a
  serialized :class:`~repro.compiler.program.CompiledProgram` artifact
  over the pipe (:mod:`repro.serve.procpool`), sidestepping the GIL on
  workloads of *distinct* structures; coalescing, the bounded queue, and
  the session cache work identically in both modes (the artifact is
  rebound to each caller's chain in-parent, exactly like a cache hit);
* requests are **coalesced** on their compilation key (the
  :mod:`repro.ir.structural` structural key + options + pipeline
  fingerprint): while a compilation for a key is in flight, further
  requests for the same key attach to it as *followers* and are answered
  by rebinding the leader's result to their own chain — N concurrent
  requests for structurally identical chains trigger exactly one pipeline
  execution and N rebinds.

Completed compilations are kept in a bounded handle registry so the
JSON-lines front end (:mod:`repro.serve.frontend`) can answer ``dispatch``
requests (size vector -> chosen variant) without recompiling.  The
registry also answers repeat compiles: a request whose key is registered
under the same chain and runtime resolves on the caller thread
(:meth:`CompileService.submit_registered`), with no queue or worker hop.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import ServiceClosedError, ServiceOverloadedError
from repro.runtime.dispatcher import CostEstimator
from repro.compiler.pipeline import PassContext
from repro.compiler.session import CompilerSession
from repro.obs import get_registry
from repro.obs import trace as obs_trace
from repro.serve.metrics import ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import GeneratedCode


def default_worker_count() -> int:
    """Worker-pool default: enough to overlap compilations, bounded."""
    return max(2, min(8, (os.cpu_count() or 2)))


@dataclass
class _Request:
    """One submitted compilation: its prepared context and its future."""

    ctx: PassContext
    future: Future
    submitted: float  # perf_counter timestamp, for latency metrics


@dataclass
class _Inflight:
    """A queued compilation: the leader plus coalesced followers."""

    key: str
    leader: _Request
    followers: list[_Request] = field(default_factory=list)
    use_cache: bool = True


_SHUTDOWN = object()


class CompileService:
    """A thread-safe compile server over one :class:`CompilerSession`.

    Parameters
    ----------
    session:
        The session to compile in (its cache, pipeline, and option
        defaults).  A fresh one is created when omitted.
    workers:
        Worker-thread count (defaults to :func:`default_worker_count`).
        In process mode this is also the process-pool size.
    workers_mode:
        ``"thread"`` (default): compilations run on the worker threads.
        ``"process"``: worker threads delegate cache-missing compilations
        to a process pool and ship the artifacts back over pipes
        (:mod:`repro.serve.procpool`) — the GIL-free mode for heavy
        fan-out over distinct structures.
    mp_context:
        Multiprocessing start method for process mode (default
        ``"spawn"``: slower startup, but safe with the service's own
        threads; see :meth:`prestart`).
    max_queue:
        Bound on *distinct* queued compilations.  Coalesced followers ride
        along with their leader and never occupy a slot, so the bound
        limits compile work, not client count.
    warm:
        Preload the session's cache backend into the in-memory LRU on
        startup (:meth:`CompilerSession.warm`); the count is reported in
        :meth:`stats` as ``warmed``.
    registry_capacity:
        How many completed compilations to keep addressable by handle for
        ``dispatch`` requests (LRU-bounded).
    """

    def __init__(
        self,
        session: Optional[CompilerSession] = None,
        *,
        workers: Optional[int] = None,
        workers_mode: str = "thread",
        mp_context: str = "spawn",
        max_queue: int = 256,
        warm: bool = True,
        registry_capacity: int = 256,
        metrics: Optional[ServiceMetrics] = None,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if registry_capacity < 1:
            raise ValueError("registry_capacity must be >= 1")
        if workers_mode not in ("thread", "process"):
            raise ValueError(
                f"workers_mode must be 'thread' or 'process', got {workers_mode!r}"
            )
        self.session = session if session is not None else CompilerSession(cache_capacity=256)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.warmed = self.session.warm() if warm else 0
        self.workers_mode = workers_mode
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self.metrics.queue_depth_probe = self._queue.qsize
        self._lock = threading.Lock()
        self._inflight: dict[str, _Inflight] = {}
        self._registry: OrderedDict[str, "GeneratedCode"] = OrderedDict()
        self._registry_capacity = registry_capacity
        self._closed = False
        count = workers if workers is not None else default_worker_count()
        if count < 1:
            raise ValueError("workers must be >= 1")
        self._pool = None
        self._pool_size = 0
        self._default_fingerprint: Optional[str] = None
        if workers_mode == "process":
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            from repro.serve import procpool

            self._pool = ProcessPoolExecutor(
                max_workers=count,
                mp_context=multiprocessing.get_context(mp_context),
                # Every worker imports the compiler stack as it boots, so
                # warm-up does not depend on which worker drains which job.
                initializer=procpool.initialize_worker,
            )
            self._pool_size = count
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(count)
        ]
        for worker in self._workers:
            worker.start()

    def prestart(self) -> None:
        """Spin the process pool's workers up before serving traffic.

        Spawn-mode workers boot lazily (interpreter + numpy + repro
        imports via the pool initializer, ~seconds); a long-lived service
        calls this once at startup so the first compilations are not
        taxed.  Submitting one trivial job per slot forces every worker
        to spawn; the imports happen in each worker's initializer
        regardless of who drains the jobs.  No-op in thread mode.
        """
        if self._pool is None:
            return
        from repro.serve import procpool

        futures = [
            self._pool.submit(procpool.warmup_job)
            for _ in range(self._pool_size)
        ]
        for future in futures:
            future.result()

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        chain,
        *,
        training_instances: Optional[np.ndarray] = None,
        cost_estimator: Optional[CostEstimator] = None,
        use_cache: bool = True,
        **overrides,
    ) -> Future:
        """Queue one compilation; returns a future of ``GeneratedCode``.

        The keyword knobs match :meth:`CompilerSession.compile`.  The
        future fails with :class:`ServiceOverloadedError` when the bounded
        queue is full and with the original compilation error otherwise;
        parse/validation errors surface through the future too, so callers
        handle one failure channel.

        A compilation already registered under the same chain and runtime
        resolves on the caller thread (see :meth:`submit_registered`): the
        future holds the registered ``GeneratedCode``, with no queue slot,
        no worker hop and no rebind.  ``use_cache=False`` and requests for
        a key already in flight take the queue.
        """
        future: Future = Future()
        self.metrics.record_request()
        if self._closed:  # fast path; the authoritative check is under _lock
            self._fail(future, ServiceClosedError("service is closed"))
            return future
        try:
            ctx, key = self.session.prepare(
                chain,
                training_instances=training_instances,
                cost_estimator=cost_estimator,
                **overrides,
            )
        except Exception as exc:
            self.metrics.record_error()
            self._fail(future, exc)
            return future
        # The registry address of this compilation, for later `dispatch`
        # requests (None for private, uncached compilations).
        future.handle = key if use_cache else None  # type: ignore[attr-defined]
        if use_cache and self._answer_registered(future, ctx, key):
            return future
        request = _Request(ctx=ctx, future=future, submitted=time.perf_counter())
        if not use_cache:
            # Uncacheable requests cannot be coalesced (each caller asked
            # for a private compilation); they still share the queue bound.
            record = _Inflight(key="", leader=request, use_cache=False)
            with self._lock:
                outcome = self._admit(record)
        else:
            with self._lock:
                # Re-check closed under the lock: close() flips the flag
                # under this same lock *before* enqueueing the worker
                # shutdown sentinels, so anything admitted here is ordered
                # ahead of the sentinels and is guaranteed to be drained —
                # no future can be parked on an unserviced queue.
                if self._closed:
                    outcome = "closed"
                else:
                    inflight = self._inflight.get(key)
                    if inflight is not None:
                        inflight.followers.append(request)
                        self.metrics.record_coalesced()
                        return future
                    record = _Inflight(key=key, leader=request)
                    outcome = self._admit(record)
                    if outcome == "ok":
                        self._inflight[key] = record
        if outcome == "closed":
            self._fail(future, ServiceClosedError("service is closed"))
        elif outcome == "full":
            self.metrics.record_rejected()
            self._fail(
                future,
                ServiceOverloadedError(
                    f"compile queue is full ({self._queue.maxsize} pending)"
                ),
            )
        return future

    def submit_registered(
        self,
        chain,
        *,
        training_instances: Optional[np.ndarray] = None,
        cost_estimator: Optional[CostEstimator] = None,
        use_cache: bool = True,
        **overrides,
    ) -> Optional[Future]:
        """:meth:`submit`, answered from the handle registry or not at all.

        Returns the resolved future :meth:`submit` would return for a
        registered compilation, or ``None`` — with nothing queued and
        nothing counted — when ``submit`` would take the queue (not
        registered, in flight, a different chain or runtime, evicted from
        the session cache, ``use_cache=False``, a preparation error, a
        closed service).  It never waits on a worker, so the asyncio front
        end calls it on its event loop.
        """
        if self._closed or not use_cache:
            return None
        try:
            ctx, key = self.session.prepare(
                chain,
                training_instances=training_instances,
                cost_estimator=cost_estimator,
                **overrides,
            )
        except Exception:
            return None
        future: Future = Future()
        future.handle = key  # type: ignore[attr-defined]
        if not self._answer_registered(future, ctx, key):
            return None
        self.metrics.record_request()
        return future

    def compile(self, chain, *, timeout: Optional[float] = None, **overrides):
        """Synchronous convenience: ``submit(...).result(timeout)``."""
        return self.submit(chain, **overrides).result(timeout=timeout)

    def map(self, chains: Sequence, *, timeout: Optional[float] = None, **overrides) -> list:
        """Submit a batch and wait; results match the input order."""
        futures = [self.submit(chain, **overrides) for chain in chains]
        return [future.result(timeout=timeout) for future in futures]

    def submit_many(
        self,
        chains: Sequence,
        *,
        training_instances: Optional[np.ndarray] = None,
        cost_estimator: Optional[CostEstimator] = None,
        use_cache: bool = True,
        **overrides,
    ) -> list[Future]:
        """Queue a batch, grouped by structural identity *before* enqueueing.

        All chains are prepared inline, grouped on their compilation key,
        and each group is admitted as one queue record — N structurally
        identical requests cost one queue slot and one pipeline execution,
        with the other N - 1 attached as coalesced followers up front.
        Unlike per-request :meth:`submit`, grouping holds even with
        ``use_cache=False`` (the batch is one caller's explicit unit, so
        duplicates share the private compilation) and even when a leader
        finishes before the batch is fully submitted.  Futures match the
        input order; a chain that fails to parse fails only its own future.
        A batch never answers from the handle registry: every result is
        rebound for its own request (the ``compile`` op's ``artifact``
        relies on this to ship the request's own provenance).
        """
        futures: list[Future] = [Future() for _ in chains]
        # Fast path, as in submit(): skip the per-chain front-half work when
        # already closed (the authoritative re-check runs under _lock below).
        if self._closed:
            for future in futures:
                self.metrics.record_request()
                self._fail(future, ServiceClosedError("service is closed"))
            return futures
        prepared: list[Optional[tuple[PassContext, str]]] = []
        for chain, future in zip(chains, futures):
            self.metrics.record_request()
            try:
                prepared.append(
                    self.session.prepare(
                        chain,
                        training_instances=training_instances,
                        cost_estimator=cost_estimator,
                        **overrides,
                    )
                )
            except Exception as exc:
                self.metrics.record_error()
                self._fail(future, exc)
                prepared.append(None)

        groups: dict[str, list[int]] = {}
        for index, prep in enumerate(prepared):
            if prep is not None:
                groups.setdefault(prep[1], []).append(index)

        for key, indices in groups.items():
            now = time.perf_counter()
            requests = [
                _Request(
                    ctx=prepared[i][0], future=futures[i], submitted=now
                )
                for i in indices
            ]
            for i in indices:
                futures[i].handle = key if use_cache else None  # type: ignore[attr-defined]
            outcome = "ok"
            with self._lock:
                if self._closed:
                    outcome = "closed"
                else:
                    inflight = (
                        self._inflight.get(key) if use_cache else None
                    )
                    if inflight is not None:
                        # The whole group rides an already in-flight
                        # compilation for this key: zero queue slots.
                        inflight.followers.extend(requests)
                        for _ in requests:
                            self.metrics.record_coalesced()
                        continue
                    record = _Inflight(
                        key=key if use_cache else "",
                        leader=requests[0],
                        followers=requests[1:],
                        use_cache=use_cache,
                    )
                    outcome = self._admit(record)
                    if outcome == "ok":
                        if use_cache:
                            self._inflight[key] = record
                        for _ in requests[1:]:
                            self.metrics.record_coalesced()
            if outcome == "closed":
                for request in requests:
                    self._fail(
                        request.future, ServiceClosedError("service is closed")
                    )
            elif outcome == "full":
                for request in requests:
                    self.metrics.record_rejected()
                    self._fail(
                        request.future,
                        ServiceOverloadedError(
                            f"compile queue is full ({self._queue.maxsize} pending)"
                        ),
                    )
        return futures

    def compile_many(
        self, chains: Sequence, *, timeout: Optional[float] = None, **overrides
    ) -> list:
        """Batch :meth:`compile`: coalescing-aware submission, then wait.

        ``submit_many`` groups structurally identical chains before they
        touch the bounded queue; results match the input order.
        """
        futures = self.submit_many(chains, **overrides)
        return [future.result(timeout=timeout) for future in futures]

    # -- dispatch registry ---------------------------------------------------

    def lookup(self, handle: str) -> Optional["GeneratedCode"]:
        """The completed compilation registered under ``handle``, if any."""
        with self._lock:
            generated = self._registry.get(handle)
            if generated is not None:
                self._registry.move_to_end(handle)
            return generated

    def dispatch(self, handle: str, sizes: Sequence[int]):
        """Select the best variant for an instance of a compiled handle.

        Returns ``(variant, cost)``; raises :class:`KeyError` for an
        unknown (or registry-evicted) handle.  The registry keeps one
        live :class:`~repro.runtime.Dispatcher` per handle, so repeated
        dispatches of the same sizes answer from its memo without a cost
        sweep.
        """
        generated = self._require(handle)
        return generated.select(sizes)

    def execute(self, handle: str, arrays: Sequence[np.ndarray]):
        """Dispatch *and run* one instance against a compiled handle.

        Returns a :class:`~repro.runtime.DispatchOutcome` (sizes, variant,
        cost, result).  Sizes are inferred — and shapes thereby validated —
        exactly once; a warm handle replays its memoized execution plan.
        The result is a fresh array the caller owns: on the default ``c``
        backend the fused native call allocates it once and manages its
        own intermediates.
        Raises :class:`KeyError` for an unknown handle.
        """
        generated = self._require(handle)
        return generated.dispatcher.run(arrays)

    def _require(self, handle: str) -> "GeneratedCode":
        generated = self.lookup(handle)
        if generated is None:
            raise KeyError(f"unknown compilation handle {handle!r}")
        return generated

    # -- lifecycle -----------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Service metrics + session cache counters, JSON-ready.

        The ``obs`` key is the process-wide :mod:`repro.obs` registry
        snapshot — service counters (this service's scope plus any other
        live services), cache tier hit/miss, pipeline pass timings, memo
        stats, and per-kernel execution histograms — so one ``stats`` op
        answers for every layer.
        """
        with self._lock:
            registry_entries = len(self._registry)
            inflight = len(self._inflight)
            dispatchers = [
                generated.dispatcher for generated in self._registry.values()
            ]
        # Aggregate per-backend execution counts over the live registry:
        # how many instances each concrete backend actually ran (a ``c``
        # plan that fell back runs as ``blas``), plus the most recent
        # replay wall time across all handles.
        executions: dict[str, int] = {}
        last_execute_seconds: Optional[float] = None
        last_execute_at: Optional[float] = None
        for dispatcher in dispatchers:
            memo = dispatcher.memo_stats()
            for name, count in memo["executions"].items():
                executions[name] = executions.get(name, 0) + count
            stamp = dispatcher.last_execute_at
            if stamp is not None and (
                last_execute_at is None or stamp > last_execute_at
            ):
                last_execute_at = stamp
                last_execute_seconds = memo["last_execute_seconds"]
        stats: dict[str, object] = {
            "service": self.metrics.snapshot(),
            "cache": self.session.cache_stats().as_dict(),
            "warmed": self.warmed,
            "workers": len(self._workers),
            "workers_mode": self.workers_mode,
            "inflight": inflight,
            "registry_entries": registry_entries,
            "execution": {
                "backend": self.session.options.backend,
                "executions": executions,
                "last_execute_seconds": last_execute_seconds,
            },
            "obs": get_registry().snapshot(),
        }
        last = self.session.last_context
        if last is not None and (last.timings or last.diagnostics):
            stats["last_compile"] = {
                "timings_ms": {
                    name: round(1e3 * seconds, 3)
                    for name, seconds in last.timings.items()
                },
                **(
                    {"variant_pool": last.diagnostics.get("variant_pool")}
                    if last.diagnostics.get("variant_pool")
                    else {}
                ),
            }
        return stats

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; drain the queue; join the workers.

        Already-queued compilations complete (their futures resolve);
        subsequent ``submit`` calls fail with :class:`ServiceClosedError`.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                workers: list[threading.Thread] = []
            else:
                # Setting the flag under the submit lock, before the
                # sentinels go in, guarantees every admitted record
                # precedes the sentinels in the queue (see submit()).
                self._closed = True
                workers = list(self._workers)
        for _ in workers:
            self._queue.put(_SHUTDOWN)  # blocks until a slot frees: workers drain
        if wait:
            for worker in workers:
                worker.join()
        if workers and self._pool is not None:
            # The pool may only shut down once every worker thread has
            # exited — already-queued compilations must complete (the
            # contract above), and they need the pool.  With wait=False
            # the sequencing happens on a reaper thread.
            pool = self._pool

            def _drain_then_shutdown() -> None:
                for worker in workers:
                    worker.join()
                pool.shutdown(wait=True)

            if wait:
                _drain_then_shutdown()  # workers already joined: no-op joins
            else:
                threading.Thread(
                    target=_drain_then_shutdown,
                    name="repro-serve-pool-reaper",
                    daemon=True,
                ).start()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker internals ----------------------------------------------------

    def _admit(self, record: _Inflight) -> str:
        """Enqueue under the caller-held lock: 'ok' | 'full' | 'closed'."""
        if self._closed:
            return "closed"
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            return "full"
        return "ok"

    def _worker_loop(self) -> None:
        while True:
            record = self._queue.get()
            try:
                if record is _SHUTDOWN:
                    return
                self._process(record)
            finally:
                self._queue.task_done()

    def _offload_to_pool(self) -> bool:
        """Whether this service may delegate compiles to the process pool.

        The pool workers run the *default* pass pipeline; a session whose
        pipeline was customized (passes removed/swapped/spliced, or a
        pinned variant space) must compile in-parent, otherwise the worker
        would produce a different-pipeline artifact and cache it under the
        custom pipeline's key.  Checked per compile because the session's
        pipeline can be reassigned after service construction.
        """
        if self._pool is None:
            return False
        from repro.compiler.pipeline import default_pipeline

        if self._default_fingerprint is None:
            self._default_fingerprint = default_pipeline().fingerprint()
        return self.session.pipeline.fingerprint() == self._default_fingerprint

    def _compile_leader(self, record: _Inflight) -> tuple["GeneratedCode", bool]:
        """Finish the leader's compilation; returns (result, pipeline_ran).

        Thread mode (and process mode under a customized session pipeline)
        runs the back pipeline in-place on this worker thread.  Process
        mode first consults the session cache in-parent, then delegates a
        miss to the process pool as a wire-level request and rebinds the
        returned artifact exactly as a cache hit would be — so followers,
        the registry, and custom cost estimators behave identically in
        both modes.
        """
        leader, use_cache = record.leader, record.use_cache
        if not self._offload_to_pool():
            generated = self.session.finish(
                leader.ctx, record.key, use_cache=use_cache
            )
            return generated, not leader.ctx.cache_hit
        entry = self.session.cache.get(record.key) if use_cache else None
        compiled = False
        if entry is None:
            from repro.compiler.program import CompiledProgram
            from repro.serve import procpool

            request = procpool.encode_request(leader.ctx, use_cache=use_cache)
            trace_context = obs_trace.current_context()
            if trace_context is not None:
                # Ship the trace identity across the process boundary; the
                # worker answers with its spans, re-emitted here so the
                # whole compile is one trace.
                request["trace"] = trace_context
            response = self._pool.submit(procpool.compile_job, request).result()
            if isinstance(response, dict):
                wire = response["artifact"]
                obs_trace.ingest(response.get("spans", []))
            else:  # untraced requests keep the plain wire-string protocol
                wire = response
            entry = CompiledProgram.loads(wire)
            compiled = True
            if use_cache:
                self.session.cache.put(record.key, entry)
            # Surface the worker's instrumentation on the parent context:
            # the rebind below runs as a cache hit, and without this the
            # artifact/stats would claim a pipeline-free compilation.
            leader.ctx.timings.update(entry.timings)
            leader.ctx.diagnostics.update(entry.diagnostics)
        generated = self.session.finish(
            leader.ctx, record.key, use_cache=use_cache, entry=entry
        )
        return generated, compiled

    def _process(self, record: _Inflight) -> None:
        with obs_trace.span("serve.request", key=record.key) as request_span:
            request_span.annotate(mode=self.workers_mode)
            self._process_record(record)

    def _process_record(self, record: _Inflight) -> None:
        use_cache = record.use_cache
        leader = record.leader
        try:
            generated, pipeline_ran = self._compile_leader(record)
        except Exception as exc:
            followers = self._finalize(record)
            self.metrics.record_error()
            self._fail(leader.future, exc)
            for follower in followers:
                self.metrics.record_error()
                self._fail(follower.future, exc)
            return
        # De-register *before* completing: once the future resolves, a new
        # request for the same key must start (or cache-hit) a fresh
        # compilation rather than attach to a finished record.
        followers = self._finalize(record)
        if pipeline_ran:
            self.metrics.record_compiled()
        else:
            self.metrics.record_cache_hit()
        if use_cache:
            self._register(record.key, generated)
        self._complete(leader, generated)
        if not followers:
            return
        entry = generated.to_program()
        for follower in followers:
            try:
                rebound = self.session.finish(
                    follower.ctx, record.key, entry=entry
                )
            except Exception as exc:
                self.metrics.record_error()
                self._fail(follower.future, exc)
            else:
                self._complete(follower, rebound)

    def _finalize(self, record: _Inflight) -> list[_Request]:
        """Drop the in-flight registration; returns the coalesced followers."""
        with self._lock:
            if record.key:
                self._inflight.pop(record.key, None)
            return list(record.followers)

    def _answer_registered(self, future: Future, ctx: PassContext, key: str) -> bool:
        """Resolve ``future`` with the compilation registered under ``key``
        when it is what the queue would answer; returns whether it did.

        The entry must carry the request's chain (operand names included)
        and the runtime the request's dispatch pass would build, and no
        compilation for ``key`` may be in flight (followers coalesce on
        it).  The session-cache lookup is the validity check: it leaves
        the cache's hit count and LRU recency where a queued cache hit
        would, and an evicted key takes the queue.
        """
        start = time.perf_counter()
        with self._lock:
            current = None if key in self._inflight else self._registry.get(key)
        if current is None or current.program is None or current.chain != ctx.chain:
            return False
        backend, estimator = current.program.runtime_identity(
            ctx.runtime_estimator,
            backend=ctx.options.backend,
            cost_model=ctx.options.cost_model,
        )
        if not self._same_runtime(current, backend, estimator):
            return False
        if self.session.cache.get(key) is None:
            return False
        with self._lock:
            if self._registry.get(key) is current:
                self._registry.move_to_end(key)
        elapsed = time.perf_counter() - start
        self.metrics.record_cache_hit()
        self.metrics.record_latency(elapsed)
        obs_trace.leaf_span(
            "serve.request",
            time.time() - elapsed,
            elapsed,
            key=key,
            mode=self.workers_mode,
            registry_hit=True,
        )
        future.set_result(current)
        return True

    @staticmethod
    def _same_runtime(generated: "GeneratedCode", backend, estimator) -> bool:
        """Whether ``generated`` dispatches on ``backend`` with ``estimator``."""
        dispatcher = generated.dispatcher
        return dispatcher.backend == backend and dispatcher.cost_estimator is estimator

    def _register(self, handle: str, generated: "GeneratedCode") -> None:
        """Register ``generated`` under ``handle``.

        The registered entry is kept when its runtime is the same (backend
        and cost estimator), so the handle's warm memo survives a repeat
        compile that reached a worker (a different operand naming, or a
        key the session cache had evicted); a compile asking for another
        runtime replaces it.
        """
        with self._lock:
            current = self._registry.get(handle)
            dispatcher = generated.dispatcher
            if current is None or not self._same_runtime(
                current, dispatcher.backend, dispatcher.cost_estimator
            ):
                self._registry[handle] = generated
            self._registry.move_to_end(handle)
            while len(self._registry) > self._registry_capacity:
                self._registry.popitem(last=False)

    def _complete(self, request: _Request, generated: "GeneratedCode") -> None:
        self.metrics.record_latency(time.perf_counter() - request.submitted)
        try:
            request.future.set_result(generated)
        except InvalidStateError:  # pragma: no cover - cancelled future
            pass

    @staticmethod
    def _fail(future: Future, exc: BaseException) -> None:
        try:
            future.set_exception(exc)
        except InvalidStateError:  # pragma: no cover - cancelled future
            pass
