"""The compiler session: pipeline + cache + batch API behind one facade.

A :class:`CompilerSession` owns a pass :class:`~repro.compiler.pipeline.Pipeline`
and a :class:`~repro.compiler.cache.CompilationCache`, and exposes

* :meth:`CompilerSession.compile` — one chain through the pipeline, with a
  structural cache lookup between simplification and enumeration;
* :meth:`CompilerSession.compile_many` — batch compilation with thread-pool
  fan-out over the *structurally distinct* chains (duplicates compile once);
* :meth:`CompilerSession.cache_stats` / :meth:`CompilerSession.clear_cache`.

:func:`repro.api.compile_chain` is a thin wrapper over a module-level
default session, so every entry point shares one warm cache.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.backends import DiskBackend

import numpy as np

from repro.ir.chain import Chain
from repro.obs import trace as obs_trace
from repro.compiler.cache import CacheEntry, CacheStats, CompilationCache, rebind_variants
from repro.runtime.dispatcher import CostEstimator, flop_estimator
from repro.compiler.pipeline import (
    CompileOptions,
    PassContext,
    Pipeline,
    default_pipeline,
    fingerprint_instances,
)


class CompilerSession:
    """A long-lived compilation context (the unit a server would hold).

    Parameters
    ----------
    pipeline:
        The pass pipeline; defaults to the Fig. 1 sequence.
    cache:
        A pre-built :class:`CompilationCache`; overrides ``cache_capacity``
        and ``cache_dir``.
    cache_capacity:
        In-memory LRU size (number of compiled structures).
    cache_dir:
        When set, compilations also persist to this directory (an unbounded
        :class:`~repro.serve.backends.DiskBackend`) and survive process
        restarts.
    cache_backend:
        The cache's second layer, e.g. a bounded
        :class:`~repro.serve.backends.DiskBackend`; overrides ``cache_dir``.
    cost_estimator:
        Default dispatcher cost estimator for compiles in this session.
    options:
        Session-wide defaults for the per-compile knobs (``expand_by``,
        ``objective``, ...); per-call keyword overrides win.
    """

    def __init__(
        self,
        *,
        pipeline: Optional[Pipeline] = None,
        cache: Optional[CompilationCache] = None,
        cache_capacity: int = 128,
        cache_dir: Optional[str | os.PathLike] = None,
        cache_backend: Optional["DiskBackend"] = None,
        cost_estimator: CostEstimator = flop_estimator,
        options: Optional[CompileOptions] = None,
    ):
        if cache is None:
            if cache_backend is None and cache_dir is not None:
                # Imported lazily: repro.serve imports this module.
                from repro.serve.backends import DiskBackend

                cache_backend = DiskBackend(cache_dir)
            cache = CompilationCache(capacity=cache_capacity, backend=cache_backend)
        self.cache = cache
        self.cost_estimator = cost_estimator
        self.options = options if options is not None else CompileOptions()
        self._lock = threading.Lock()
        #: The context of the most recent :meth:`compile` (instrumentation).
        self.last_context: Optional[PassContext] = None
        self.pipeline = pipeline if pipeline is not None else default_pipeline()

    @property
    def pipeline(self) -> Pipeline:
        return self._pipeline

    @pipeline.setter
    def pipeline(self, pipeline: Pipeline) -> None:
        # The front/back split and the cache fingerprint are derived state;
        # recompute them together so reassigning the pipeline (e.g.
        # session.pipeline = session.pipeline.without("expand")) can never
        # leave stale passes or serve entries keyed to the old pipeline.
        self._pipeline = pipeline
        self._front, self._back = self._split_pipeline(pipeline)
        self._pipeline_fingerprint = pipeline.fingerprint()

    @staticmethod
    def _split_pipeline(pipeline: Pipeline) -> tuple[Pipeline, Pipeline]:
        """Split at the first cacheable pass: front always runs, back is
        what a cache hit (partially) skips."""
        passes = pipeline.passes
        cut = next(
            (i for i, p in enumerate(passes) if p.cacheable), len(passes)
        )
        observer = pipeline.observer
        return (
            Pipeline(passes[:cut], observer),
            Pipeline(passes[cut:], observer),
        )

    # -- options ------------------------------------------------------------

    #: The per-compile keyword knobs (CompileOptions minus internal fields).
    OPTION_FIELDS = frozenset(
        f.name for f in dataclasses.fields(CompileOptions)
    ) - {"training_fingerprint"}

    def _resolve_options(
        self,
        training_instances: Optional[np.ndarray],
        overrides: dict,
    ) -> CompileOptions:
        from repro.errors import CompilationError

        # None means "use the session default" for every knob (no option
        # field has a meaningful None value), matching compile_chain's
        # optional keyword arguments.
        overrides = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(overrides) - self.OPTION_FIELDS
        if unknown:
            raise CompilationError(
                f"unknown compile option(s) {sorted(unknown)}; valid options "
                f"are {sorted(self.OPTION_FIELDS)}"
            )
        options = self.options
        if overrides:
            options = dataclasses.replace(options, **overrides)
        fingerprint = (
            fingerprint_instances(training_instances)
            if training_instances is not None
            else None
        )
        if fingerprint != options.training_fingerprint:
            options = dataclasses.replace(
                options, training_fingerprint=fingerprint
            )
        return options

    # -- single compilation -------------------------------------------------

    def compile(
        self,
        chain,
        *,
        training_instances: Optional[np.ndarray] = None,
        cost_estimator: Optional[CostEstimator] = None,
        use_cache: bool = True,
        **overrides,
    ):
        """Compile one chain (or program source) to a ``GeneratedCode``.

        Keyword overrides are the fields of :class:`CompileOptions`
        (``expand_by``, ``num_training_instances``, ``size_range``,
        ``objective``, ``seed``, ``simplify``, ``variant_space``,
        ``max_variants``).
        """
        with obs_trace.span("compile") as compile_span:
            ctx, key = self._prepare(
                chain, training_instances, cost_estimator, overrides
            )
            compile_span.annotate(cache_key=key)
            result = self._finish(ctx, key, use_cache)
            compile_span.annotate(cache_hit=ctx.cache_hit)
            return result

    def prepare(
        self,
        chain,
        *,
        training_instances: Optional[np.ndarray] = None,
        cost_estimator: Optional[CostEstimator] = None,
        **overrides,
    ) -> tuple[PassContext, str]:
        """Front half of :meth:`compile`: parse + simplify + cache key.

        The serving layer (:class:`repro.serve.service.CompileService`)
        runs this cheap half inline on the caller thread to learn the
        request's structural identity — the coalescing key — before
        queueing the expensive half for :meth:`finish` on a worker.
        """
        return self._prepare(chain, training_instances, cost_estimator, overrides)

    def finish(
        self,
        ctx: PassContext,
        key: str,
        *,
        use_cache: bool = True,
        entry: Optional[CacheEntry] = None,
    ):
        """Back half of :meth:`compile` for a :meth:`prepare`-d context.

        With ``entry`` set, the compilation is served by rebinding that
        entry's variants instead of a cache lookup (how the service hands
        a coalesced follower its leader's result).
        """
        return self._finish(ctx, key, use_cache, entry=entry)

    def _prepare(
        self,
        chain,
        training_instances: Optional[np.ndarray],
        cost_estimator: Optional[CostEstimator],
        overrides: dict,
        options: Optional[CompileOptions] = None,
    ) -> tuple[PassContext, str]:
        """Run the always-on front passes and compute the cache key.

        ``options`` short-circuits option resolution with an already
        resolved instance (the batch API resolves once per batch so the
        shared training array is fingerprinted once, not per chain).
        """
        if options is None:
            options = self._resolve_options(training_instances, overrides)
        ctx = PassContext(
            source=chain,
            options=options,
            cost_estimator=cost_estimator or self.cost_estimator,
        )
        if training_instances is not None:
            ctx.training_instances = np.asarray(training_instances)
        self._front.run(ctx)
        assert ctx.chain is not None  # ParsePass ran
        key = self.cache.key(ctx.chain, options, self._pipeline_fingerprint)
        ctx.cache_key = key  # stamped into the produced CompiledProgram
        return ctx, key

    def _finish(
        self,
        ctx: PassContext,
        key: str,
        use_cache: bool,
        entry: Optional[CacheEntry] = None,
    ):
        """Run (or cache-skip) the expensive back passes; build the result.

        ``entry`` short-circuits the cache lookup with an already-known
        compilation (the batch API serves duplicates from their
        representative's result this way, immune to LRU eviction).
        """
        from repro.api import GeneratedCode

        if entry is None and use_cache:
            entry = self.cache.get(key)
        if entry is not None:
            variants, training = rebind_variants(entry, ctx.chain)
            ctx.selected = variants
            ctx.training_instances = training
            ctx.cache_hit = True
            self._back.run(ctx, skip=self.pipeline.cacheable_names())
        else:
            self._back.run(ctx)
            if use_cache:
                assert ctx.selected is not None and ctx.training_instances is not None
                # The dispatch pass already packaged the compilation as a
                # portable CompiledProgram; cache the artifact itself.  A
                # custom pipeline without the dispatch pass still caches a
                # bare artifact built from the selection products.
                # A shallow field copy: the context's program carries the
                # live runtime (its dispatcher/memo) for the caller, which
                # the long-lived cache entry must not pin — cache hits
                # rebuild their own program from the fields anyway.
                entry = (
                    dataclasses.replace(ctx.program)
                    if ctx.program is not None
                    else None
                )
                if entry is None:
                    entry = CacheEntry.from_artifacts(
                        ctx.chain,
                        tuple(ctx.selected),
                        ctx.training_instances,
                        key=key,
                        options=ctx.options,
                        timings=ctx.timings,
                        diagnostics=ctx.diagnostics,
                    )
                self.cache.put(key, entry)

        self._record_context(ctx)
        return GeneratedCode(
            chain=ctx.chain,
            variants=list(ctx.selected or ()),
            dispatcher=ctx.dispatcher,
            training_instances=np.asarray(ctx.training_instances),
            program=ctx.program,
        )

    def _record_context(self, ctx: PassContext) -> None:
        """Keep only the instrumentation slice of a finished context.

        Retaining the full context would pin the enumerated variant list
        and the (variants x instances) cost matrix of the *last* compile —
        hundreds of MB for long chains — on a long-lived session.
        """
        slim = PassContext(
            source=ctx.source,
            options=ctx.options,
            cost_estimator=ctx.cost_estimator,
        )
        slim.chain = ctx.chain
        slim.cache_key = ctx.cache_key
        slim.executed = ctx.executed
        slim.skipped = ctx.skipped
        slim.timings = ctx.timings
        slim.diagnostics = ctx.diagnostics
        with self._lock:
            self.last_context = slim

    # -- batch compilation ---------------------------------------------------

    def compile_many(
        self,
        chains: Sequence,
        *,
        max_workers: Optional[int] = None,
        training_instances: Optional[np.ndarray] = None,
        cost_estimator: Optional[CostEstimator] = None,
        use_cache: bool = True,
        **overrides,
    ) -> list:
        """Compile a batch of chains; results match the input order.

        Structurally distinct chains fan out over a thread pool;
        structurally identical ones (after simplification) compile once and
        the duplicates are served from the cache with their variants
        rebound to each chain's own matrix names.  ``training_instances``
        (one shared ``(count, n+1)`` array) is only meaningful when every
        chain has the same length.
        """
        chains = list(chains)
        if not chains:
            return []

        # Front passes (parse + simplify) run once per chain, up front; the
        # prepared contexts carry both the cache key and the state the
        # finish step needs, so nothing is re-parsed later.  Options (and
        # the training-set fingerprint) resolve once for the whole batch.
        options = self._resolve_options(training_instances, overrides)
        prepared = [
            self._prepare(
                chain, training_instances, cost_estimator, {}, options=options
            )
            for chain in chains
        ]
        workers = max_workers or min(32, (os.cpu_count() or 4) + 4, len(chains))

        if not use_cache:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(
                    pool.map(lambda p: self._finish(p[0], p[1], False), prepared)
                )

        # Round 1: compile one representative per structural key in parallel.
        representatives: dict[str, int] = {}
        for index, (_, key) in enumerate(prepared):
            representatives.setdefault(key, index)
        unique = [prepared[i] for i in representatives.values()]
        with ThreadPoolExecutor(max_workers=min(workers, len(unique))) as pool:
            compiled = list(
                pool.map(lambda p: self._finish(p[0], p[1], True), unique)
            )

        # Round 2: duplicates rebind their representative's result directly
        # (not via a cache lookup, which could have been LRU-evicted when
        # the batch holds more structures than the cache capacity).
        entry_by_key = {
            key: generated.to_program()
            for key, generated in zip(representatives, compiled)
        }
        results: list = [None] * len(chains)
        for index, generated in zip(representatives.values(), compiled):
            results[index] = generated
        for index, (ctx, key) in enumerate(prepared):
            if results[index] is None:
                results[index] = self._finish(
                    ctx, key, True, entry=entry_by_key[key]
                )
        return results

    # -- expressions ---------------------------------------------------------

    def compile_expression(
        self,
        expression,
        *,
        training_instances: Optional[np.ndarray] = None,
        cost_estimator: Optional[CostEstimator] = None,
        use_cache: bool = True,
        **overrides,
    ):
        """Compile a sum of chains, sharing this session's cache per term."""
        from repro.api import GeneratedExpression
        from repro.errors import CompilationError
        from repro.ir.expression import ChainSum, ChainTerm
        from repro.ir.parser import parse_expression

        if isinstance(expression, str):
            expression = parse_expression(expression)
        if isinstance(expression, Chain):
            expression = ChainSum((ChainTerm(1.0, expression),))
        if not isinstance(expression, ChainSum):
            raise CompilationError(
                f"expected a ChainSum or program source, got "
                f"{type(expression).__name__}"
            )
        # Each term's context is held locally (not read back from
        # last_context, which a concurrent compile on this session could
        # overwrite between statements).
        term_codes = []
        term_contexts = []
        options = self._resolve_options(training_instances, overrides)
        for term in expression.terms:
            ctx, key = self._prepare(
                term.chain, training_instances, cost_estimator, {},
                options=options,
            )
            term_codes.append(self._finish(ctx, key, use_cache))
            term_contexts.append(ctx)

        # Merge per-term contexts so last_context (hence `repro compile
        # --timings`) reflects the whole expression, not just the last term.
        merged = PassContext(
            source=expression, options=term_contexts[-1].options
        )
        for ctx in term_contexts:
            for name, seconds in ctx.timings.items():
                merged.timings[name] = merged.timings.get(name, 0.0) + seconds
            merged.executed.extend(ctx.executed)
            merged.skipped.extend(ctx.skipped)
        with self._lock:
            self.last_context = merged
        return GeneratedExpression(expression=expression, term_codes=term_codes)

    # -- cache management ----------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """A snapshot of the cache counters."""
        return dataclasses.replace(self.cache.stats)

    def warm(self, limit: Optional[int] = None) -> int:
        """Preload cache-backend entries into the in-memory LRU.

        Returns the number of entries loaded (0 without a backend).  A
        serving process calls this on startup so the first wave of traffic
        hits memory instead of paying per-request disk deserialization;
        ``repro cache warm`` and ``repro serve`` expose it.
        """
        return self.cache.warm(limit)

    def clear_cache(self, disk: bool = False) -> None:
        self.cache.clear(disk=disk)


# ---------------------------------------------------------------------------
# The shared default session behind repro.api.compile_chain.
# ---------------------------------------------------------------------------

_default_session: Optional[CompilerSession] = None
_default_lock = threading.Lock()


def get_default_session() -> CompilerSession:
    """The process-wide session used by the ``compile_chain`` wrapper.

    Lazy creation is guarded by a lock, so concurrent first calls (e.g. a
    serving front end fanning requests over ``compile_chain``) observe
    exactly one session and one cache.  The common post-creation path reads
    the already-published session without taking the lock.
    """
    global _default_session
    session = _default_session
    if session is not None:
        return session
    with _default_lock:
        if _default_session is None:
            _default_session = CompilerSession(cache_capacity=256)
        return _default_session


def set_default_session(session: Optional[CompilerSession]) -> None:
    """Replace (or with ``None``, reset) the process-wide default session."""
    global _default_session
    with _default_lock:
        _default_session = session
