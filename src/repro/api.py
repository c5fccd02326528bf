"""High-level facade: the code generator of Fig. 1 in one call.

:func:`compile_chain` takes a symbolic chain (or a program in the Fig. 2
input language), runs the full pass pipeline
(:mod:`repro.compiler.pipeline`) — simplification rewrites, essential set
selection per Theorem 2, optional greedy expansion per Algorithm 1 — and
returns a :class:`GeneratedCode` object bundling the variants, their cost
functions, the run-time dispatcher, and the C++ emission.

Both :func:`compile_chain` and :func:`compile_expression` are thin wrappers
over a shared :class:`~repro.compiler.session.CompilerSession`, so repeated
compilations of structurally identical chains hit the content-addressed
compilation cache.  Hold your own session (or use
:func:`CompilerSession.compile_many`) for batch workloads, and
:class:`repro.serve.CompileService` for concurrent serving (bounded queue,
worker pool, request coalescing).

The shared default session is created lazily under a lock
(:func:`get_default_session`, re-exported here), so concurrent first calls
to :func:`compile_chain` from many threads observe exactly one session and
one cache — safe to call straight from a multi-threaded server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.ir.chain import Chain
from repro.runtime import DEFAULT_BACKEND, CostEstimator, Dispatcher, flop_estimator
from repro.compiler.program import CompiledProgram
from repro.compiler.session import get_default_session, set_default_session
from repro.compiler.variant import Variant


@dataclass
class GeneratedCode:
    """The output of the code generator for one chain shape.

    Holds the selected variants (each the analogue of one generated C++
    function plus its cost function) and the dispatcher.  Calling the object
    evaluates an instance end to end: infer sizes, select the cheapest
    variant, execute it through the kernel substrate.

    The dispatcher is a *live runtime* (:mod:`repro.runtime`): it memoizes
    dispatch decisions per observed size vector and one compiled execution
    plan per variant, so repeated calls with same-size instances skip the
    cost sweep and re-validation entirely.  Hold one ``GeneratedCode`` per chain shape
    and call it many times — that is the serving hot path.
    """

    chain: Chain
    variants: list[Variant]
    dispatcher: Dispatcher
    training_instances: np.ndarray
    #: The portable compilation artifact this facade wraps (set by session
    #: compiles; ``None`` for hand-assembled instances — :meth:`to_program`
    #: builds one on demand).
    program: Optional[CompiledProgram] = None

    def __call__(self, *arrays) -> np.ndarray:
        return self.dispatcher(*arrays)

    def execute_many(
        self, instances: Sequence[Sequence[np.ndarray]]
    ) -> list[np.ndarray]:
        """Dispatch and execute a batch of instances (one per array list).

        All uncached size vectors share one broadcast cost sweep; see
        :meth:`repro.runtime.Dispatcher.execute_many`.
        """
        return self.dispatcher.execute_many(instances)

    def select(self, sizes: Sequence[int]) -> tuple[Variant, float]:
        """The variant the dispatcher would pick for an instance."""
        return self.dispatcher.select(sizes)

    def cpp_source(self, function_name: str = "evaluate_chain") -> str:
        """Emit the generated C++ translation unit (variants + dispatch)."""
        from repro.codegen.cpp_emitter import emit_cpp

        return emit_cpp(self.chain, self.variants, function_name=function_name)

    def python_source(self) -> str:
        """Emit a standalone Python module (numpy/scipy only) equivalent."""
        from repro.codegen.python_emitter import emit_python

        return emit_python(self.chain, self.variants)

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the compiled variants (ship once, load anywhere)."""
        from repro.codegen import serialize

        return serialize.dumps(self.chain, self.variants, indent=indent)

    @staticmethod
    def from_json(
        payload: str,
        cost_estimator: CostEstimator = flop_estimator,
        backend: str = DEFAULT_BACKEND,
    ) -> "GeneratedCode":
        """Rebuild generated code from :meth:`to_json` output."""
        from repro.codegen import serialize

        chain, variants = serialize.loads(payload)
        dispatcher = Dispatcher(
            chain, variants, cost_estimator=cost_estimator, backend=backend
        )
        return GeneratedCode(
            chain=chain,
            variants=variants,
            dispatcher=dispatcher,
            training_instances=np.empty((0, chain.n + 1)),
        )

    def to_program(self) -> CompiledProgram:
        """The versioned, serializable artifact for this compilation.

        Session compiles already carry one (with key and provenance); a
        hand-assembled ``GeneratedCode`` gets a bare artifact built from
        its own fields.
        """
        if self.program is not None:
            return self.program
        return CompiledProgram.from_artifacts(
            self.chain, tuple(self.variants), self.training_instances
        )

    def save(self, path, indent: int | None = 2) -> None:
        """Write the compilation artifact to ``path`` (see ``repro run``)."""
        self.to_program().save(path, indent=indent)

    @staticmethod
    def from_program(
        program: CompiledProgram,
        cost_estimator: Optional[CostEstimator] = None,
    ) -> "GeneratedCode":
        """The executable facade over a (possibly loaded) artifact.

        The default (``None``) estimator lets the program resolve its own
        cost model — the compile-time ``cost_model`` option and any
        shipped calibration — instead of forcing FLOPs.
        """
        return program.to_generated_code(cost_estimator)

    def report(self, num_instances: int = 300, seed: int = 0) -> str:
        """Markdown compilation report (variants, costs, win frequencies)."""
        from repro.analysis.report import chain_report

        return chain_report(
            self.chain, self.variants, num_instances=num_instances, seed=seed
        )

    def describe(self) -> str:
        lines = [f"generated code for chain {self.chain}"]
        for variant in self.variants:
            lines.append(variant.describe())
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.variants)


def compile_chain(
    chain,
    *,
    expand_by: Optional[int] = None,
    training_instances: Optional[np.ndarray] = None,
    num_training_instances: Optional[int] = None,
    size_range: Optional[tuple[int, int]] = None,
    objective: Optional[str] = None,
    cost_estimator: Optional[CostEstimator] = None,
    seed: Optional[int] = None,
    simplify: Optional[bool] = None,
    variant_space: Optional[str] = None,
    max_variants: Optional[int] = None,
    backend: Optional[str] = None,
    cost_model: Optional[str] = None,
    use_cache: bool = True,
    session: Optional["CompilerSession"] = None,
) -> GeneratedCode:
    """Compile a symbolic chain into multi-versioned generated code.

    Parameters
    ----------
    chain:
        A :class:`~repro.ir.chain.Chain`, or a string in the input language
        of Fig. 2 (matrix definitions followed by the chain expression).
    expand_by:
        How many extra variants to add beyond the Theorem 2 base set with
        the greedy expansion of Algorithm 1 (``E_s1`` has ``expand_by=1``,
        ``E_s2`` has ``expand_by=2``, ...).  Defaults to 0.  Like the
        other knobs, omitting it defers to the session's own
        :class:`~repro.compiler.pipeline.CompileOptions` — only knobs you
        pass explicitly override the session defaults.
    training_instances:
        Instances used for representative selection and expansion; sampled
        uniformly from ``size_range`` when omitted.
    objective:
        ``"avg"`` (average penalty) or ``"max"`` (maximum penalty).
    cost_estimator:
        The cost function the run-time dispatcher uses (FLOPs by default;
        plug in a performance-model estimator for time-based dispatch).
    variant_space:
        Candidate-generation strategy: ``"exhaustive"`` (every
        parenthesization — the paper's set ``A``), ``"dp"`` (DP-seeded
        sparse pool, tractable for long chains), or ``"auto"`` (the
        default: exhaustive up to
        :data:`~repro.compiler.variant_space.AUTO_EXHAUSTIVE_MAX_N`
        matrices, DP-seeded beyond).
    max_variants:
        Bound on the candidate pool; fanning-out variants are never
        evicted.  ``None`` defers to the space's own default.
    backend:
        Execution backend of the built dispatcher: ``"c"`` (the session
        default: plans replayed by a native step interpreter, falling
        back to ``"blas"`` per plan, counted, when no C toolchain is
        present), ``"blas"`` (direct ``scipy.linalg.blas``/``lapack``
        lowering), or ``"reference"`` (the numpy kernel substrate).  A
        runtime knob — it never changes which variants are selected, and
        compilations differing only here share one cache entry.
    cost_model:
        Cost model of the built dispatcher: ``"flops"`` (analytic FLOP
        count, the default) or ``"calibrated"`` (feedback-directed
        per-kernel FLOP/s learned from measured timings; see
        :mod:`repro.perfmodel.feedback`).  Like ``backend``, a runtime
        knob excluded from the cache key.
    session:
        The :class:`~repro.compiler.session.CompilerSession` to compile in;
        defaults to the shared process-wide session (and its cache).
    """
    if session is None:
        session = get_default_session()
    return session.compile(
        chain,
        training_instances=training_instances,
        cost_estimator=cost_estimator,
        use_cache=use_cache,
        expand_by=expand_by,
        num_training_instances=num_training_instances,
        size_range=None if size_range is None else tuple(size_range),
        objective=objective,
        seed=seed,
        simplify=simplify,
        variant_space=variant_space,
        max_variants=max_variants,
        backend=backend,
        cost_model=cost_model,
    )


def load_program(
    path,
    cost_estimator: Optional[CostEstimator] = None,
    backend: Optional[str] = None,
) -> GeneratedCode:
    """Load a compilation artifact file into an executable ``GeneratedCode``.

    The file is the versioned :class:`~repro.compiler.program.CompiledProgram`
    wire format, as written by ``repro compile --output``,
    :meth:`GeneratedCode.save`, or a cache :class:`~repro.serve.DiskBackend`
    entry.  Loading reconstructs a working dispatcher without recompiling.
    ``backend`` overrides the artifact's own execution-backend snapshot
    (``repro run --backend``); the cost estimator likewise defaults to the
    artifact's own (its ``cost_model`` option, and shipped calibration —
    a warmed deployment's saved FLOP/s table dispatches immediately).
    """
    return CompiledProgram.load(path).to_generated_code(
        cost_estimator, backend=backend
    )


def compile_many(
    chains: Sequence,
    *,
    session: Optional["CompilerSession"] = None,
    **kwargs,
) -> list[GeneratedCode]:
    """Batch-compile chains; see :meth:`CompilerSession.compile_many`.

    Structurally identical chains compile once; distinct ones fan out over
    a thread pool.  Results match the input order and are identical to
    sequential :func:`compile_chain` calls with the same keyword knobs
    (``expand_by``, ``objective``, ..., plus a shared ``training_instances``
    array when every chain has the same length).
    """
    if session is None:
        session = get_default_session()
    return session.compile_many(chains, **kwargs)


# ---------------------------------------------------------------------------
# Sums of chains: the future-work extension (see repro.ir.expression).
# ---------------------------------------------------------------------------

@dataclass
class GeneratedExpression:
    """Generated code for a sum of chains.

    Each term owns its own multi-versioned :class:`GeneratedCode`; calling
    the object evaluates every term on the shared named arrays (the same
    matrix may appear in several terms) and accumulates the scaled results.
    """

    expression: "ChainSum"
    term_codes: list[GeneratedCode]

    def __call__(self, **arrays: np.ndarray) -> np.ndarray:
        term_sizes = self.expression.term_sizes(arrays)
        result: Optional[np.ndarray] = None
        for term, generated, sizes in zip(
            self.expression, self.term_codes, term_sizes
        ):
            term_arrays = [
                np.asarray(arrays[op.matrix.name]) for op in generated.chain
            ]
            value = term.coefficient * generated(*term_arrays)
            result = value if result is None else result + value
        assert result is not None
        return result

    def flop_cost(self, arrays: Mapping[str, np.ndarray]) -> float:
        """Dispatched FLOP cost of evaluating the expression on arrays."""
        term_sizes = self.expression.term_sizes(arrays)
        total = 0.0
        rows = cols = 0
        for generated, sizes in zip(self.term_codes, term_sizes):
            _, cost = generated.select(sizes)
            total += cost
            rows, cols = sizes[0], sizes[-1]
        return total + self.expression.addition_flops(rows, cols)

    def describe(self) -> str:
        lines = [f"generated code for expression {self.expression}"]
        for term, generated in zip(self.expression, self.term_codes):
            lines.append(f"term {term}:")
            for variant in generated.variants:
                lines.append("  " + variant.describe().replace("\n", "\n  "))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.term_codes)


def compile_expression(
    expression, *, session: Optional["CompilerSession"] = None, **kwargs
) -> GeneratedExpression:
    """Compile a sum of chains; see :func:`compile_chain` for the knobs.

    ``expression`` may be a :class:`~repro.ir.expression.ChainSum` or
    program source whose expression has one or more terms.  Each term's
    chain goes through the full pipeline (simplification, Theorem 2
    selection, optional expansion); term results are accumulated at run
    time.  Structurally identical terms share one cached compilation.

    A term whose chain simplifies to the identity matrix is rejected
    (:class:`ShapeError`), as for single-chain compilation.
    """
    if session is None:
        session = get_default_session()
    return session.compile_expression(expression, **kwargs)
