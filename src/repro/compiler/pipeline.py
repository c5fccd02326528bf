"""Pass-based compilation pipeline (the staged generator of Fig. 1).

The generator runs a fixed conceptual sequence — parse, simplify, sample a
training set, generate the candidate variant pool (through a pluggable
:mod:`~repro.compiler.variant_space` strategy: exhaustive Catalan
enumeration for small chains, DP-seeded sparse generation for long ones),
build the cost matrix, select the essential set per Theorem 2, greedily
expand per Algorithm 1, build the dispatcher.  This module makes each stage an explicit, named
:class:`CompilerPass` over a shared :class:`PassContext`, so stages can be
skipped, swapped, or instrumented, and so the compilation cache can bypass
exactly the expensive middle of the pipeline (everything between
simplification and dispatch) on a structural hit.

Passes marked ``cacheable = True`` produce artifacts that depend only on the
chain *structure* and the :class:`CompileOptions`; those are the passes a
cache hit skips.  Parsing, simplification, and dispatcher construction are
name- or estimator-dependent and always run.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import CompilationError
from repro.ir.chain import Chain
from repro.obs import get_registry
from repro.obs import trace as obs_trace
from repro.runtime.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.runtime.dispatcher import CostEstimator, Dispatcher, flop_estimator
from repro.compiler.expansion import AveragePenalty, MaxPenalty, expand_set
from repro.compiler.program import CompiledProgram
from repro.compiler.selection import CostMatrix, essential_set
from repro.compiler.variant import Variant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compiler.variant_space import VariantSpace

#: Dispatcher cost models selectable through :attr:`CompileOptions.cost_model`.
COST_MODEL_NAMES = ("flops", "calibrated")


@dataclass(frozen=True)
class CompileOptions:
    """Structure-independent knobs of one compilation.

    Everything here (plus the chain's structural key) determines the
    selected variants, so the tuple doubles as the options half of the
    compilation-cache key.  The run-time ``cost_estimator`` is *not* an
    option: it only parameterizes the dispatcher, which is rebuilt on every
    compile (cache hit or miss).
    """

    expand_by: int = 0
    num_training_instances: int = 1000
    size_range: tuple[int, int] = (2, 1000)
    objective: str = "avg"
    seed: int = 0
    simplify: bool = True
    #: Candidate-generation strategy of the ``enumerate`` stage:
    #: ``"exhaustive"`` (all Catalan-many parenthesizations, the paper's
    #: set ``A``), ``"dp"`` (DP-seeded sparse pool for long chains), or
    #: ``"auto"`` (exhaustive up to
    #: :data:`~repro.compiler.variant_space.AUTO_EXHAUSTIVE_MAX_N`
    #: matrices, DP-seeded beyond).  See :mod:`repro.compiler.variant_space`.
    variant_space: str = "auto"
    #: Bound on the candidate pool (``None`` = the space's own default:
    #: unbounded for exhaustive, 512 for DP-seeded).  Fanning-out variants
    #: are never evicted by the bound.
    max_variants: Optional[int] = None
    #: Execution backend of the built dispatcher: ``"c"`` (the default:
    #: plans replayed by the native step interpreter, falling back to
    #: ``blas`` per plan without a toolchain), ``"blas"`` (direct
    #: ``scipy.linalg.blas``/``lapack`` calls) or ``"reference"`` (the
    #: numpy kernel substrate).  See :mod:`repro.runtime.backends`.  A
    #: *runtime* knob: it never influences which variants are selected,
    #: so it is excluded from :meth:`cache_token` — compilations
    #: differing only in backend share one cache entry and diverge in the
    #: dispatch pass.
    backend: str = DEFAULT_BACKEND
    #: Cost model of the built dispatcher: ``"flops"`` (the paper's
    #: analytic FLOP count) or ``"calibrated"`` (the feedback-directed
    #: :class:`~repro.perfmodel.feedback.CalibratedEstimator`, seeded to
    #: rank like FLOPs and updated online from measured kernel timings).
    #: Like ``backend``, a *runtime* knob excluded from
    #: :meth:`cache_token`: it never changes which variants are selected,
    #: only how the dispatcher prices them per call.
    cost_model: str = "flops"
    #: Digest of an explicitly supplied training set (None when sampled).
    training_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.objective not in ("avg", "max"):
            raise CompilationError(
                f"objective must be 'avg' or 'max', got {self.objective!r}"
            )
        from repro.compiler.variant_space import SPACE_NAMES

        if self.variant_space not in SPACE_NAMES:
            raise CompilationError(
                f"variant_space must be one of {SPACE_NAMES}, "
                f"got {self.variant_space!r}"
            )
        if self.max_variants is not None and self.max_variants < 1:
            raise CompilationError(
                f"max_variants must be >= 1, got {self.max_variants!r}"
            )
        if self.num_training_instances < 1:
            raise CompilationError(
                "num_training_instances must be >= 1, got "
                f"{self.num_training_instances!r} (selection needs at least "
                "one instance to score against)"
            )
        if self.backend not in BACKEND_NAMES:
            raise CompilationError(
                f"backend must be one of {BACKEND_NAMES}, "
                f"got {self.backend!r}"
            )
        if self.cost_model not in COST_MODEL_NAMES:
            raise CompilationError(
                f"cost_model must be one of {COST_MODEL_NAMES}, "
                f"got {self.cost_model!r}"
            )

    def cache_token(self) -> tuple:
        """The hashable options component of the compilation-cache key.

        With an explicit training set (``training_fingerprint`` set), the
        sampling knobs (``num_training_instances``, ``size_range``,
        ``seed``) never reach the pipeline, so they are excluded — the same
        data under a different seed must still hit.
        """
        if self.training_fingerprint is not None:
            sampling: tuple = ()
        else:
            sampling = (
                self.num_training_instances,
                tuple(self.size_range),
                self.seed,
            )
        return (
            self.expand_by,
            self.objective,
            self.simplify,
            self.training_fingerprint,
            sampling,
            # The variant-space knobs shape the candidate pool and hence
            # the selected set: sessions differing only here must not
            # share entries.  The raw strings are keyed (``"auto"`` is not
            # resolved); the structural key fixes the chain length, so one
            # token can never cover two different resolutions.
            self.variant_space,
            self.max_variants,
        )


def fingerprint_instances(instances: np.ndarray) -> str:
    """Content digest of an explicit training-instance array."""
    array = np.ascontiguousarray(np.asarray(instances, dtype=np.float64))
    digest = hashlib.sha256(array.tobytes())
    digest.update(str(array.shape).encode())
    return digest.hexdigest()


@dataclass
class PassContext:
    """Mutable state threaded through the pipeline.

    ``source`` is the user input (a chain or program text); each pass reads
    the artifacts of its predecessors and writes its own.  ``executed`` and
    ``timings`` record which passes actually ran and for how long — the
    cache tests assert on them, and ``repro compile --timings`` prints them.
    """

    source: object
    options: CompileOptions = field(default_factory=CompileOptions)
    cost_estimator: CostEstimator = flop_estimator

    # -- artifacts, in pipeline order ---------------------------------------
    chain: Optional[Chain] = None
    training_instances: Optional[np.ndarray] = None
    variants: Optional[list[Variant]] = None
    cost_matrix: Optional[CostMatrix] = None
    selected: Optional[list[Variant]] = None
    program: Optional[CompiledProgram] = None
    dispatcher: Optional[Dispatcher] = None

    #: Content address of this compilation (set by the session once the
    #: front passes have run); stamped into the produced artifact.
    cache_key: str = ""

    # -- instrumentation ----------------------------------------------------
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    #: Structured per-pass instrumentation (e.g. ``variant_pool`` from the
    #: enumerate stage), reported by ``repro compile --timings`` and the
    #: serve ``stats`` response, and carried on the artifact.
    diagnostics: dict[str, object] = field(default_factory=dict)
    #: True while the back pipeline runs on a cache hit.  A custom
    #: non-cacheable pass spliced among the cacheable stages must branch on
    #: this: the skipped stages' intermediates (``variants``,
    #: ``cost_matrix``) are absent on a hit — only ``selected`` and
    #: ``training_instances`` are restored from the cache.
    cache_hit: bool = False

    def require(self, attribute: str) -> object:
        value = getattr(self, attribute)
        if value is None:
            hint = (
                " (this compile was served from the cache, which restores "
                "only 'selected' and 'training_instances'; guard custom "
                "passes with `if ctx.cache_hit`)"
                if self.cache_hit
                else " (did an earlier pass get skipped?)"
            )
            raise CompilationError(
                f"pipeline artifact {attribute!r} missing{hint}"
            )
        return value


class CompilerPass:
    """One named stage of the pipeline.

    Subclasses set ``name`` and implement :meth:`run`.  ``cacheable`` marks
    passes whose artifacts a compilation-cache hit replaces.
    """

    name: str = "<pass>"
    cacheable: bool = False

    def run(self, ctx: PassContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def cache_token(self) -> tuple:
        """Hashable configuration of this pass instance.

        Folded into :meth:`Pipeline.fingerprint`.  A parameterized pass
        (e.g. a top-k selection strategy) must override this to return its
        parameters, otherwise two differently-configured instances of the
        same class would share compilation-cache entries.
        """
        return ()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ParsePass(CompilerPass):
    """Turn program text into a :class:`Chain`; validate chain inputs."""

    name = "parse"

    def run(self, ctx: PassContext) -> None:
        from repro.ir.parser import parse_chain

        source = ctx.source
        if isinstance(source, str):
            source = parse_chain(source)
        if not isinstance(source, Chain):
            raise CompilationError(
                f"expected a Chain or program source, got {type(source).__name__}"
            )
        ctx.chain = source


class SimplifyPass(CompilerPass):
    """Apply the Section III-A rewrites (no-op when options.simplify=False)."""

    name = "simplify"

    def run(self, ctx: PassContext) -> None:
        from repro.ir.rewrites import simplify_chain

        chain = ctx.require("chain")
        if ctx.options.simplify:
            ctx.chain = simplify_chain(chain)


class TrainingSamplePass(CompilerPass):
    """Sample the training instances Q (skipped when supplied explicitly)."""

    name = "sample"
    cacheable = True

    def run(self, ctx: PassContext) -> None:
        from repro.experiments.sampling import sample_instances

        if ctx.training_instances is not None:
            ctx.training_instances = np.asarray(ctx.training_instances)
            if ctx.training_instances.shape[0] == 0:
                # A well-shaped empty array would flow through the cost
                # matrix only to make every selection objective undefined
                # (means/maxima over zero instances); fail here with the
                # cause instead.
                raise CompilationError(
                    "training_instances must contain at least one instance"
                )
            return
        chain = ctx.require("chain")
        rng = np.random.default_rng(ctx.options.seed)
        low, high = ctx.options.size_range
        ctx.training_instances = sample_instances(
            chain, ctx.options.num_training_instances, rng, low=low, high=high
        )


class EnumeratePass(CompilerPass):
    """Generate the candidate variant pool through a variant space.

    The strategy comes from ``options.variant_space`` (resolved per chain —
    ``"auto"`` switches from exhaustive to DP-seeded on long chains), or
    from an explicit :class:`~repro.compiler.variant_space.VariantSpace`
    instance pinned at pass construction, which wins over the options and
    is keyed into the pipeline fingerprint instead.
    """

    name = "enumerate"
    cacheable = True

    def __init__(self, space: Optional["VariantSpace"] = None):
        self.space = space
        # A pinned space instance is shared by every compile through this
        # pass; its per-generate diagnostics attribute must not be read
        # while another thread's generate() is rebinding it.
        self._space_lock = threading.Lock() if space is not None else None

    def run(self, ctx: PassContext) -> None:
        from repro.compiler.variant_space import resolve_space

        chain = ctx.require("chain")
        if chain.n == 1:
            ctx.variants = [_single_variant(chain)]
            ctx.diagnostics["variant_pool"] = {
                "strategy": "single",
                "requested": ctx.options.variant_space,
                "pool_size": 1,
            }
            return
        if self.space is not None:
            with self._space_lock:
                ctx.variants = self.space.generate(
                    chain, ctx.training_instances
                )
                info: dict = dict(self.space.diagnostics or {})
            space_name = self.space.name
        else:
            space = resolve_space(ctx.options, chain)  # fresh per compile
            ctx.variants = space.generate(chain, ctx.training_instances)
            info = dict(space.diagnostics or {})
            space_name = space.name
        # The pool diagnostics (strategy resolved by ``auto``, dedup hits,
        # seed count, ...) flow to --timings and the serve stats response.
        info.setdefault("strategy", space_name)
        info["requested"] = ctx.options.variant_space
        info["pool_size"] = len(ctx.variants)
        ctx.diagnostics["variant_pool"] = info

    def cache_token(self) -> tuple:
        if self.space is None:
            return ()  # options-driven: keyed via CompileOptions.cache_token
        return (type(self.space).__qualname__, self.space.cache_token())


class CostMatrixPass(CompilerPass):
    """Pre-evaluate every pool variant on every training instance (batched).

    The matrix's per-instance minimum is the penalty baseline: the true
    optimum over ``A`` under the exhaustive space, a DP-anchored upper
    bound under sparse spaces.
    """

    name = "cost-matrix"
    cacheable = True

    def run(self, ctx: PassContext) -> None:
        chain = ctx.require("chain")
        if chain.n == 1:
            return  # nothing to score: the single variant is forced
        ctx.cost_matrix = CostMatrix(
            ctx.require("variants"), ctx.require("training_instances")
        )


class EssentialSetPass(CompilerPass):
    """Theorem 2: one fanning-out representative per equivalence class.

    Works on whatever pool the variant space generated — every space
    guarantees the fanning-out candidates are present in the cost matrix.
    """

    name = "select"
    cacheable = True

    def run(self, ctx: PassContext) -> None:
        chain = ctx.require("chain")
        if chain.n == 1:
            ctx.selected = list(ctx.require("variants"))
            return
        ctx.selected = essential_set(
            chain,
            cost_matrix=ctx.require("cost_matrix"),
            objective=ctx.options.objective,
        )


class ExpansionPass(CompilerPass):
    """Algorithm 1: greedily grow the set by ``expand_by`` variants."""

    name = "expand"
    cacheable = True

    def run(self, ctx: PassContext) -> None:
        chain = ctx.require("chain")
        selected = ctx.require("selected")
        if ctx.options.expand_by <= 0 or chain.n == 1:
            return
        scorer = AveragePenalty if ctx.options.objective == "avg" else MaxPenalty
        ctx.selected = expand_set(
            ctx.require("cost_matrix"),
            selected,
            max_size=len(selected) + ctx.options.expand_by,
            objective=lambda m, idx: scorer(m, idx),
        )


class DispatchPass(CompilerPass):
    """Produce the compilation artifact and its run-time dispatcher.

    The pass's primary product is a :class:`CompiledProgram` — the
    versioned, serializable bundle the cache stores and the wire ships —
    and the dispatcher is *reconstructed from the artifact*, so in-process
    and loaded-from-the-wire compilations go through the identical path.
    """

    name = "dispatch"

    def run(self, ctx: PassContext) -> None:
        ctx.program = CompiledProgram.from_artifacts(
            ctx.require("chain"),
            ctx.require("selected"),
            ctx.training_instances,
            key=ctx.cache_key,
            options=ctx.options,
            timings=ctx.timings,
            diagnostics=ctx.diagnostics,
            # On a cache hit the context's training array is already this
            # request's private copy (rebind copies per request), and the
            # artifact never becomes the cache entry — skip the extra copy
            # on the serving hot path.  A fresh compilation's artifact IS
            # the future cache entry and takes its own copy.
            copy_training=not ctx.cache_hit,
        )
        # The dispatcher is the artifact's *live runtime* (shared memo and
        # term stack), so every consumer holding this compilation — the
        # GeneratedCode facade, the serve registry, repeated execute()
        # calls — amortizes dispatch state in one place.  The default
        # estimator lets the program resolve its own (options.cost_model,
        # shipped calibration); an explicitly injected estimator wins.
        ctx.dispatcher = ctx.program.runtime(
            None if ctx.cost_estimator is flop_estimator else ctx.cost_estimator
        )


def _single_variant(chain: Chain) -> Variant:
    """The (only) variant of a one-matrix chain: unary fix-ups."""
    from repro.compiler.parenthesization import leaf
    from repro.compiler.variant import build_variant

    return build_variant(chain, leaf(0), name="single")


#: Observer signature: (pass, context, elapsed seconds or None when skipped).
PassObserver = Callable[[CompilerPass, PassContext, Optional[float]], None]


class Pipeline:
    """An ordered sequence of named passes.

    The default pipeline mirrors Fig. 1.  ``without``/``replaced``/``extended``
    derive modified pipelines non-destructively, so callers can drop the
    expansion stage, swap the selection strategy, or splice in an
    instrumentation pass without touching this module.
    """

    def __init__(
        self,
        passes: Optional[Sequence[CompilerPass]] = None,
        observer: Optional[PassObserver] = None,
    ):
        self.passes: list[CompilerPass] = list(
            default_passes() if passes is None else passes
        )
        self.observer = observer
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise CompilationError(f"duplicate pass names in pipeline: {names}")

    # -- derivation ---------------------------------------------------------

    def without(self, *names: str) -> "Pipeline":
        """A pipeline with the named passes removed."""
        missing = set(names) - {p.name for p in self.passes}
        if missing:
            raise CompilationError(f"unknown passes: {sorted(missing)}")
        return Pipeline(
            [p for p in self.passes if p.name not in names], self.observer
        )

    def replaced(self, name: str, new_pass: CompilerPass) -> "Pipeline":
        """A pipeline with one pass swapped for another (same position)."""
        if name not in {p.name for p in self.passes}:
            raise CompilationError(f"unknown pass: {name!r}")
        return Pipeline(
            [new_pass if p.name == name else p for p in self.passes],
            self.observer,
        )

    def extended(self, new_pass: CompilerPass, after: Optional[str] = None) -> "Pipeline":
        """A pipeline with a pass appended (or inserted after ``after``)."""
        passes = list(self.passes)
        if after is None:
            passes.append(new_pass)
        else:
            index = next(
                (i for i, p in enumerate(passes) if p.name == after), None
            )
            if index is None:
                raise CompilationError(f"unknown pass: {after!r}")
            passes.insert(index + 1, new_pass)
        return Pipeline(passes, self.observer)

    # -- execution ----------------------------------------------------------

    def run(
        self, ctx: PassContext, skip: Iterable[str] = ()
    ) -> PassContext:
        """Run the passes in order, skipping any whose name is in ``skip``.

        The cache layer passes ``skip={cacheable pass names}`` on a hit,
        having pre-populated the skipped passes' artifacts on the context.
        """
        skip = set(skip)
        registry = get_registry()
        for compiler_pass in self.passes:
            if compiler_pass.name in skip:
                ctx.skipped.append(compiler_pass.name)
                if self.observer is not None:
                    self.observer(compiler_pass, ctx, None)
                continue
            with obs_trace.span(f"compile.pass.{compiler_pass.name}") as pass_span:
                start = time.perf_counter()
                compiler_pass.run(ctx)
                elapsed = time.perf_counter() - start
                pass_span.annotate(elapsed=elapsed)
            ctx.executed.append(compiler_pass.name)
            ctx.timings[compiler_pass.name] = (
                ctx.timings.get(compiler_pass.name, 0.0) + elapsed
            )
            registry.histogram(
                "compiler.pass_seconds", stage=compiler_pass.name
            ).observe(elapsed)
            if self.observer is not None:
                self.observer(compiler_pass, ctx, elapsed)
        pool = ctx.diagnostics.get("variant_pool")
        if pool:
            # The variant-pool diagnostics double as registry state so one
            # ``stats`` call sees what the enumerate stage decided.
            strategy = str(pool.get("strategy", "unknown"))
            registry.counter("compiler.variant_pools", strategy=strategy).inc()
            registry.histogram("compiler.pool_size", strategy=strategy).observe(
                pool.get("pool_size", 0)
            )
        return ctx

    def cacheable_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes if p.cacheable)

    def fingerprint(self) -> str:
        """Identity of the pass sequence, for the compilation-cache key.

        Two sessions sharing a disk cache but running different pipelines
        (a swapped selection pass, an extra stage, a reconfigured pass) must
        not serve each other's entries; the fingerprint keys on the pass
        classes plus each pass's :meth:`CompilerPass.cache_token`.
        """
        token = tuple(
            (
                type(p).__module__,
                type(p).__qualname__,
                p.name,
                p.cacheable,
                p.cache_token(),
            )
            for p in self.passes
        )
        return hashlib.sha256(repr(token).encode()).hexdigest()[:16]

    def __iter__(self):
        return iter(self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:
        return "Pipeline(" + " -> ".join(p.name for p in self.passes) + ")"


def default_passes() -> tuple[CompilerPass, ...]:
    """The Fig. 1 generator as a pass sequence."""
    return (
        ParsePass(),
        SimplifyPass(),
        TrainingSamplePass(),
        EnumeratePass(),
        CostMatrixPass(),
        EssentialSetPass(),
        ExpansionPass(),
        DispatchPass(),
    )


def default_pipeline(observer: Optional[PassObserver] = None) -> Pipeline:
    return Pipeline(default_passes(), observer)
