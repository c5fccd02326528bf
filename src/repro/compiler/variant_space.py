"""Pluggable candidate-variant generation (the compiler's scaling layer).

The pipeline's ``enumerate`` stage used to mean one thing: build *every*
parenthesization variant — Catalan-many, intractable past n ≈ 12.  This
module makes candidate generation a first-class strategy:

* :class:`ExhaustiveSpace` — the full set ``A`` of the paper.  Ground truth
  for small chains, and the space every selection guarantee (Theorem 2,
  Algorithm 1) is stated over.
* :class:`DPSeededSpace` — a *sparse* subset of ``A`` for long chains:
  the fanning-out variants ``E_h`` (which Theorem 2 selection requires),
  plus the DP-optimal parenthesizations of sampled training instances
  (:func:`repro.compiler.dp.dp_seed_trees`), plus a bounded rotation
  neighborhood around those seeds.  "On the Parenthesisations of Matrix
  Chains" (López/Karlsson/Bientinesi) observes that only a tiny essential
  subset of parenthesizations is ever instance-optimal; the DP seeds are
  exactly the members of that subset witnessed by the training set, and the
  neighborhood covers instances between seeds.  Compile cost drops from
  ``O(Catalan(n - 1))`` variants to roughly ``O(seeds · n^3)`` DP work plus
  a few hundred candidate builds.

Within a generated pool, penalties keep their paper semantics — they are
measured against the pool minimum, which for :class:`ExhaustiveSpace` is the
true optimum over ``A`` and for :class:`DPSeededSpace` a tight upper bound
anchored at the sampled instances.  Both spaces guarantee the fanning-out
variants are present (and are never evicted by ``max_variants``), so the
essential-set pass always finds its candidates in the cost matrix.

Strategy choice is a :class:`~repro.compiler.pipeline.CompileOptions` knob
(``variant_space`` = ``"auto"`` | ``"exhaustive"`` | ``"dp"`` |
``"dp-adaptive"``, plus ``max_variants``) and therefore part of the
compilation-cache key; ``auto`` picks exhaustive up to
:data:`AUTO_EXHAUSTIVE_MAX_N` matrices and DP-seeded beyond, and
``dp-adaptive`` grows the DP seeding until the held-out penalty plateaus.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import CompilationError
from repro.ir.chain import Chain
from repro.compiler.dp import dp_seed_trees
from repro.compiler.parenthesization import (
    ParenTree,
    catalan,
    iter_trees,
    rotations,
)
from repro.compiler.selection import (
    _tree_key,
    all_variants,
    cost_matrix,
    distinct_fanning_trees,
)
from repro.compiler.variant import Variant, build_variants

#: Longest chain ``variant_space="auto"`` still enumerates exhaustively:
#: Catalan(9) = 4862 variants from 11,253 shared steps.  Each further
#: matrix multiplies the pool by ~4, so beyond it auto is DP-seeded.
AUTO_EXHAUSTIVE_MAX_N = 10

#: Hard ceiling on eager Catalan enumeration: an explicit
#: ``variant_space="exhaustive"`` without ``max_variants`` refuses chains
#: with more parenthesizations than this (n >= 15) instead of hanging.
EXHAUSTIVE_VARIANT_LIMIT = 1_000_000

#: The recognised ``CompileOptions.variant_space`` values.
SPACE_NAMES = ("auto", "exhaustive", "dp", "dp-adaptive")


class VariantSpace:
    """One candidate-generation strategy for the ``enumerate`` stage.

    Subclasses set ``name`` and implement :meth:`generate`.  A space must
    return variants of the per-parenthesization family ``A`` *including*
    every distinct fanning-out variant ``E_h`` — the essential-set pass
    resolves its candidates against the pool by signature.
    """

    name: str = "<space>"

    #: Instrumentation of the most recent :meth:`generate` call (pool size,
    #: dedup hits, seed count, ...).  Every ``generate`` rebinds it on the
    #: instance; the enumerate pass copies it into
    #: ``PassContext.diagnostics["variant_pool"]`` for ``--timings`` and
    #: the serve ``stats`` response.  (Class-level fallback for spaces that
    #: have not generated yet.)
    diagnostics: dict = {}

    def generate(
        self, chain: Chain, training_instances: Optional[np.ndarray]
    ) -> list[Variant]:  # pragma: no cover - interface
        raise NotImplementedError

    def cache_token(self) -> tuple:
        """Hashable configuration, folded into the pipeline fingerprint
        when a space instance is attached to an ``EnumeratePass`` directly
        (options-driven spaces are keyed through ``CompileOptions``)."""
        return ()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} {self.cache_token()}>"


def fanning_trees(chain: Chain) -> list[ParenTree]:
    """The distinct fanning-out trees ``E_h``, smallest ``h`` first."""
    return list(distinct_fanning_trees(chain).values())


def _build_pool(chain: Chain, trees: list[ParenTree]) -> list[Variant]:
    """Variants for a deduplicated tree list, named by pool position."""
    return build_variants(chain, trees, [f"P{i}" for i in range(len(trees))])


class ExhaustiveSpace(VariantSpace):
    """Today's ``all_variants``: every parenthesization, eagerly.

    With ``max_variants`` set, enumeration goes through the lazy
    :func:`~repro.compiler.parenthesization.iter_trees` iterator and stops
    at the cap — the fanning-out trees are force-included (appended if the
    truncated prefix missed them) so selection still works.  Without a cap,
    chains beyond :data:`EXHAUSTIVE_VARIANT_LIMIT` parenthesizations are
    rejected up front rather than enumerated for hours.
    """

    name = "exhaustive"

    def __init__(self, max_variants: Optional[int] = None):
        if max_variants is not None and max_variants < 1:
            raise CompilationError("max_variants must be >= 1")
        self.max_variants = max_variants

    def generate(
        self, chain: Chain, training_instances: Optional[np.ndarray]
    ) -> list[Variant]:
        total = catalan(chain.n - 1)
        if self.max_variants is None:
            if total > EXHAUSTIVE_VARIANT_LIMIT:
                raise CompilationError(
                    f"chain of {chain.n} matrices has {total} parenthesizations"
                    f" (> {EXHAUSTIVE_VARIANT_LIMIT}); use variant_space='dp'"
                    " (or 'auto'), or bound enumeration with max_variants"
                )
            pool = all_variants(chain)
            self.diagnostics = self._diagnostics(len(pool), capped=False)
            return pool
        if total <= self.max_variants:
            # The cap admits the full set: the caller explicitly sized the
            # enumeration, so the blowup guard does not apply.
            pool = all_variants(chain)
            self.diagnostics = self._diagnostics(len(pool), capped=False)
            return pool
        trees: list[ParenTree] = []
        seen: set = set()
        for tree in iter_trees(chain.n):
            if len(trees) >= self.max_variants:
                break
            trees.append(tree)
            seen.add(_tree_key(tree))
        forced = 0
        for tree in fanning_trees(chain):
            if _tree_key(tree) not in seen:
                trees.append(tree)
                forced += 1
        self.diagnostics = self._diagnostics(
            len(trees), capped=True, forced_fanning=forced
        )
        return _build_pool(chain, trees)

    def _diagnostics(
        self, pool_size: int, *, capped: bool, forced_fanning: int = 0
    ) -> dict:
        return {
            "strategy": self.name,
            "pool_size": pool_size,
            "dedup_hits": 0,  # Catalan enumeration yields distinct trees
            "seed_count": 0,  # exhaustive pools are not seeded
            "capped": capped,
            "forced_fanning": forced_fanning,
        }

    def cache_token(self) -> tuple:
        return (self.max_variants,)


class DPSeededSpace(VariantSpace):
    """DP-seeded sparse candidate pool for long chains.

    The pool is, in priority order (earlier entries survive the
    ``max_variants`` cap):

    1. the distinct fanning-out trees ``E_h`` (never dropped — the
       essential-set pass needs all of them in the cost matrix);
    2. one DP-optimal tree per sampled training instance
       (``num_seeds`` instances, evenly spaced over the training set);
    3. ``neighborhood`` rounds of rotation perturbations around the seeds,
       covering instances whose optimum falls between two seeds.

    Everything is deduplicated by tree key, so the pool size is at most
    ``max_variants`` but typically far smaller — long general chains often
    have just a handful of distinct DP-optimal shapes.

    With ``adaptive=True`` (``variant_space="dp-adaptive"``), the seeding
    effort is *sized by measurement* instead of fixed knobs: the training
    set is split, pools of growing ``num_seeds``/``neighborhood`` are
    generated from the larger part, and each round's pool is scored by its
    mean held-out cost minimum in FLOPs, as every compile prices variants.
    Growth stops when the held-out penalty improves by less than
    ``plateau_rtol``, or after ``max_rounds`` doublings — "few
    parenthesisations are essential" (López et al.) says the plateau comes
    early, so the common case pays one extra round.
    """

    name = "dp"

    #: Pool bound applied when ``CompileOptions.max_variants`` is unset.
    DEFAULT_MAX_VARIANTS = 512
    #: How many training rows to run the per-instance DP on.
    DEFAULT_NUM_SEEDS = 32
    #: Adaptive mode: growth rounds after the first pool.
    DEFAULT_MAX_ROUNDS = 3
    #: Adaptive mode: relative held-out improvement that counts as progress.
    DEFAULT_PLATEAU_RTOL = 0.01
    #: Adaptive mode: every k-th training row is held out for scoring.
    HOLDOUT_STRIDE = 4

    def __init__(
        self,
        max_variants: Optional[int] = None,
        num_seeds: int = DEFAULT_NUM_SEEDS,
        neighborhood: int = 1,
        adaptive: bool = False,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        plateau_rtol: float = DEFAULT_PLATEAU_RTOL,
    ):
        if max_variants is not None and max_variants < 1:
            raise CompilationError("max_variants must be >= 1")
        if num_seeds < 1:
            raise CompilationError("num_seeds must be >= 1")
        if neighborhood < 0:
            raise CompilationError("neighborhood must be >= 0")
        if max_rounds < 0:
            raise CompilationError("max_rounds must be >= 0")
        if plateau_rtol < 0:
            raise CompilationError("plateau_rtol must be >= 0")
        self.max_variants = (
            max_variants if max_variants is not None else self.DEFAULT_MAX_VARIANTS
        )
        self.num_seeds = num_seeds
        self.neighborhood = neighborhood
        self.adaptive = adaptive
        self.max_rounds = max_rounds
        self.plateau_rtol = plateau_rtol
        if adaptive:
            self.name = "dp-adaptive"  # instance attr shadows the class's

    def generate(
        self, chain: Chain, training_instances: Optional[np.ndarray]
    ) -> list[Variant]:
        if training_instances is None:
            raise CompilationError(
                "the DP-seeded variant space needs training instances; run "
                "the sample pass (or supply training_instances) first"
            )
        if not self.adaptive:
            return self._generate_once(
                chain, training_instances, self.num_seeds, self.neighborhood
            )
        return self._generate_adaptive(chain, np.asarray(training_instances))

    def _generate_once(
        self,
        chain: Chain,
        training_instances: np.ndarray,
        num_seeds: int,
        neighborhood: int,
    ) -> list[Variant]:
        """One pool at explicit seeding parameters (rebinds diagnostics)."""
        trees = fanning_trees(chain)
        seen = {_tree_key(tree) for tree in trees}
        budget = max(self.max_variants, len(trees))
        dedup_hits = 0

        def admit(tree: ParenTree) -> bool:
            nonlocal dedup_hits
            key = _tree_key(tree)
            if key in seen:
                dedup_hits += 1
                return False
            seen.add(key)
            trees.append(tree)
            return True

        def finish(truncated: bool) -> list[Variant]:
            self.diagnostics = {
                "strategy": self.name,
                "pool_size": len(trees),
                "fanning": fanning,
                "seed_count": seed_count,
                "num_seeds": num_seeds,
                "neighborhood": neighborhood,
                "dedup_hits": dedup_hits,
                "capped": truncated,
            }
            return _build_pool(chain, trees)

        fanning = len(trees)
        seeds = dp_seed_trees(chain, training_instances, num_seeds)
        seed_count = len(seeds)
        frontier = [tree for tree in seeds if len(trees) < budget and admit(tree)]
        for _ in range(neighborhood):
            next_frontier: list[ParenTree] = []
            for tree in frontier:
                for neighbor in rotations(tree):
                    if len(trees) >= budget:
                        return finish(True)
                    if admit(neighbor):
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return finish(False)

    def _generate_adaptive(
        self, chain: Chain, training_instances: np.ndarray
    ) -> list[Variant]:
        """Grow the seeding effort until the held-out penalty plateaus."""
        if training_instances.shape[0] > self.HOLDOUT_STRIDE:
            mask = np.arange(training_instances.shape[0]) % self.HOLDOUT_STRIDE == 0
            holdout, train = training_instances[mask], training_instances[~mask]
        else:
            # Too few rows to split: score on what we have.
            holdout = train = training_instances
        num_seeds, neighborhood = self.num_seeds, self.neighborhood
        history: list[dict] = []
        pool = self._generate_once(chain, train, num_seeds, neighborhood)
        penalty = self._holdout_penalty(pool, holdout)
        history.append(
            {"num_seeds": num_seeds, "neighborhood": neighborhood,
             "pool_size": len(pool), "holdout_penalty": penalty}
        )
        for _ in range(self.max_rounds):
            if len(pool) >= self.max_variants:
                break  # the cap is binding; more seeds cannot widen the pool
            grown_seeds = min(num_seeds * 2, train.shape[0] or num_seeds * 2)
            grown_hood = neighborhood + 1
            if grown_seeds == num_seeds and grown_hood == neighborhood:
                break
            candidate = self._generate_once(chain, train, grown_seeds, grown_hood)
            candidate_penalty = self._holdout_penalty(candidate, holdout)
            history.append(
                {"num_seeds": grown_seeds, "neighborhood": grown_hood,
                 "pool_size": len(candidate), "holdout_penalty": candidate_penalty}
            )
            improved = (
                penalty > 0
                and (penalty - candidate_penalty) / penalty >= self.plateau_rtol
            )
            # The grown pool is a superset-quality candidate: keep it even
            # on the plateau round (it is never worse on the holdout).
            if candidate_penalty <= penalty:
                pool, penalty = candidate, candidate_penalty
                num_seeds, neighborhood = grown_seeds, grown_hood
            if not improved:
                break
        self.diagnostics = dict(self.diagnostics)
        self.diagnostics.update(
            {
                "strategy": self.name,
                "adaptive_rounds": len(history),
                "adaptive_history": history,
                "num_seeds": num_seeds,
                "neighborhood": neighborhood,
                "holdout_penalty": penalty,
                "pool_size": len(pool),
            }
        )
        return pool

    @staticmethod
    def _holdout_penalty(pool: list[Variant], holdout: np.ndarray) -> float:
        """Mean per-instance pool-minimum FLOP cost on the held-out rows."""
        return float(cost_matrix(pool, holdout).min(axis=0).mean())

    def cache_token(self) -> tuple:
        token: tuple = (self.max_variants, self.num_seeds, self.neighborhood)
        if self.adaptive:
            token += ("adaptive", self.max_rounds, self.plateau_rtol)
        return token


def make_space(name: str, max_variants: Optional[int] = None) -> VariantSpace:
    """Instantiate a concrete (non-``auto``) space by its options name."""
    if name == "exhaustive":
        return ExhaustiveSpace(max_variants=max_variants)
    if name == "dp":
        return DPSeededSpace(max_variants=max_variants)
    if name == "dp-adaptive":
        return DPSeededSpace(max_variants=max_variants, adaptive=True)
    raise CompilationError(
        f"unknown variant space {name!r}; expected one of {SPACE_NAMES}"
    )


def resolve_space(options, chain: Chain) -> VariantSpace:
    """The space a chain compiles under, resolving ``"auto"`` by length.

    ``auto`` stays exhaustive up to :data:`AUTO_EXHAUSTIVE_MAX_N` matrices
    — where the full set *is* tractable and is the paper's ground truth —
    and switches to the DP-seeded space beyond.  The raw option strings
    (not the resolution) are what the compilation-cache key records; that
    is still sound because the chain's structural key, which fixes ``n``,
    is part of the same key.
    """
    name = options.variant_space
    if name == "auto":
        name = "exhaustive" if chain.n <= AUTO_EXHAUSTIVE_MAX_N else "dp"
    return make_space(name, max_variants=options.max_variants)
