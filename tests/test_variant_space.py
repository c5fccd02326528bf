"""The pluggable variant-space layer: strategies, auto-selection, caching.

Covers the three contracts of :mod:`repro.compiler.variant_space`:

* every space emits a subset of the per-parenthesization family ``A`` that
  includes all distinct fanning-out variants (so Theorem 2 selection works);
* ``variant_space``/``max_variants`` are part of the compilation-cache key
  (sessions differing only there never share entries, in memory or on disk);
* on small chains, the DP-seeded space's selected dispatch set is penalty-
  equivalent to exhaustive enumeration (the equivalence guard).
"""

import numpy as np
import pytest

from repro.errors import CompilationError
from repro.compiler.cache import compilation_key
from repro.compiler.pipeline import CompileOptions, EnumeratePass, PassContext, default_pipeline
from repro.compiler.selection import CostMatrix, _tree_key, all_variants
from repro.compiler.session import CompilerSession
from repro.compiler.variant_space import (
    AUTO_EXHAUSTIVE_MAX_N,
    DPSeededSpace,
    ExhaustiveSpace,
    fanning_trees,
    make_space,
    resolve_space,
)
from repro.experiments.sampling import sample_instances
from repro.serve.backends import DiskBackend

from conftest import general_chain, random_option_chain


def tree_keys(variants):
    return {_tree_key(v.tree) for v in variants}


def fanning_keys(chain):
    return {_tree_key(t) for t in fanning_trees(chain)}


def training(chain, count=60, seed=0, low=2, high=1000):
    rng = np.random.default_rng(seed)
    return sample_instances(chain, count, rng, low=low, high=high)


class TestExhaustiveSpace:
    def test_matches_all_variants(self):
        chain = general_chain(5)
        pool = ExhaustiveSpace().generate(chain, None)
        assert tree_keys(pool) == tree_keys(all_variants(chain))

    def test_cap_keeps_fanning_variants(self):
        chain = general_chain(6)
        pool = ExhaustiveSpace(max_variants=5).generate(chain, None)
        assert len(pool) <= 5 + len(fanning_trees(chain))
        assert fanning_keys(chain) <= tree_keys(pool)

    def test_cap_deduplicates(self):
        chain = general_chain(5)
        pool = ExhaustiveSpace(max_variants=10).generate(chain, None)
        assert len(tree_keys(pool)) == len(pool)

    def test_refuses_eager_catalan_blowup(self):
        # n=16 has Catalan(15) ~ 9.7M parenthesizations; an uncapped
        # exhaustive space must refuse rather than hang.
        chain = general_chain(16)
        with pytest.raises(CompilationError, match="variant_space='dp'"):
            ExhaustiveSpace().generate(chain, None)

    def test_capped_long_chain_is_tractable(self):
        chain = general_chain(16)
        pool = ExhaustiveSpace(max_variants=20).generate(chain, None)
        assert len(pool) <= 20 + chain.n + 1
        assert fanning_keys(chain) <= tree_keys(pool)


class TestDPSeededSpace:
    def test_pool_contains_fanning_and_seeds(self):
        chain = general_chain(6)
        instances = training(chain)
        pool = DPSeededSpace().generate(chain, instances)
        assert fanning_keys(chain) <= tree_keys(pool)
        # The training-set DP optima are all seeded into the pool.
        from repro.compiler.dp import dp_seed_trees

        for tree in dp_seed_trees(chain, instances, DPSeededSpace.DEFAULT_NUM_SEEDS):
            assert _tree_key(tree) in tree_keys(pool)

    def test_pool_is_deduplicated_and_bounded(self):
        chain = general_chain(7)
        pool = DPSeededSpace(max_variants=25).generate(chain, training(chain))
        assert len(tree_keys(pool)) == len(pool)
        assert len(pool) <= max(25, len(fanning_trees(chain)))

    def test_requires_training_instances(self):
        with pytest.raises(CompilationError, match="training instances"):
            DPSeededSpace().generate(general_chain(5), None)

    def test_neighborhood_zero_is_seeds_only(self):
        chain = general_chain(6)
        instances = training(chain)
        bare = DPSeededSpace(neighborhood=0).generate(chain, instances)
        expanded = DPSeededSpace(neighborhood=1).generate(chain, instances)
        assert tree_keys(bare) <= tree_keys(expanded)

    def test_invalid_parameters(self):
        with pytest.raises(CompilationError):
            DPSeededSpace(max_variants=0)
        with pytest.raises(CompilationError):
            DPSeededSpace(num_seeds=0)
        with pytest.raises(CompilationError):
            DPSeededSpace(neighborhood=-1)


class TestResolution:
    def test_auto_picks_exhaustive_for_short_chains(self):
        options = CompileOptions()
        space = resolve_space(options, general_chain(AUTO_EXHAUSTIVE_MAX_N))
        assert isinstance(space, ExhaustiveSpace)

    def test_auto_picks_dp_beyond_threshold(self):
        options = CompileOptions()
        space = resolve_space(options, general_chain(AUTO_EXHAUSTIVE_MAX_N + 1))
        assert isinstance(space, DPSeededSpace)

    def test_explicit_names_win_over_length(self):
        options = CompileOptions(variant_space="dp")
        assert isinstance(resolve_space(options, general_chain(3)), DPSeededSpace)
        options = CompileOptions(variant_space="exhaustive")
        assert isinstance(
            resolve_space(options, general_chain(12)), ExhaustiveSpace
        )

    def test_max_variants_reaches_the_space(self):
        options = CompileOptions(variant_space="dp", max_variants=33)
        assert resolve_space(options, general_chain(4)).max_variants == 33

    def test_unknown_space_rejected(self):
        with pytest.raises(CompilationError, match="variant_space"):
            CompileOptions(variant_space="genetic")
        with pytest.raises(CompilationError, match="unknown variant space"):
            make_space("genetic")

    def test_invalid_max_variants_rejected(self):
        with pytest.raises(CompilationError, match="max_variants"):
            CompileOptions(max_variants=0)


class TestPipelineIntegration:
    def test_long_chain_compiles_through_auto(self):
        # n=12 could never compile eagerly in a test (Catalan(11) = 58786
        # variants x instances); through auto -> DP-seeded it is fast.
        session = CompilerSession()
        generated = session.compile(
            general_chain(12), num_training_instances=60
        )
        assert len(generated.variants) >= 1
        assert session.last_context.executed[:4] == [
            "parse", "simplify", "sample", "enumerate",
        ]
        variant, cost = generated.select(
            tuple(int(s) for s in training(general_chain(12), 1, seed=3)[0])
        )
        assert cost > 0

    def test_explicit_space_instance_on_the_pass(self):
        # A space pinned at pass construction wins over the options.
        space = DPSeededSpace(max_variants=40)
        pipeline = default_pipeline().replaced("enumerate", EnumeratePass(space))
        ctx = PassContext(
            source=general_chain(5),
            options=CompileOptions(num_training_instances=30),
        )
        pipeline.run(ctx)
        assert len(ctx.variants) <= 40
        assert fanning_keys(ctx.chain) <= tree_keys(ctx.variants)

    def test_pinned_space_changes_pipeline_fingerprint(self):
        base = default_pipeline()
        pinned = base.replaced("enumerate", EnumeratePass(DPSeededSpace()))
        other = base.replaced(
            "enumerate", EnumeratePass(DPSeededSpace(max_variants=7))
        )
        assert len({base.fingerprint(), pinned.fingerprint(), other.fingerprint()}) == 3


class TestCacheKeys:
    def test_options_token_separates_spaces(self):
        chain = general_chain(5)
        keys = {
            compilation_key(chain, CompileOptions(variant_space=name))
            for name in ("auto", "exhaustive", "dp")
        }
        assert len(keys) == 3

    def test_options_token_separates_max_variants(self):
        chain = general_chain(5)
        keys = {
            compilation_key(chain, CompileOptions(max_variants=mv))
            for mv in (None, 10, 20)
        }
        assert len(keys) == 3

    def test_sessions_with_different_spaces_do_not_share_memory_cache(self):
        cache_chain = general_chain(6)
        session = CompilerSession()
        session.compile(
            cache_chain, num_training_instances=40, variant_space="exhaustive"
        )
        session.compile(cache_chain, num_training_instances=40, variant_space="dp")
        stats = session.cache_stats()
        assert stats.hits == 0 and stats.misses == 2

    def test_sessions_with_different_spaces_do_not_share_disk_cache(self, tmp_path):
        cache_chain = general_chain(6)
        a = CompilerSession(cache_backend=DiskBackend(tmp_path))
        a.compile(
            cache_chain, num_training_instances=40, variant_space="exhaustive"
        )
        assert a.cache_stats().disk_writes == 1

        b = CompilerSession(cache_backend=DiskBackend(tmp_path))
        b.compile(cache_chain, num_training_instances=40, variant_space="dp")
        stats = b.cache_stats()
        assert stats.hits == 0 and stats.misses == 1 and stats.disk_hits == 0

        # Sanity: the *same* knobs do share the disk entry across sessions.
        c = CompilerSession(cache_backend=DiskBackend(tmp_path))
        c.compile(
            cache_chain, num_training_instances=40, variant_space="exhaustive"
        )
        assert c.cache_stats().disk_hits == 1

    def test_max_variants_does_not_share_disk_cache(self, tmp_path):
        cache_chain = general_chain(6)
        a = CompilerSession(cache_backend=DiskBackend(tmp_path))
        a.compile(cache_chain, num_training_instances=40, max_variants=50)
        b = CompilerSession(cache_backend=DiskBackend(tmp_path))
        b.compile(cache_chain, num_training_instances=40, max_variants=60)
        stats = b.cache_stats()
        assert stats.hits == 0 and stats.disk_hits == 0

    def test_essential_set_reproducible_across_exhaustive_reruns(self):
        # Same structure + options, cache off: the selection pass must be
        # deterministic run to run (the cache-soundness precondition).
        chain = random_option_chain(5, np.random.default_rng(17))
        session = CompilerSession()
        runs = [
            session.compile(
                chain,
                num_training_instances=50,
                variant_space="exhaustive",
                use_cache=False,
            )
            for _ in range(2)
        ]
        assert [v.signature() for v in runs[0].variants] == [
            v.signature() for v in runs[1].variants
        ]
        assert [v.name for v in runs[0].variants] == [
            v.name for v in runs[1].variants
        ]


class TestEquivalenceGuard:
    """DP-seeded selection matches exhaustive selection on small chains.

    The acceptance guard of the variant-space layer: across random
    feature/size scenarios (triangular, symmetric, transposed operands
    included), the dispatch set selected through :class:`DPSeededSpace`
    achieves an average penalty — measured per
    :meth:`CostMatrix.average_penalty` against the *exhaustive* optimum on
    held-out instances — within a small tolerance of the set selected
    through :class:`ExhaustiveSpace`.
    """

    TOLERANCE = 0.05

    def _held_out_penalty(self, chain, selected, matrix):
        sig_to_idx = {
            v.signature(): i for i, v in enumerate(matrix.variants)
        }
        indices = [sig_to_idx[v.signature()] for v in selected]
        return matrix.average_penalty(indices)

    @pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (6, 2), (7, 3), (8, 4)])
    def test_penalty_parity_on_small_chains(self, n, seed):
        rng = np.random.default_rng(seed)
        chain = random_option_chain(n, rng, allow_transpose=True)
        session = CompilerSession()
        by_space = {
            name: session.compile(
                chain,
                num_training_instances=80,
                variant_space=name,
                seed=7,
                use_cache=False,
            )
            for name in ("exhaustive", "dp")
        }
        held_out = sample_instances(chain, 60, rng, low=2, high=1000)
        matrix = CostMatrix(all_variants(chain), held_out)
        exhaustive_penalty = self._held_out_penalty(
            chain, by_space["exhaustive"].variants, matrix
        )
        dp_penalty = self._held_out_penalty(
            chain, by_space["dp"].variants, matrix
        )
        assert dp_penalty <= exhaustive_penalty + self.TOLERANCE

    def test_penalty_parity_with_expansion(self):
        rng = np.random.default_rng(9)
        chain = random_option_chain(6, rng, allow_transpose=True)
        session = CompilerSession()
        by_space = {
            name: session.compile(
                chain,
                num_training_instances=80,
                variant_space=name,
                expand_by=2,
                seed=7,
                use_cache=False,
            )
            for name in ("exhaustive", "dp")
        }
        held_out = sample_instances(chain, 60, rng, low=2, high=1000)
        matrix = CostMatrix(all_variants(chain), held_out)
        exhaustive_penalty = self._held_out_penalty(
            chain, by_space["exhaustive"].variants, matrix
        )
        dp_penalty = self._held_out_penalty(
            chain, by_space["dp"].variants, matrix
        )
        assert dp_penalty <= exhaustive_penalty + self.TOLERANCE


class TestReviewRegressions:
    def test_huge_cap_admits_the_guarded_size(self):
        # An explicit max_variants >= the Catalan total means the caller
        # sized the enumeration: the blowup guard must not fire.  n=7 with
        # an over-generous cap exercises the same branch cheaply.
        chain = general_chain(7)
        pool = ExhaustiveSpace(max_variants=10_000_000).generate(chain, None)
        assert tree_keys(pool) == tree_keys(all_variants(chain))

    def test_zero_training_instances_rejected_up_front(self):
        with pytest.raises(CompilationError, match="num_training_instances"):
            CompileOptions(num_training_instances=0)

    def test_empty_explicit_training_set_rejected(self):
        session = CompilerSession()
        with pytest.raises(CompilationError, match="at least one instance"):
            session.compile(
                general_chain(4), training_instances=np.empty((0, 5))
            )

    def test_fanning_trees_match_selection_collapse_rule(self):
        from repro.compiler.selection import distinct_fanning_trees

        for n in (2, 3, 4, 6):
            chain = general_chain(n)
            assert [_tree_key(t) for t in fanning_trees(chain)] == [
                _tree_key(t) for t in distinct_fanning_trees(chain).values()
            ]


class TestDiagnostics:
    def test_exhaustive_space_reports_pool(self):
        chain = general_chain(5)
        space = ExhaustiveSpace()
        pool = space.generate(chain, None)
        diag = space.diagnostics
        assert diag["strategy"] == "exhaustive"
        assert diag["pool_size"] == len(pool)
        assert diag["capped"] is False

    def test_capped_exhaustive_reports_forced_fanning(self):
        chain = general_chain(7)
        space = ExhaustiveSpace(max_variants=5)
        pool = space.generate(chain, None)
        diag = space.diagnostics
        assert diag["capped"] is True
        assert diag["pool_size"] == len(pool)
        assert diag["forced_fanning"] >= 1

    def test_dp_space_reports_seeds_and_dedup(self):
        chain = general_chain(12)
        space = DPSeededSpace(num_seeds=8, neighborhood=1)
        pool = space.generate(chain, training(chain))
        diag = space.diagnostics
        assert diag["strategy"] == "dp"
        assert diag["pool_size"] == len(pool)
        assert 1 <= diag["seed_count"] <= 8  # dp_seed_trees dedupes
        assert diag["fanning"] >= chain.n - 1
        assert diag["dedup_hits"] >= 0

    def test_enumerate_pass_publishes_variant_pool_diagnostics(self):
        session = CompilerSession()
        session.compile(general_chain(12), num_training_instances=40)
        pool = session.last_context.diagnostics["variant_pool"]
        assert pool["strategy"] == "dp"       # auto resolved by length
        assert pool["requested"] == "auto"    # the raw option, pre-resolution
        assert pool["pool_size"] >= 1
        assert pool["seed_count"] >= 1

    def test_single_matrix_chain_diagnostics(self):
        session = CompilerSession()
        session.compile(general_chain(1), num_training_instances=5)
        pool = session.last_context.diagnostics["variant_pool"]
        assert pool == {
            "strategy": "single", "requested": "auto", "pool_size": 1,
        }

    def test_cache_hit_skips_enumeration_diagnostics(self):
        session = CompilerSession()
        session.compile(general_chain(4), num_training_instances=20)
        session.compile(general_chain(4), num_training_instances=20)
        # The hit path never ran the enumerate pass: no stale pool report.
        assert "variant_pool" not in session.last_context.diagnostics


class TestAdaptiveDPSpace:
    """``dp-adaptive``: seeding effort sized by held-out penalty plateau."""

    def test_make_space_builds_adaptive(self):
        space = make_space("dp-adaptive", max_variants=64)
        assert isinstance(space, DPSeededSpace)
        assert space.adaptive is True
        assert space.name == "dp-adaptive"
        # The plain dp space is untouched by the instance-attr shadow.
        assert make_space("dp").name == "dp"

    def test_resolves_through_compile_options(self):
        from repro.compiler.variant_space import resolve_space

        options = CompileOptions(variant_space="dp-adaptive", max_variants=32)
        space = resolve_space(options, general_chain(12))
        assert isinstance(space, DPSeededSpace) and space.adaptive

    def test_generate_reports_adaptive_diagnostics(self):
        chain = general_chain(12)
        space = DPSeededSpace(max_variants=64, num_seeds=2, adaptive=True)
        pool = space.generate(chain, training(chain, count=80))
        diag = space.diagnostics
        assert diag["strategy"] == "dp-adaptive"
        assert diag["adaptive_rounds"] == len(diag["adaptive_history"]) >= 1
        assert diag["pool_size"] == len(pool)
        assert diag["holdout_penalty"] > 0
        assert diag["num_seeds"] >= 2
        assert fanning_keys(chain) <= tree_keys(pool)

    def test_growth_never_worsens_the_holdout_penalty(self):
        chain = general_chain(12)
        space = DPSeededSpace(max_variants=128, num_seeds=2, adaptive=True)
        space.generate(chain, training(chain, count=80))
        history = space.diagnostics["adaptive_history"]
        kept = space.diagnostics["holdout_penalty"]
        assert kept <= history[0]["holdout_penalty"]
        assert kept == min(round_["holdout_penalty"] for round_ in history)

    def test_rounds_grow_seeds_and_neighborhood(self):
        chain = general_chain(12)
        space = DPSeededSpace(
            max_variants=128, num_seeds=2, neighborhood=0, adaptive=True
        )
        space.generate(chain, training(chain, count=80))
        history = space.diagnostics["adaptive_history"]
        for earlier, later in zip(history, history[1:]):
            assert later["num_seeds"] == min(earlier["num_seeds"] * 2, 60)
            assert later["neighborhood"] == earlier["neighborhood"] + 1

    def test_max_rounds_zero_is_one_shot(self):
        chain = general_chain(10)
        space = DPSeededSpace(
            max_variants=64, num_seeds=4, adaptive=True, max_rounds=0
        )
        space.generate(chain, training(chain, count=40))
        assert space.diagnostics["adaptive_rounds"] == 1
        assert space.diagnostics["num_seeds"] == 4

    def test_total_plateau_tolerance_stops_after_first_probe(self):
        chain = general_chain(10)
        space = DPSeededSpace(
            max_variants=64, num_seeds=2, adaptive=True, plateau_rtol=0.99
        )
        space.generate(chain, training(chain, count=40))
        # Demanding a 99% improvement per round: the first grown candidate
        # cannot qualify, so growth stops after probing it once.
        assert space.diagnostics["adaptive_rounds"] <= 2

    def test_tiny_training_set_skips_the_split(self):
        chain = general_chain(8)
        space = DPSeededSpace(max_variants=32, num_seeds=2, adaptive=True)
        pool = space.generate(chain, training(chain, count=3))
        assert len(pool) >= 1
        assert space.diagnostics["holdout_penalty"] > 0

    def test_cache_token_separates_adaptive_from_plain_dp(self):
        plain = DPSeededSpace(max_variants=64)
        adaptive = DPSeededSpace(max_variants=64, adaptive=True)
        assert plain.cache_token() != adaptive.cache_token()
        assert (
            DPSeededSpace(max_variants=64, adaptive=True, plateau_rtol=0.05)
            .cache_token()
            != adaptive.cache_token()
        )

    def test_adaptive_compiles_through_the_session(self):
        session = CompilerSession()
        generated = session.compile(
            general_chain(12),
            num_training_instances=40,
            variant_space="dp-adaptive",
        )
        pool = session.last_context.diagnostics["variant_pool"]
        assert pool["strategy"] == "dp-adaptive"
        assert pool["requested"] == "dp-adaptive"
        assert pool["adaptive_rounds"] >= 1
        # The selected dispatch set is a subset of the candidate pool.
        assert 1 <= len(generated.variants) <= pool["pool_size"]

    def test_adaptive_parameter_validation(self):
        with pytest.raises(CompilationError):
            DPSeededSpace(adaptive=True, max_rounds=-1)
        with pytest.raises(CompilationError):
            DPSeededSpace(adaptive=True, plateau_rtol=-0.1)
