"""The batched FLOP cost-matrix construction matches per-variant evaluation."""

import numpy as np
import pytest

from repro.compiler.selection import CostMatrix, all_variants, flop_cost_matrix
from repro.experiments.sampling import sample_instances, sample_shapes

from conftest import general_chain, make_general, make_lower, random_option_chain


def reference_costs(variants, instances):
    return np.stack([v.flop_cost_many(instances) for v in variants])


class TestBatchedCostMatrix:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_variant_evaluation(self, n, rng):
        chain = general_chain(n)
        variants = all_variants(chain)
        instances = sample_instances(chain, 64, rng)
        batched = flop_cost_matrix(variants, instances)
        np.testing.assert_allclose(
            batched, reference_costs(variants, np.asarray(instances, float))
        )

    def test_matches_on_structured_chains(self, rng):
        for _ in range(5):
            chain = random_option_chain(5, rng, allow_transpose=True)
            variants = all_variants(chain)
            instances = sample_instances(chain, 40, rng)
            np.testing.assert_allclose(
                flop_cost_matrix(variants, instances),
                reference_costs(variants, np.asarray(instances, float)),
            )

    def test_small_term_blocks_chunk_correctly(self, rng):
        chain = make_general("A") * make_lower("L").inv * make_general("B")
        variants = all_variants(chain)
        instances = sample_instances(chain, 16, rng)
        full = flop_cost_matrix(variants, instances)
        chunked = flop_cost_matrix(variants, instances, term_block=2)
        np.testing.assert_allclose(full, chunked)

    def test_cost_matrix_default_uses_batched_path(self, rng):
        chain = general_chain(4)
        variants = all_variants(chain)
        instances = sample_instances(chain, 32, rng)
        matrix = CostMatrix(variants, instances)
        np.testing.assert_allclose(
            matrix.costs, reference_costs(variants, matrix.instances)
        )
        np.testing.assert_allclose(
            matrix.optimal, matrix.costs.min(axis=0)
        )

    def test_custom_evaluator_path_unchanged(self, rng):
        chain = general_chain(3)
        variants = all_variants(chain)
        instances = sample_instances(chain, 8, rng)
        matrix = CostMatrix(
            variants,
            instances,
            estimator=lambda v, q: float(len(v.steps)),
        )
        assert np.all(matrix.costs == len(variants[0].steps))

    def test_fixup_costs_included(self, rng):
        # An inverted final result carries fix-up terms; the batched path
        # must charge them identically.
        lower = make_lower("L")
        chain = lower.inv * make_lower("K").inv
        variants = all_variants(chain)
        instances = sample_instances(chain, 8, rng)
        np.testing.assert_allclose(
            flop_cost_matrix(variants, instances),
            reference_costs(variants, np.asarray(instances, float)),
        )

    def test_empty_variants(self):
        costs = flop_cost_matrix([], np.ones((5, 3)))
        assert costs.shape == (0, 5)


class TestDegenerateInputs:
    """Empty variant lists and zero-instance arrays return shaped zeros.

    Regression guard: the broadcast-and-accumulate sweep must never see a
    zero-length axis (some numpy versions refuse to broadcast a size-1
    dimension to 0), and a 1-D array must fail loudly instead of indexing
    ``shape[1]``.
    """

    def test_zero_instances_well_shaped(self):
        chain = general_chain(4)
        variants = all_variants(chain)
        costs = flop_cost_matrix(variants, np.empty((0, 5)))
        assert costs.shape == (len(variants), 0)

    def test_empty_variants_well_shaped(self, rng):
        chain = general_chain(4)
        instances = sample_instances(chain, 7, rng)
        costs = flop_cost_matrix([], instances)
        assert costs.shape == (0, 7)

    def test_both_empty_well_shaped(self):
        assert flop_cost_matrix([], np.empty((0, 5))).shape == (0, 0)

    def test_one_dimensional_input_rejected(self):
        chain = general_chain(4)
        with pytest.raises(ValueError, match="2-D"):
            flop_cost_matrix(all_variants(chain), np.empty((0,)))

    def test_zero_instance_cost_matrix_object(self):
        # The CostMatrix wrapper stays consistent on an empty instance set.
        chain = general_chain(3)
        matrix = CostMatrix(all_variants(chain), np.empty((0, 4)))
        assert matrix.num_instances == 0
        assert matrix.costs.shape == (len(matrix.variants), 0)
        assert matrix.ratios([0]).shape == (0,)


class TestTermStack:
    """The flatten-once/evaluate-many split behind the dispatcher hot path."""

    def test_small_and_blocked_paths_agree(self, rng, monkeypatch):
        from repro.compiler import selection
        from repro.compiler.selection import (
            evaluate_cost_terms,
            flatten_cost_terms,
        )

        chain = random_option_chain(6, rng)
        variants = all_variants(chain)
        instances = sample_instances(chain, 30, rng)
        stack = flatten_cost_terms(variants, chain.n + 1)
        small = evaluate_cost_terms(stack, len(variants), instances)
        # Force the masked block sweep onto the same data (threshold 0
        # disables the direct-pow path; a tiny term_block chunks it).
        monkeypatch.setattr(selection, "DIRECT_EVAL_LIMIT", 0)
        blocked = evaluate_cost_terms(
            stack, len(variants), instances, term_block=3
        )
        np.testing.assert_allclose(small, blocked)
        for i, variant in enumerate(variants):
            np.testing.assert_allclose(
                small[i], variant.flop_cost_many(instances)
            )

    def test_empty_stack_evaluates_to_zeros(self):
        from repro.compiler.selection import (
            evaluate_cost_terms,
            flatten_cost_terms,
        )

        stack = flatten_cost_terms([], 4)
        costs = evaluate_cost_terms(stack, 0, np.zeros((5, 4)))
        assert costs.shape == (0, 5)

    def test_dispatcher_caches_the_stack(self, rng):
        from repro.runtime.dispatcher import Dispatcher

        chain = general_chain(4)
        dispatcher = Dispatcher(chain, all_variants(chain))
        assert dispatcher._term_stack is None
        dispatcher.select((4, 5, 6, 7, 8))
        stack = dispatcher._term_stack
        assert stack is not None
        dispatcher.select((8, 7, 6, 5, 4))
        assert dispatcher._term_stack is stack  # built once, reused
