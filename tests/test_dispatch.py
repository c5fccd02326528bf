"""Tests for the run-time dispatcher (Fig. 1)."""

import numpy as np
import pytest

from repro.errors import DispatchError
from repro.runtime.dispatcher import Dispatcher, flop_estimator
from repro.runtime.executor import naive_evaluate, random_instance_arrays
from repro.compiler.selection import all_variants, optimal_cost
from repro.experiments.sampling import sample_instances

from conftest import general_chain, random_option_chain, small_sizes_for


class TestSelection:
    def test_selects_argmin(self):
        chain = general_chain(4)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, variants)
        q = (30, 2, 40, 3, 50)
        variant, cost = dispatcher.select(q)
        assert cost == pytest.approx(optimal_cost(chain, q))
        assert variant.flop_cost(q) == pytest.approx(cost)

    def test_selection_changes_with_sizes(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, variants)
        left_first, _ = dispatcher.select((2, 3, 2, 100))
        right_first, _ = dispatcher.select((100, 2, 3, 2))
        assert left_first.signature() != right_first.signature()

    def test_equal_cost_tie_breaks_to_earliest_variant(self):
        """Documented tie-break: strict `<` keeps the first-listed variant.

        The selected-variant order is deterministic (Theorem 2 class order,
        then expansion appends), so under a cost tie the dispatcher's pick
        is stable run-to-run — the serving layer relies on this for
        reproducible dispatch answers.
        """
        chain = general_chain(3)
        variants = all_variants(chain)
        assert len(variants) >= 2

        def constant_estimator(variant, sizes):
            return 42.0  # every variant ties

        forward = Dispatcher(chain, variants, cost_estimator=constant_estimator)
        reversed_order = Dispatcher(
            chain, list(reversed(variants)), cost_estimator=constant_estimator
        )
        q = (4, 5, 6, 7)
        picked, cost = forward.select(q)
        assert cost == 42.0
        assert picked.signature() == variants[0].signature()
        # The tie-break follows the variant order, not anything hidden.
        other, _ = reversed_order.select(q)
        assert other.signature() == variants[-1].signature()
        # Stable across repeated calls.
        assert all(
            forward.select(q)[0].signature() == picked.signature()
            for _ in range(10)
        )

    def test_tie_break_under_real_cost_tie(self):
        """A symmetric instance where both parenthesizations cost the same."""
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, variants)
        q = (10, 10, 10, 10)  # square chain: (AB)C and A(BC) tie exactly
        costs = [flop_estimator(v, q) for v in variants]
        assert costs[0] == costs[1]  # the tie is real
        picked, _ = dispatcher.select(q)
        assert picked.signature() == variants[0].signature()

    def test_costs_listing(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        listing = dispatcher.costs((4, 5, 6, 7))
        assert len(listing) == 2
        for _, cost in listing:
            assert cost > 0

    def test_custom_estimator(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        # An estimator that inverts preferences picks the worst variant.
        dispatcher = Dispatcher(
            chain, variants, cost_estimator=lambda v, q: -flop_estimator(v, q)
        )
        q = (2, 3, 2, 100)
        worst, _ = dispatcher.select(q)
        best = min(variants, key=lambda v: v.flop_cost(q))
        assert worst.signature() != best.signature()


class TestBatchedSelection:
    def test_select_many_matches_per_instance_select(self):
        chain = general_chain(4)
        dispatcher = Dispatcher(chain, all_variants(chain))
        rng = np.random.default_rng(3)
        instances = sample_instances(chain, 40, rng, low=2, high=500)
        batched = dispatcher.select_many(instances)
        assert len(batched) == 40
        for q, (variant, cost) in zip(instances, batched):
            q = tuple(int(x) for x in q)
            expected_cost = min(v.flop_cost(q) for v in dispatcher.variants)
            assert cost == pytest.approx(expected_cost)
            assert variant.flop_cost(q) == pytest.approx(cost)

    def test_select_many_keeps_first_minimum_tie_break(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        duplicated = variants + variants  # every cost ties pairwise
        dispatcher = Dispatcher(chain, duplicated)
        picks = dispatcher.select_many([(5, 6, 7, 8), (100, 2, 3, 2)])
        for variant, _ in picks:
            # The winner is always from the first copy of the list.
            assert duplicated.index(variant) < len(variants)

    def test_cost_matrix_shape_and_values(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, variants)
        rng = np.random.default_rng(5)
        instances = sample_instances(chain, 7, rng)
        matrix = dispatcher.cost_matrix(instances)
        assert matrix.shape == (len(variants), 7)
        for i, variant in enumerate(variants):
            for j, q in enumerate(instances):
                q = tuple(int(x) for x in q)
                assert matrix[i, j] == pytest.approx(variant.flop_cost(q))

    def test_single_vector_and_empty_batch(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        matrix = dispatcher.cost_matrix((4, 5, 6, 7))
        assert matrix.shape == (len(dispatcher), 1)
        assert dispatcher.select_many(np.empty((0, 4))) == []

    def test_select_many_with_custom_estimator(self):
        chain = general_chain(3)
        variants = all_variants(chain)

        def negated(variant, sizes):  # prefers the *worst* FLOP variant
            return -variant.flop_cost(sizes)

        dispatcher = Dispatcher(chain, variants, cost_estimator=negated)
        q = (2, 3, 2, 100)
        [(variant, cost)] = dispatcher.select_many([q])
        worst = max(v.flop_cost(q) for v in variants)
        assert -cost == pytest.approx(worst)
        assert variant.flop_cost(q) == pytest.approx(worst)

    def test_variant_list_changes_invalidate_the_term_stack(self):
        chain = general_chain(3)
        variants = all_variants(chain)
        dispatcher = Dispatcher(chain, variants)
        q = (2, 3, 2, 100)
        dispatcher.select(q)  # builds the cached stack
        # Reassignment resets the cache outright...
        dispatcher.variants = [variants[0]]
        picked, cost = dispatcher.select(q)
        assert picked is variants[0]
        assert cost == pytest.approx(variants[0].flop_cost(q))
        # ...and in-place growth is caught by the length guard.
        dispatcher.variants.extend(variants[1:])
        picked, cost = dispatcher.select(q)
        best = min(v.flop_cost(q) for v in variants)
        assert cost == pytest.approx(best)

    def test_validates_every_row(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        with pytest.raises(Exception):
            dispatcher.select_many([(4, 5, 6, 7), (4, 5, 6)])  # short row

    def test_rejects_bad_rank(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        with pytest.raises(DispatchError, match="2-D"):
            dispatcher.cost_matrix(np.zeros((2, 2, 2)))


class TestExecution:
    @pytest.mark.parametrize("seed", range(5))
    def test_end_to_end_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_option_chain(4, rng)
        dispatcher = Dispatcher(chain, all_variants(chain))
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        got = dispatcher(*arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-7)

    def test_accepts_list_argument(self):
        rng = np.random.default_rng(11)
        chain = general_chain(2)
        dispatcher = Dispatcher(chain, all_variants(chain))
        arrays = random_instance_arrays(chain, (3, 4, 5), rng)
        np.testing.assert_allclose(
            dispatcher(arrays), dispatcher(*arrays)
        )


class TestValidation:
    def test_needs_variants(self):
        with pytest.raises(DispatchError):
            Dispatcher(general_chain(3), [])

    def test_rejects_foreign_variants(self):
        chain_a, chain_b = general_chain(3), general_chain(4)
        with pytest.raises(DispatchError):
            Dispatcher(chain_a, all_variants(chain_b))

    def test_len(self):
        chain = general_chain(4)
        assert len(Dispatcher(chain, all_variants(chain))) == 5
