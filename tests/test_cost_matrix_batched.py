"""The batched FLOP cost-matrix construction matches per-variant evaluation."""

import numpy as np
import pytest

from repro.compiler.selection import CostMatrix, all_variants, flop_cost_matrix
from repro.experiments.sampling import (
    EXTENDED_MATRIX_OPTIONS,
    option_to_operand,
    sample_instances,
    sample_shapes,
)
from repro.ir.chain import Chain

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

    def test_instance_blocks_are_exact(self, rng, monkeypatch):
        from repro.compiler import selection

        chain = make_general("A") * make_lower("L").inv * make_general("B")
        variants = all_variants(chain)
        instances = sample_instances(chain, 16, rng)
        full = flop_cost_matrix(variants, instances)
        # A budget below one instance's working set sweeps one at a time.
        monkeypatch.setattr(selection, "SWEEP_CELLS", 1)
        np.testing.assert_array_equal(flop_cost_matrix(variants, instances), full)
        monkeypatch.setattr(selection, "SWEEP_CELLS", 200)
        np.testing.assert_array_equal(flop_cost_matrix(variants, instances), full)

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


def scalar_costs(variants, instances):
    """``Variant.flop_cost`` on int size tuples: the exact scalar oracle."""
    sizes = [tuple(int(x) for x in row) for row in instances]
    return np.array(
        [[v.flop_cost(q) for q in sizes] for v in variants], dtype=np.float64
    ).reshape(len(variants), len(sizes))


def extended_chain(n):
    """``n`` operands cycling through every extended feature option."""
    options = EXTENDED_MATRIX_OPTIONS
    return Chain(
        tuple(option_to_operand(i % len(options), f"M{i}", options) for i in range(n))
    )


class TestExactSweep:
    """The sweep is the scalar cost bit for bit: the coefficient, then the
    powers in symbol order, then each variant's terms summed in order.
    Selection compares these floats, so near-equal is not enough."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_exhaustive_extended_pools(self, n, rng):
        chain = extended_chain(n)
        variants = all_variants(chain)
        instances = sample_instances(chain, 40, rng)
        np.testing.assert_array_equal(
            flop_cost_matrix(variants, instances), scalar_costs(variants, instances)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_flop_cost_many_is_the_sweep_bit_for_bit(self, n, rng):
        for chain in [extended_chain(n)] + sample_shapes(n, 2, rng):
            variants = all_variants(chain)
            instances = sample_instances(chain, 200, rng, 1, 1000)
            np.testing.assert_array_equal(
                reference_costs(variants, instances),
                flop_cost_matrix(variants, instances),
            )

    def test_gemm10_pool(self, rng):
        chain = general_chain(10)
        variants = all_variants(chain)
        instances = sample_instances(chain, 8, rng)
        np.testing.assert_array_equal(
            flop_cost_matrix(variants, instances), scalar_costs(variants, instances)
        )

    def test_zero_instances(self):
        variants = all_variants(extended_chain(5))
        costs = flop_cost_matrix(variants, np.empty((0, 6)))
        np.testing.assert_array_equal(costs, scalar_costs(variants, []))

    def test_empty_pool(self, rng):
        instances = sample_instances(extended_chain(5), 6, rng)
        costs = flop_cost_matrix([], instances)
        np.testing.assert_array_equal(costs, scalar_costs([], instances))


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

    def test_each_instance_alone_matches_the_batch(self, rng):
        # The dispatcher sweeps one size vector per memo miss and whole
        # batches in select_many: both must give the same floats.
        from repro.compiler.selection import (
            evaluate_cost_terms,
            flatten_cost_terms,
        )

        chain = random_option_chain(6, rng)
        variants = all_variants(chain)
        instances = np.asarray(sample_instances(chain, 30, rng), float)
        stack = flatten_cost_terms(variants)
        batch = evaluate_cost_terms(stack, instances)
        for i in range(len(instances)):
            np.testing.assert_array_equal(
                evaluate_cost_terms(stack, instances[i:i + 1])[:, 0], batch[:, i]
            )

    def test_empty_stack_evaluates_to_zeros(self):
        from repro.compiler.selection import (
            evaluate_cost_terms,
            flatten_cost_terms,
        )

        stack = flatten_cost_terms([])
        costs = evaluate_cost_terms(stack, np.zeros((5, 4)))
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
