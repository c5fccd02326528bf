"""Tests for DP plan reconstruction and the online-search baseline."""

import numpy as np
import pytest

from repro.ir.chain import Chain
from repro.baselines.online import OnlineSearchEvaluator
from repro.compiler.dp import dp_optimal_cost, dp_optimal_plan
from repro.runtime.executor import naive_evaluate, random_instance_arrays
from repro.compiler.selection import all_variants, optimal_cost
from repro.experiments.sampling import sample_instances, sample_shapes

from conftest import (
    general_chain,
    make_general,
    make_lower,
    random_option_chain,
    small_sizes_for,
)


class TestPlanReconstruction:
    @pytest.mark.parametrize("seed", range(6))
    def test_plan_cost_equals_dp_cost(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_option_chain(int(rng.integers(2, 7)), rng)
        for q in sample_instances(chain, 5, rng, low=2, high=400):
            q = tuple(int(x) for x in q)
            plan = dp_optimal_plan(chain, q)
            assert plan.flop_cost(q) == pytest.approx(dp_optimal_cost(chain, q))

    @pytest.mark.parametrize("seed", range(6))
    def test_plan_execution_matches_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        chain = random_option_chain(int(rng.integers(2, 6)), rng)
        sizes = small_sizes_for(chain, rng)
        plan = dp_optimal_plan(chain, sizes)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        from repro.runtime.executor import execute_variant

        got = execute_variant(plan, arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-7)

    def test_plan_never_worse_than_any_variant(self):
        rng = np.random.default_rng(5)
        chain = random_option_chain(5, rng)
        for q in sample_instances(chain, 10, rng, low=2, high=500):
            q = tuple(int(x) for x in q)
            plan_cost = dp_optimal_plan(chain, q).flop_cost(q)
            assert plan_cost <= optimal_cost(chain, q) * (1 + 1e-9) + 1e-9

    def test_plan_for_classic_mcp(self):
        chain = general_chain(6)
        q = (30, 35, 15, 5, 10, 20, 25)
        plan = dp_optimal_plan(chain, q)
        assert plan.flop_cost(q) == 2 * 15125
        assert plan.kernel_names == ("GEMM",) * 5
        # CLRS optimal parenthesization: ((M1 (M2 M3)) ((M4 M5) M6)).
        assert set(plan.triplets) == {
            (1, 2, 3), (0, 1, 3), (3, 4, 5), (3, 5, 6), (0, 3, 6)
        }

    def test_single_matrix_plan(self):
        chain = Chain((make_general("A", invertible=True).inv,))
        plan = dp_optimal_plan(chain, (4, 4))
        assert plan.kernel_names == ("GEINV",)


class TestOnlineSearchEvaluator:
    def test_matches_oracle_end_to_end(self):
        rng = np.random.default_rng(0)
        chain = random_option_chain(4, rng)
        online = OnlineSearchEvaluator(chain)
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        got = online(*arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-7)
        assert online.calls == 1
        assert online.searches == 1

    def test_cache_amortizes_repeated_instances(self):
        rng = np.random.default_rng(1)
        chain = general_chain(4)
        online = OnlineSearchEvaluator(chain, cache_size=8)
        arrays = random_instance_arrays(chain, (3, 4, 5, 6, 7), rng)
        for _ in range(5):
            online(*arrays)
        assert online.calls == 5
        assert online.searches == 1

    def test_cache_disabled(self):
        rng = np.random.default_rng(2)
        chain = general_chain(3)
        online = OnlineSearchEvaluator(chain, cache_size=0)
        arrays = random_instance_arrays(chain, (3, 4, 5, 6), rng)
        online(*arrays)
        online(*arrays)
        assert online.searches == 2

    def test_cache_eviction(self):
        rng = np.random.default_rng(3)
        chain = general_chain(2)
        online = OnlineSearchEvaluator(chain, cache_size=2)
        for size in (3, 4, 5, 6):
            arrays = random_instance_arrays(chain, (size, size, size), rng)
            online(*arrays)
        assert online.searches == 4
        assert len(online._cache) == 2

    def test_planned_cost_equals_dp(self):
        chain = general_chain(4)
        q = (8, 3, 9, 2, 7)
        online = OnlineSearchEvaluator(chain)
        assert online.planned_cost(q) == pytest.approx(dp_optimal_cost(chain, q))

    def test_accepts_list_argument(self):
        rng = np.random.default_rng(4)
        chain = general_chain(2)
        online = OnlineSearchEvaluator(chain)
        arrays = random_instance_arrays(chain, (3, 4, 5), rng)
        np.testing.assert_allclose(online(arrays), online(*arrays))
