"""Additional facade-level tests: objectives, estimators, cost matrices."""

import numpy as np
import pytest

from repro.api import compile_chain
from repro.runtime.dispatcher import Dispatcher
from repro.compiler.selection import CostMatrix, all_variants, essential_set
from repro.experiments.sampling import sample_instances
from repro.perfmodel.machine import SimulatedMachine
from repro.perfmodel.models import PerformanceModelSet

from conftest import general_chain, random_option_chain


class TestObjectives:
    def test_max_objective_selection(self):
        chain = general_chain(5)
        rng = np.random.default_rng(0)
        train = sample_instances(chain, 300, rng)
        matrix = CostMatrix(all_variants(chain), train)
        by_avg = essential_set(chain, cost_matrix=matrix, objective="avg")
        by_max = essential_set(chain, cost_matrix=matrix, objective="max")
        # Both are valid Theorem 2 sets (same candidate pool); sizes match.
        assert len(by_avg) == len(by_max)

    def test_compile_chain_max_objective(self):
        generated = compile_chain(
            general_chain(5),
            objective="max",
            expand_by=1,
            num_training_instances=200,
            seed=1,
        )
        assert len(generated) >= 2

    def test_expand_by_zero_is_base_set(self):
        base = compile_chain(general_chain(5), num_training_instances=200, seed=2)
        same = compile_chain(
            general_chain(5), expand_by=0, num_training_instances=200, seed=2
        )
        assert [v.signature() for v in base.variants] == [
            v.signature() for v in same.variants
        ]


class TestCustomEvaluators:
    def test_cost_matrix_with_time_evaluator(self):
        chain = general_chain(4)
        variants = all_variants(chain)
        rng = np.random.default_rng(3)
        instances = sample_instances(chain, 50, rng, low=50, high=500)
        machine = SimulatedMachine()
        matrix = CostMatrix(variants, instances, estimator=machine)
        assert matrix.costs.shape == (len(variants), 50)
        assert (matrix.costs > 0).all()
        # Ratios against the time-optimal variant are >= 1 everywhere.
        assert (matrix.ratios(range(len(variants))) >= 1.0 - 1e-12).all()

    def test_dispatcher_with_model_time_estimator(self):
        chain = general_chain(4)
        variants = all_variants(chain)
        machine = SimulatedMachine()
        models = PerformanceModelSet(machine)
        dispatcher = Dispatcher(
            chain,
            variants,
            cost_estimator=models,
        )
        q = (100, 700, 60, 900, 80)
        picked, cost = dispatcher.select(q)
        assert cost > 0
        # The pick minimizes the model time among the variants.
        best = min(variants, key=lambda v: models(v, q))
        assert picked.signature() == best.signature()

    def test_compile_chain_with_time_estimator(self):
        machine = SimulatedMachine()
        generated = compile_chain(
            general_chain(4),
            cost_estimator=machine,
            num_training_instances=100,
            seed=4,
        )
        q = (30, 300, 30, 300, 30)
        _, cost = generated.select(q)
        assert cost > 0


class TestReportsAndDescribe:
    def test_dispatcher_costs_have_names(self):
        chain = general_chain(3)
        dispatcher = Dispatcher(chain, all_variants(chain))
        names = [name for name, _ in dispatcher.costs((3, 4, 5, 6))]
        assert len(set(names)) == 2

    def test_generated_len_and_training_instances(self):
        generated = compile_chain(
            general_chain(4), num_training_instances=64, seed=5
        )
        assert generated.training_instances.shape == (64, 5)
        assert len(generated) == len(generated.variants)
