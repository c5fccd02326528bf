"""Tests for the Armadillo baseline model."""

import numpy as np
import pytest

from repro.ir.chain import Chain
from repro.baselines.armadillo import ArmadilloEvaluator
from repro.compiler.parenthesization import left_to_right_tree
from repro.compiler.variant import build_variant
from repro.experiments.sampling import sample_instances, sample_shapes
from repro.perfmodel.machine import SimulatedMachine

from conftest import general_chain, make_general, make_lower, make_symmetric


class TestPlan:
    def test_plain_chain_is_all_gemm(self):
        arma = ArmadilloEvaluator(general_chain(4))
        assert arma.kernel_names() == ("GEMM", "GEMM", "GEMM")

    def test_inverse_becomes_explicit_inversion(self):
        chain = Chain(
            (make_general("A", invertible=True).inv, make_general("B").as_operand())
        )
        arma = ArmadilloEvaluator(chain)
        assert arma.kernel_names() == ("GEINV", "GEMM")
        m, n = 10, 4
        assert arma.flop_cost((m, m, n)) == 2 * m**3 + 2 * m * m * n

    def test_inv_sympd_used_for_spd(self):
        chain = Chain(
            (make_symmetric("P", spd=True).inv, make_general("B").as_operand())
        )
        arma = ArmadilloEvaluator(chain)
        assert arma.kernel_names()[0] == "POINV"

    def test_trimatl_products_use_trmm(self):
        chain = Chain((make_lower("L").as_operand(), make_general("G").as_operand()))
        arma = ArmadilloEvaluator(chain)
        assert arma.kernel_names() == ("TRMM",)

    def test_intermediates_are_general(self):
        # L1 L2 L3: only the first product can exploit a triangular operand
        # on the left; afterwards the intermediate is a plain mat, and the
        # right operand is still trimatl, so TRMM applies from the right.
        chain = Chain(
            (make_lower("L1").as_operand(),
             make_lower("L2").as_operand(),
             make_lower("L3").as_operand())
        )
        arma = ArmadilloEvaluator(chain)
        assert arma.kernel_names() == ("TRMM", "TRMM")
        m = 8
        # Both products cost m^3 (no TRTRMM: 2x m^3/3 would be cheaper).
        assert arma.flop_cost((m, m, m, m)) == 2 * m**3


class TestAgainstCompiler:
    @pytest.mark.parametrize("seed", range(3))
    def test_never_cheaper_than_our_left_to_right(self, seed):
        # Our L infers features and propagates operators, so it can only be
        # at least as good FLOP-wise as the Armadillo model on every
        # instance of every shape.
        rng = np.random.default_rng(seed)
        for chain in sample_shapes(5, 4, rng, rectangular_probability=0.5):
            arma = ArmadilloEvaluator(chain)
            ours = build_variant(chain, left_to_right_tree(chain.n), name="L")
            instances = sample_instances(chain, 30, rng, low=2, high=500)
            arma_costs = arma.flop_cost_many(instances)
            our_costs = ours.flop_cost_many(instances)
            assert (arma_costs >= our_costs - 1e-9).all()

    def test_time_evaluation(self):
        machine = SimulatedMachine()
        chain = general_chain(3)
        arma = ArmadilloEvaluator(chain)
        rng = np.random.default_rng(0)
        instances = sample_instances(chain, 5, rng, low=50, high=500)
        times = machine.cost_many(arma, instances)
        assert (times > 0).all()
