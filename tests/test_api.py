"""End-to-end tests for the compile_chain facade."""

import numpy as np
import pytest

from repro.errors import CompilationError
from repro.api import compile_chain
from repro.runtime.executor import naive_evaluate, random_instance_arrays
from repro.compiler.selection import LEMMA2_FACTOR, optimal_cost
from repro.experiments.sampling import sample_instances

from conftest import general_chain, make_general, make_lower, random_option_chain


class TestCompileChain:
    def test_from_chain_object(self):
        generated = compile_chain(general_chain(5), num_training_instances=100)
        assert len(generated) >= 2

    def test_from_program_source(self):
        source = (
            "Matrix L <LowerTri, NonSingular>;"
            "Matrix G <General, NonSingular>;"
            "Matrix H <General, Singular>;"
            "R := L * G^-1 * H;"
        )
        generated = compile_chain(source, num_training_instances=100)
        assert generated.chain.n == 3

    def test_rejects_other_types(self):
        with pytest.raises(CompilationError):
            compile_chain(42)

    def test_expand_by_grows_set(self):
        base = compile_chain(general_chain(6), num_training_instances=200, seed=3)
        grown = compile_chain(
            general_chain(6), expand_by=2, num_training_instances=200, seed=3
        )
        assert len(grown) >= len(base)

    def test_simplification_applied(self):
        from repro.ir.chain import Chain
        from repro.ir.features import Property, Structure
        from repro.ir.matrix import Matrix

        identity = Matrix("I", Structure.LOWER_TRIANGULAR, Property.ORTHOGONAL)
        chain = Chain(
            (make_general("A").as_operand(), identity.as_operand(),
             make_general("B").as_operand())
        )
        generated = compile_chain(chain, num_training_instances=10)
        assert generated.chain.n == 2

    def test_deterministic_given_seed(self):
        a = compile_chain(general_chain(5), num_training_instances=100, seed=9)
        b = compile_chain(general_chain(5), num_training_instances=100, seed=9)
        assert [v.signature() for v in a.variants] == [
            v.signature() for v in b.variants
        ]


class TestGeneratedCodeBehaviour:
    @pytest.mark.parametrize("seed", range(4))
    def test_execution_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_option_chain(4, rng)
        generated = compile_chain(chain, num_training_instances=100, seed=seed)
        sizes = tuple(int(x) for x in sample_instances(chain, 1, rng, 3, 10)[0])
        arrays = random_instance_arrays(generated.chain, sizes, rng)
        expected = naive_evaluate(generated.chain, arrays)
        got = generated(*arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-7)

    def test_selected_cost_within_theory_bound(self):
        rng = np.random.default_rng(17)
        chain = random_option_chain(5, rng)
        generated = compile_chain(chain, num_training_instances=300, seed=17)
        for q in sample_instances(chain, 30, rng, low=2, high=1000):
            _, cost = generated.select(tuple(q))
            assert cost <= LEMMA2_FACTOR * optimal_cost(generated.chain, tuple(q))

    def test_describe(self):
        generated = compile_chain(general_chain(3), num_training_instances=20)
        assert "generated code" in generated.describe()

    def test_single_matrix_chain(self):
        from repro.ir.chain import Chain

        chain = Chain((make_general("A", invertible=True).inv,))
        generated = compile_chain(chain, num_training_instances=5)
        rng = np.random.default_rng(0)
        arrays = random_instance_arrays(chain, (6, 6), rng)
        got = generated(*arrays)
        np.testing.assert_allclose(got @ arrays[0], np.eye(6), atol=1e-8)
