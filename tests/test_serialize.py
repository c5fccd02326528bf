"""Tests for JSON serialization of compiled chains."""

import numpy as np
import pytest

from repro.api import GeneratedCode, compile_chain
from repro.codegen import serialize
from repro.codegen.serialize import SerializationError
from repro.runtime.executor import naive_evaluate, random_instance_arrays
from repro.compiler.selection import all_variants
from repro.experiments.sampling import sample_instances

from conftest import (
    general_chain,
    make_general,
    make_lower,
    make_symmetric,
    make_upper,
    random_option_chain,
    small_sizes_for,
)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_chain_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_option_chain(5, rng, allow_transpose=True)
        payload = serialize.chain_to_dict(chain)
        assert serialize.chain_from_dict(payload) == chain

    @pytest.mark.parametrize("seed", range(4))
    def test_costs_preserved(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_option_chain(4, rng)
        variants = all_variants(chain)
        loaded_chain, loaded = serialize.loads(serialize.dumps(chain, variants))
        assert loaded_chain == chain
        assert len(loaded) == len(variants)
        for q in sample_instances(chain, 10, rng, low=2, high=300):
            q = tuple(int(x) for x in q)
            for original, restored in zip(variants, loaded):
                assert restored.flop_cost(q) == pytest.approx(
                    original.flop_cost(q)
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_execution_preserved(self, seed):
        rng = np.random.default_rng(100 + seed)
        chain = random_option_chain(4, rng, allow_transpose=True)
        variants = all_variants(chain)
        _, loaded = serialize.loads(serialize.dumps(chain, variants))
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        from repro.runtime.executor import execute_variant

        for restored in loaded:
            got = execute_variant(restored, arrays)
            np.testing.assert_allclose(got / scale, expected / scale, atol=1e-7)

    def test_signatures_preserved(self):
        chain = general_chain(5)
        variants = all_variants(chain)
        _, loaded = serialize.loads(serialize.dumps(chain, variants))
        assert [v.signature() for v in loaded] == [
            v.signature() for v in variants
        ]


def _diag(name: str):
    from repro.ir.features import Property, Structure
    from repro.ir.matrix import Matrix

    return Matrix(name, Structure.DIAGONAL, Property.NON_SINGULAR)


def _spd(name: str):
    return make_symmetric(name, spd=True)


#: Operand feature combinations the wire format must carry losslessly —
#: the regression net under the CompiledProgram artifact format.
FEATURE_CHAINS = {
    "transposed": lambda: make_general("A") * make_general("B").T,
    "double_transposed": lambda: make_general("A").T
    * make_general("B")
    * make_general("C").T,
    "inverted_lower": lambda: make_general("A") * make_lower("L").inv,
    "inverted_upper": lambda: make_upper("U").inv * make_general("A"),
    "inv_transpose": lambda: make_general("A") * make_lower("L").invT,
    "triangular_pair": lambda: make_lower("L") * make_upper("U") * make_general("G"),
    "spd": lambda: _spd("S").as_operand() * make_general("A") * _spd("S").inv,
    "spd_inverse": lambda: _spd("P").inv * make_general("A"),
    "diagonal": lambda: _diag("D").as_operand()
    * make_general("A")
    * make_symmetric("S"),
    "diagonal_inverse": lambda: make_general("A") * _diag("D").inv,
    "symmetric_transpose": lambda: make_symmetric("S").T * make_general("A"),
}


class TestFeatureCombinationRoundTrips:
    @pytest.mark.parametrize("name", sorted(FEATURE_CHAINS))
    def test_identity_costs_and_execution_preserved(self, name):
        chain = FEATURE_CHAINS[name]()
        variants = all_variants(chain)
        loaded_chain, loaded = serialize.loads(serialize.dumps(chain, variants))

        # Identity: chain equality, per-variant kernel/step signatures, and
        # every operand's features/operators.
        assert loaded_chain == chain
        for original, restored in zip(chain, loaded_chain):
            assert restored.matrix.structure is original.matrix.structure
            assert restored.matrix.prop is original.matrix.prop
            assert restored.op is original.op
        assert [v.signature() for v in loaded] == [
            v.signature() for v in variants
        ]
        # Cost functions survive the round trip on sampled instances.
        rng = np.random.default_rng(hash(name) % 2**32)
        for q in sample_instances(chain, 8, rng, low=2, high=200):
            q = tuple(int(x) for x in q)
            for original, restored in zip(variants, loaded):
                assert restored.flop_cost(q) == pytest.approx(
                    original.flop_cost(q)
                )
        # Execution: restored variants compute the same product.
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        for restored in loaded:
            from repro.runtime.executor import execute_variant

            got = execute_variant(restored, arrays)
            np.testing.assert_allclose(
                got / scale, expected / scale, atol=1e-7
            )

    @pytest.mark.parametrize("name", sorted(FEATURE_CHAINS))
    def test_operand_states_preserved(self, name):
        """The executor flags (stored structure, trans/inv) survive the wire."""
        chain = FEATURE_CHAINS[name]()
        variants = all_variants(chain)
        _, loaded = serialize.loads(serialize.dumps(chain, variants))
        for original, restored in zip(variants, loaded):
            for step_a, step_b in zip(original.steps, restored.steps):
                assert step_b.left_state == step_a.left_state
                assert step_b.right_state == step_a.right_state
                assert step_b.result_state == step_a.result_state
                assert step_b.call_dims == step_a.call_dims
                assert step_b.cheap == step_a.cheap
            assert restored.final_state == original.final_state
            assert [f.kernel.name for f in restored.fixups] == [
                f.kernel.name for f in original.fixups
            ]


class TestFacade:
    def test_generated_code_json_roundtrip(self):
        rng = np.random.default_rng(7)
        chain = random_option_chain(4, rng)
        generated = compile_chain(chain, num_training_instances=100, seed=7)
        clone = GeneratedCode.from_json(generated.to_json(indent=2))
        sizes = small_sizes_for(generated.chain, rng)
        original_pick, original_cost = generated.select(sizes)
        clone_pick, clone_cost = clone.select(sizes)
        assert original_pick.signature() == clone_pick.signature()
        assert clone_cost == pytest.approx(original_cost)
        arrays = random_instance_arrays(generated.chain, sizes, rng)
        np.testing.assert_allclose(generated(*arrays), clone(*arrays))


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError, match="invalid JSON"):
            serialize.loads("{not json")

    def test_wrong_top_level(self):
        with pytest.raises(SerializationError):
            serialize.loads("[1, 2, 3]")

    def test_wrong_version(self):
        with pytest.raises(SerializationError, match="format version"):
            serialize.loads('{"format_version": 999, "chain": {}, "variants": []}')

    def test_malformed_chain(self):
        with pytest.raises(SerializationError, match="malformed chain"):
            serialize.loads(
                '{"format_version": 1, "chain": {"operands": [{"name": "A"}]},'
                ' "variants": []}'
            )

    def test_malformed_variant(self):
        chain = general_chain(2)
        good = serialize.dumps(chain, all_variants(chain))
        import json

        data = json.loads(good)
        del data["variants"][0]["steps"][0]["kernel"]
        with pytest.raises(SerializationError, match="malformed variant"):
            serialize.loads(json.dumps(data))
