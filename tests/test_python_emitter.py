"""Tests for the standalone Python code emitter.

The strongest possible check: execute the emitted source in a clean
namespace and compare its results against the library's dispatcher and the
dense oracle, across random shapes (including transposes and inverses).
"""

import numpy as np
import pytest

from repro.api import compile_chain
from repro.codegen.python_emitter import emit_python
from repro.errors import ExecutionError
from repro.runtime.executor import naive_evaluate, random_instance_arrays
from repro.compiler.selection import all_variants
from repro.experiments.sampling import sample_instances

from conftest import general_chain, random_option_chain, small_sizes_for


def _load_module(source: str) -> dict:
    namespace: dict = {}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace


class TestEmittedSource:
    def test_structure(self):
        chain = general_chain(4)
        generated = compile_chain(chain, num_training_instances=50)
        source = generated.python_source()
        for i in range(len(generated.variants)):
            assert f"def cost_variant_{i}(q):" in source
            assert f"def variant_{i}(A):" in source
        assert "def evaluate(*A):" in source
        assert "def infer_sizes(A):" in source
        # Self-contained: only numpy/scipy imports.
        assert "import repro" not in source

    def test_cost_functions_match_library(self):
        chain = general_chain(5)
        generated = compile_chain(chain, num_training_instances=50)
        module = _load_module(generated.python_source())
        rng = np.random.default_rng(0)
        for q in sample_instances(chain, 20, rng, low=2, high=500):
            q = tuple(int(x) for x in q)
            for i, variant in enumerate(generated.variants):
                assert module[f"cost_variant_{i}"](q) == pytest.approx(
                    variant.flop_cost(q)
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_emitted_evaluate_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_option_chain(4, rng, allow_transpose=(seed % 2 == 0))
        generated = compile_chain(chain, num_training_instances=100, seed=seed)
        module = _load_module(generated.python_source())
        sizes = small_sizes_for(generated.chain, rng)
        arrays = random_instance_arrays(generated.chain, sizes, rng)
        expected = naive_evaluate(generated.chain, arrays)
        got = module["evaluate"](*arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-7)

    def test_emitted_dispatch_agrees_with_library(self):
        chain = general_chain(4)
        generated = compile_chain(chain, num_training_instances=100, seed=5)
        module = _load_module(generated.python_source())
        rng = np.random.default_rng(1)
        for q in sample_instances(chain, 10, rng, low=2, high=200):
            q = tuple(int(x) for x in q)
            costs = [
                module[f"cost_variant_{i}"](q)
                for i in range(len(generated.variants))
            ]
            emitted_best = min(range(len(costs)), key=costs.__getitem__)
            library_best, _ = generated.select(q)
            assert generated.variants[emitted_best].signature() == (
                library_best.signature()
            )

    def test_infer_sizes_with_transposed_operand(self):
        from repro.ir.chain import Chain
        from conftest import make_general

        chain = Chain((make_general("A").T, make_general("B").as_operand()))
        generated = compile_chain(chain, num_training_instances=20)
        module = _load_module(generated.python_source())
        a = np.zeros((4, 3))  # stored transposed: logical 3 x 4
        b = np.zeros((4, 5))
        assert module["infer_sizes"]((a, b)) == (3, 4, 5)

    def test_emitted_infer_sizes_checks_shapes(self):
        """The emitted evaluator rejects what the library rejects: a
        diagonal that does not fit, or a square operand that is not."""
        generated = compile_chain(
            "Matrix D <Diagonal, NonSingular>; Matrix B <General, Singular>; "
            "X := D^-1 * B;",
            num_training_instances=10,
        )
        module = _load_module(generated.python_source())
        d, b = np.ones((1, 1)), np.ones((5, 3))
        with pytest.raises(ValueError, match="inconsistent sizes at q1: 1 vs 5"):
            module["evaluate"](d, b)
        with pytest.raises(ExecutionError, match="inconsistent sizes at q1: 1 vs 5"):
            generated(d, b)
        with pytest.raises(ValueError, match="operand 0 must be square, got 2x3"):
            module["infer_sizes"]((np.ones((2, 3)), np.ones((3, 3))))
        assert module["infer_sizes"]((np.ones((5, 5)), b)) == (5, 5, 3)

    def test_all_variants_emittable_and_correct(self):
        """Emit EVERY parenthesization of a structured chain and run all."""
        rng = np.random.default_rng(9)
        chain = random_option_chain(4, rng)
        variants = all_variants(chain)
        source = emit_python(chain, variants)
        module = _load_module(source)
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        for i in range(len(variants)):
            got = module[f"variant_{i}"](arrays)
            np.testing.assert_allclose(got / scale, expected / scale, atol=1e-7)

    def test_single_matrix_chain(self):
        from repro.ir.chain import Chain
        from conftest import make_general

        chain = Chain((make_general("A", invertible=True).inv,))
        generated = compile_chain(chain, num_training_instances=5)
        module = _load_module(generated.python_source())
        rng = np.random.default_rng(2)
        arrays = random_instance_arrays(chain, (6, 6), rng)
        got = module["evaluate"](*arrays)
        np.testing.assert_allclose(got @ arrays[0], np.eye(6), atol=1e-8)
