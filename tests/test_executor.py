"""Integration tests: every variant computes the same value as the oracle."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.ir.chain import Chain
from repro.runtime.executor import (
    execute_variant,
    expected_stored_shapes,
    infer_sizes,
    naive_evaluate,
    random_instance_arrays,
    random_matrix,
)
from repro.compiler.selection import all_variants
from repro.compiler.parenthesization import left_to_right_tree
from repro.compiler.variant import build_variant
from repro.ir.features import Property, Structure

from conftest import (
    general_chain,
    make_general,
    make_lower,
    make_orthogonal,
    make_symmetric,
    random_option_chain,
    small_sizes_for,
)


def assert_matches_oracle(chain, sizes, rng, rtol=1e-7):
    arrays = random_instance_arrays(chain, sizes, rng)
    expected = naive_evaluate(chain, arrays)
    scale = max(1.0, float(np.abs(expected).max()))
    for variant in all_variants(chain):
        got = execute_variant(variant, arrays)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got / scale, expected / scale, atol=rtol)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_option_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        chain = random_option_chain(n, rng)
        sizes = small_sizes_for(chain, rng)
        assert_matches_oracle(chain, sizes, rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_chains_with_transposes(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 5))
        chain = random_option_chain(n, rng, allow_transpose=True)
        sizes = small_sizes_for(chain, rng)
        assert_matches_oracle(chain, sizes, rng)

    def test_orthogonal_rewrites(self):
        q_mat = make_orthogonal("Q")
        g = make_general("G")
        chain = Chain((q_mat.inv, g.as_operand(), q_mat.T))
        rng = np.random.default_rng(5)
        # Orthogonal matrices must share the same array for Q^-1 and Q^T to
        # be consistent; use one sample and duplicate it.
        n = 6
        q_arr = random_matrix(Structure.GENERAL, Property.ORTHOGONAL, n, n, rng)
        g_arr = rng.standard_normal((n, n))
        arrays = [q_arr, g_arr, q_arr]
        expected = naive_evaluate(chain, arrays)
        for variant in all_variants(chain):
            got = execute_variant(variant, arrays)
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_pending_inverse_to_end(self):
        chain = Chain(
            (make_general("A", invertible=True).inv,
             make_general("B", invertible=True).inv)
        )
        rng = np.random.default_rng(6)
        arrays = random_instance_arrays(chain, (7, 7, 7), rng)
        expected = naive_evaluate(chain, arrays)
        variant = build_variant(chain, left_to_right_tree(2))
        np.testing.assert_allclose(
            execute_variant(variant, arrays), expected, atol=1e-8
        )

    def test_pending_transpose_to_end(self):
        chain = Chain((make_lower("L").as_operand(), make_general("G").T))
        rng = np.random.default_rng(7)
        arrays = random_instance_arrays(chain, (5, 5, 8), rng)
        expected = naive_evaluate(chain, arrays)
        variant = build_variant(chain, left_to_right_tree(2))
        assert "TRANSPOSE" in variant.kernel_names
        np.testing.assert_allclose(
            execute_variant(variant, arrays), expected, atol=1e-9
        )

    def test_single_matrix_chains(self):
        rng = np.random.default_rng(8)
        for operand, sizes in [
            (make_general("A").as_operand(), (4, 6)),
            (make_general("A").T, (4, 6)),
            (make_general("A", invertible=True).inv, (5, 5)),
            (make_lower("L").inv, (5, 5)),
            (make_symmetric("P", spd=True).inv, (5, 5)),
        ]:
            chain = Chain((operand,))
            arrays = random_instance_arrays(chain, sizes, rng)
            expected = naive_evaluate(chain, arrays)
            from repro.compiler.parenthesization import leaf

            variant = build_variant(chain, leaf(0))
            np.testing.assert_allclose(
                execute_variant(variant, arrays), expected, atol=1e-8
            )


class TestShapeHandling:
    def test_expected_stored_shapes_transposed(self):
        chain = Chain((make_general("A").T, make_general("B").as_operand()))
        shapes = expected_stored_shapes(chain, (3, 4, 5))
        assert shapes == [(4, 3), (4, 5)]

    def test_infer_sizes_roundtrip(self):
        rng = np.random.default_rng(9)
        chain = random_option_chain(4, rng)
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        assert infer_sizes(chain, arrays) == tuple(sizes)

    def test_infer_sizes_rejects_mismatch(self):
        chain = general_chain(2)
        a = np.zeros((3, 4))
        b = np.zeros((5, 6))  # inner dimension mismatch
        with pytest.raises(ExecutionError):
            infer_sizes(chain, [a, b])

    def test_infer_sizes_rejects_wrong_count(self):
        chain = general_chain(2)
        with pytest.raises(ExecutionError):
            infer_sizes(chain, [np.zeros((3, 4))])

    def test_execute_rejects_bad_stored_shape(self):
        chain = Chain((make_general("A").T, make_general("B").as_operand()))
        variant = build_variant(chain, left_to_right_tree(2))
        # Operand 0 is transposed: stored shape must be (q1, q0).
        bad = [np.zeros((3, 4)), np.zeros((4, 5))]
        with pytest.raises(ExecutionError):
            execute_variant(variant, bad)


class TestRandomMatrix:
    def test_features_respected(self, rng):
        n = 8
        sym = random_matrix(Structure.SYMMETRIC, Property.NON_SINGULAR, n, n, rng)
        np.testing.assert_allclose(sym, sym.T)
        spd = random_matrix(Structure.SYMMETRIC, Property.SPD, n, n, rng)
        assert np.linalg.eigvalsh(spd).min() > 0
        low = random_matrix(
            Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR, n, n, rng
        )
        assert np.allclose(np.triu(low, 1), 0)
        assert np.abs(np.diag(low)).min() >= 1.0
        orth = random_matrix(Structure.GENERAL, Property.ORTHOGONAL, n, n, rng)
        np.testing.assert_allclose(orth @ orth.T, np.eye(n), atol=1e-10)
        sym_orth = random_matrix(Structure.SYMMETRIC, Property.ORTHOGONAL, n, n, rng)
        np.testing.assert_allclose(sym_orth, sym_orth.T)
        np.testing.assert_allclose(sym_orth @ sym_orth, np.eye(n), atol=1e-10)

    def test_rectangular_only_for_general_singular(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ExecutionError):
            random_matrix(Structure.SYMMETRIC, Property.NON_SINGULAR, 3, 4, rng)
