"""Tests for sums of chains (the future-work expression extension)."""

import numpy as np
import pytest

from repro.errors import ParseError, ShapeError
from repro.api import compile_expression
from repro.ir.chain import Chain
from repro.ir.expression import ChainSum, ChainTerm
from repro.ir.parser import parse_expression, parse_program
from repro.runtime.executor import naive_evaluate

from conftest import make_general, make_lower, make_symmetric


def _sum_source() -> str:
    return (
        "Matrix A <Symmetric, SPD>;"
        "Matrix B <General, Singular>;"
        "Matrix D <Symmetric, SPD>;"
        "Matrix C <General, Singular>;"
        "S := A - B * D^-1 * C;"
    )


class TestParsing:
    def test_two_term_expression(self):
        expression = parse_expression(_sum_source())
        assert len(expression) == 2
        assert expression.terms[0].coefficient == 1.0
        assert expression.terms[1].coefficient == -1.0
        assert expression.terms[1].chain.n == 3

    def test_scalar_coefficients(self):
        expression = parse_expression(
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " R := 2.5 * A * B + 3 * A * B - A * B;"
        )
        assert [t.coefficient for t in expression] == [2.5, 3.0, -1.0]

    def test_single_term_program_still_exposes_chain(self):
        program = parse_program(
            "Matrix A <General, Singular>; R := A;"
        )
        assert program.chain.n == 1

    def test_multi_term_program_chain_raises(self):
        program = parse_program(
            "Matrix A <General, Singular>; R := A + A;"
        )
        with pytest.raises(ParseError, match="sum of chains"):
            program.chain

    def test_scaled_single_term_chain_raises(self):
        program = parse_program(
            "Matrix A <General, Singular>; R := 2 * A;"
        )
        with pytest.raises(ParseError, match="scales"):
            program.chain

    def test_number_requires_star(self):
        with pytest.raises(ParseError):
            parse_expression(
                "Matrix A <General, Singular>; R := 2 A;"
            )

    def test_str_roundtrippable_rendering(self):
        expression = parse_expression(_sum_source())
        rendered = str(expression)
        assert rendered.startswith("A")
        assert "- " in rendered


class TestChainSumValidation:
    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ChainSum(())

    def test_conflicting_features_rejected(self):
        a_general = Chain((make_general("A").as_operand(),))
        a_symmetric = Chain((make_symmetric("A").as_operand(),))
        with pytest.raises(ShapeError, match="conflicting"):
            ChainSum((ChainTerm(1.0, a_general), ChainTerm(1.0, a_symmetric)))

    def test_matrices_table(self):
        expression = parse_expression(_sum_source())
        assert set(expression.matrices) == {"A", "B", "C", "D"}

    def test_term_sizes_missing_array(self):
        expression = parse_expression(_sum_source())
        with pytest.raises(ShapeError, match="missing arrays"):
            expression.term_sizes({"A": np.eye(3)})

    def test_term_sizes_result_mismatch(self):
        expression = parse_expression(
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " R := A + B;"
        )
        with pytest.raises(ShapeError, match="earlier term"):
            expression.term_sizes({"A": np.eye(3), "B": np.zeros((3, 4))})

    def test_addition_flops(self):
        expression = parse_expression(
            "Matrix A <General, Singular>; R := 2 * A + A - A;"
        )
        # Two '+' accumulations plus one scalar scaling over a 4x5 result.
        assert expression.addition_flops(4, 5) == 4 * 5 * 3


class TestCompileExpression:
    def test_schur_complement(self):
        generated = compile_expression(_sum_source(), num_training_instances=100)
        assert len(generated) == 2
        rng = np.random.default_rng(0)
        p, m = 8, 5
        x = rng.standard_normal((p + m, p + m))
        full = x @ x.T / np.sqrt(p + m) + np.eye(p + m)
        a = full[:p, :p].copy()
        b = full[:p, p:].copy()
        c = full[p:, :p].copy()
        d = full[p:, p:].copy()
        result = generated(A=a, B=b, C=c, D=d)
        expected = a - b @ np.linalg.solve(d, c)
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_repeated_matrix_across_terms(self):
        source = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " R := A * B + 2 * A * B;"
        )
        generated = compile_expression(source, num_training_instances=50)
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        np.testing.assert_allclose(
            generated(A=a, B=b), 3 * (a @ b), atol=1e-12
        )

    def test_flop_cost_includes_additions(self):
        source = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " R := A * B + A * B;"
        )
        generated = compile_expression(source, num_training_instances=50)
        arrays = {"A": np.ones((3, 4)), "B": np.ones((4, 5))}
        # Two identical GEMM terms plus one elementwise accumulation.
        assert generated.flop_cost(arrays) == pytest.approx(
            2 * (2 * 3 * 4 * 5) + 3 * 5
        )

    def test_accepts_chain_and_chainsum_inputs(self):
        chain = Chain((make_general("A").as_operand(),))
        generated = compile_expression(chain, num_training_instances=5)
        assert len(generated) == 1
        generated2 = compile_expression(
            ChainSum((ChainTerm(1.0, chain),)), num_training_instances=5
        )
        assert len(generated2) == 1

    def test_rejects_other_inputs(self):
        from repro.errors import CompilationError

        with pytest.raises(CompilationError):
            compile_expression(42)

    def test_describe(self):
        generated = compile_expression(_sum_source(), num_training_instances=30)
        text = generated.describe()
        assert "term" in text
        assert "D^-1" in text

    def test_single_term_matches_compile_chain(self):
        from repro.api import compile_chain

        source = (
            "Matrix L <LowerTri, NonSingular>; Matrix G <General, Singular>;"
            " R := L^-1 * G;"
        )
        expr = compile_expression(source, num_training_instances=50, seed=2)
        chain = compile_chain(source, num_training_instances=50, seed=2)
        rng = np.random.default_rng(2)
        low = np.tril(rng.standard_normal((4, 4))) + 3 * np.eye(4)
        g = rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            expr(L=low, G=g), chain(low, g), atol=1e-12
        )
