"""Tests for the diagonal-structure extension (beyond the paper's Table I).

The paper's grammar leaves the structure list open; this extension adds
``Diagonal`` with sub-cubic scaling/solve kernels and threads it through
the whole pipeline: parser, rewrites, kernel tables, inference, variant
construction, execution, and both code emitters.
"""

import numpy as np
import pytest

from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix
from repro.ir.operand import UnaryOp
from repro.ir.parser import parse_chain
from repro.ir.rewrites import simplify_operand
from repro.api import compile_chain
from repro.runtime.executor import (
    execute_variant,
    naive_evaluate,
    random_instance_arrays,
)
from repro.compiler.parenthesization import left_to_right_tree
from repro.compiler.selection import all_variants
from repro.compiler.variant import build_variant
from repro.inference.rules import infer_product_structure
from repro.kernels import reference as ref
from repro.kernels.tables import (
    lookup_inversion_kernel,
    lookup_product_kernel,
    lookup_solve_kernel,
)

from conftest import make_general, make_lower, make_symmetric


def make_diagonal(name="D", invertible=True):
    prop = Property.NON_SINGULAR if invertible else Property.SINGULAR
    return Matrix(name, Structure.DIAGONAL, prop)


D = Structure.DIAGONAL
G = Structure.GENERAL
S = Structure.SYMMETRIC
L = Structure.LOWER_TRIANGULAR
U = Structure.UPPER_TRIANGULAR


class TestFeatureIntegration:
    def test_diagonal_implies_square(self):
        assert D.implies_square
        assert make_diagonal().is_square

    def test_transpose_is_noop(self):
        assert D.transposed is D
        op = simplify_operand(make_diagonal().T)
        assert op.op is UnaryOp.NONE

    def test_diagonal_orthogonal_is_not_identity(self):
        from repro.ir.features import is_identity

        assert not is_identity(D, Property.ORTHOGONAL)

    def test_parser_accepts_diagonal(self):
        chain = parse_chain("Matrix D <Diagonal, NonSingular>; R := D^-1;")
        assert chain[0].matrix.structure is D


class TestKernelTables:
    @pytest.mark.parametrize(
        "left,right,kernel",
        [
            (D, G, "DIMM"), (G, D, "DIMM"),
            (D, S, "DIMM"), (S, D, "DIMM"),
            (D, L, "DIMM"), (U, D, "DIMM"),
            (D, D, "DIDIMM"),
        ],
    )
    def test_product_table(self, left, right, kernel):
        assert lookup_product_kernel(left, right).name == kernel

    @pytest.mark.parametrize(
        "coeff,rhs,kernel",
        [
            (D, G, "DIGESV"), (D, S, "DISYSV"), (D, L, "DITRSV"),
            (D, D, "DIDISV"),
        ],
    )
    def test_solve_table_diagonal_coefficient(self, coeff, rhs, kernel):
        got = lookup_solve_kernel(coeff, Property.NON_SINGULAR, rhs)
        assert got.name == kernel

    def test_solve_table_diagonal_rhs(self):
        assert lookup_solve_kernel(G, Property.NON_SINGULAR, D).name == "GETRSV"
        assert lookup_solve_kernel(S, Property.SPD, D).name == "POTRSV"
        assert lookup_solve_kernel(L, Property.NON_SINGULAR, D).name == "TRTRSV"

    def test_inversion_kernel(self):
        assert lookup_inversion_kernel(D, Property.NON_SINGULAR).name == "DIINV"

    def test_costs_are_subcubic(self):
        from repro.kernels.spec import DIMM, DIDIMM, DIGESV

        assert DIMM.cost().evaluate(100, 100, 50) == 100 * 50
        assert DIDIMM.cost().evaluate(100, 100, 100) == 100
        assert DIGESV.cost().evaluate(100, 100, 50) == 100 * 50


class TestInference:
    @pytest.mark.parametrize(
        "left,right,result",
        [
            (D, D, D), (D, L, L), (L, D, L), (D, U, U), (U, D, U),
            (D, G, G), (G, D, G), (D, S, G), (S, D, G),
        ],
    )
    def test_structure_preservation(self, left, right, result):
        assert infer_product_structure(left, right) is result


class TestCompilation:
    def test_diagonal_scaling_cheaper_than_trmm(self):
        # D G via DIMM costs mn; the triangular analogue costs m^2 n.
        chain = Chain((make_diagonal("D").as_operand(), make_general("G").as_operand()))
        variant = build_variant(chain, left_to_right_tree(2))
        assert variant.kernel_names == ("DIMM",)
        assert variant.flop_cost((40, 40, 7)) == 40 * 7

    def test_inverse_diagonal_is_a_cheap_solve(self):
        chain = Chain((make_diagonal("D").inv, make_general("G").as_operand()))
        variant = build_variant(chain, left_to_right_tree(2))
        assert variant.kernel_names == ("DIGESV",)

    def test_inversion_propagation_prefers_diagonal_target(self):
        # G^-1 D = (D^-1 G)^-1: the general inverse is traded for a
        # diagonal solve plus a pending inversion.
        chain = Chain(
            (make_general("G", invertible=True).inv,
             make_diagonal("D").as_operand())
        )
        variant = build_variant(chain, left_to_right_tree(2))
        assert variant.kernel_names[0] == "DIGESV"
        assert "GEINV" in variant.kernel_names  # forced final inversion

    def test_diagonal_chain_structure_propagates(self):
        # D1 L D2: diagonal scaling preserves triangularity, so the chain
        # result stays lower-triangular.
        chain = Chain(
            (make_diagonal("D1").as_operand(),
             make_lower("L").as_operand(),
             make_diagonal("D2").as_operand())
        )
        variant = build_variant(chain, left_to_right_tree(3))
        assert variant.final_state.structure is L


class TestExecution:
    def _chain(self):
        return Chain(
            (
                make_general("G1").as_operand(),
                make_diagonal("D").inv,
                make_symmetric("S").as_operand(),
                make_general("G2").as_operand(),
            )
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_all_variants_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        chain = self._chain()
        sizes = (5, 7, 7, 7, 4)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        for variant in all_variants(chain):
            got = execute_variant(variant, arrays)
            np.testing.assert_allclose(got / scale, expected / scale, atol=1e-8)

    def test_reference_kernels(self):
        rng = np.random.default_rng(1)
        d = np.diag(rng.standard_normal(5) + 2.0)
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(ref.dimm(d, b, side="left"), d @ b)
        b2 = rng.standard_normal((3, 5))
        np.testing.assert_allclose(ref.dimm(d, b2, side="right"), b2 @ d)
        d2 = np.diag(rng.standard_normal(5) + 3.0)
        np.testing.assert_allclose(ref.didimm(d, d2), d @ d2)
        np.testing.assert_allclose(d @ ref.digesv(d, b, side="left"), b)
        np.testing.assert_allclose(ref.diinv(d) @ d, np.eye(5), atol=1e-12)

    def test_zero_diagonal_raises(self):
        from repro.errors import ExecutionError

        singular = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(ExecutionError):
            ref.digesv(singular, np.eye(3))
        with pytest.raises(ExecutionError):
            ref.diinv(singular)

    def test_end_to_end_via_facade(self):
        chain = self._chain()
        generated = compile_chain(chain, num_training_instances=100, seed=0)
        rng = np.random.default_rng(3)
        sizes = (6, 5, 5, 5, 8)
        arrays = random_instance_arrays(generated.chain, sizes, rng)
        expected = naive_evaluate(generated.chain, arrays)
        got = generated(*arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-8)


class TestEmitters:
    def test_python_emitter_handles_diagonal(self):
        chain = Chain(
            (make_diagonal("D").inv, make_general("G").as_operand())
        )
        generated = compile_chain(chain, num_training_instances=20)
        source = generated.python_source()
        assert "_solve_diag" in source
        namespace: dict = {}
        exec(compile(source, "<generated>", "exec"), namespace)
        rng = np.random.default_rng(4)
        arrays = random_instance_arrays(generated.chain, (5, 5, 3), rng)
        expected = naive_evaluate(generated.chain, arrays)
        np.testing.assert_allclose(
            namespace["evaluate"](*arrays), expected, atol=1e-9
        )

    def test_cpp_emitter_references_diagonal_kernels(self):
        chain = Chain(
            (make_diagonal("D").as_operand(), make_general("G").as_operand())
        )
        generated = compile_chain(chain, num_training_instances=20)
        assert "kernels::dimm(" in generated.cpp_source()

    def test_header_declares_diagonal_kernels(self):
        from repro.codegen.cpp_emitter import emit_kernels_header

        header = emit_kernels_header()
        for name in ("dimm", "didimm", "digesv", "diinv"):
            assert f" {name}(" in header

    def test_serialization_roundtrip(self):
        from repro.codegen import serialize

        chain = Chain(
            (make_diagonal("D").inv, make_lower("L").as_operand())
        )
        variants = all_variants(chain)
        _, loaded = serialize.loads(serialize.dumps(chain, variants))
        q = (9, 9, 9)
        for original, restored in zip(variants, loaded):
            assert restored.flop_cost(q) == original.flop_cost(q)
