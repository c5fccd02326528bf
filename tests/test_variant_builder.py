"""Tests for variant construction (Section IV), including paper examples."""

import numpy as np
import pytest

import sympy
from hypothesis import given, settings, strategies as st

from repro.errors import CompilationError
from repro.ir.chain import Chain
from repro.ir.operand import Operand, UnaryOp
from repro.compiler import variant as variant_module
from repro.compiler.parenthesization import (
    enumerate_trees,
    leaf,
    left_to_right_tree,
    linearize,
    right_to_left_tree,
)
from repro.compiler.selection import all_variants, flatten_cost_terms
from repro.compiler.states import associate, initial_states
from repro.compiler.variant import (
    Step,
    Variant,
    _build_fixups,
    _make_same_class,
    _single_matrix_variant,
    build_variant,
    build_variants,
)
from repro.experiments.sampling import EXTENDED_MATRIX_OPTIONS, option_to_operand

from conftest import (
    general_chain,
    make_general,
    make_lower,
    make_orthogonal,
    make_symmetric,
    make_upper,
)


class TestPaperExampleSection4:
    """(L1 G2^-1) G3: the worked example of Section IV step 1."""

    def setup_method(self):
        self.chain = Chain(
            (
                make_lower("L1").as_operand(),
                make_general("G2", invertible=True).inv,
                make_general("G3").as_operand(),
            )
        )
        self.variant = build_variant(self.chain, left_to_right_tree(3))

    def test_kernel_sequence(self):
        assert self.variant.kernel_names == ("TRSM", "GEGESV")

    def test_cost_is_5_thirds_m3_plus_2m2n(self):
        m, n = 48, 31
        got = self.variant.flop_cost((m, m, m, n))
        assert got == pytest.approx(5 / 3 * m**3 + 2 * m * m * n)

    def test_symbolic_cost(self):
        q0, q2, q3 = sympy.symbols("q0 q2 q3", positive=True)
        expected = sympy.expand(
            sympy.Rational(2, 3) * q0**3 + q0**2 * q2 + 2 * q0**2 * q3
        )
        assert sympy.simplify(self.variant.symbolic_cost() - expected) == 0

    def test_no_fixups(self):
        # The pending inversion is consumed by the second association.
        assert self.variant.fixups == ()


class TestStandardChains:
    def test_gemm_only(self):
        chain = general_chain(4)
        variant = build_variant(chain, left_to_right_tree(4))
        assert variant.kernel_names == ("GEMM",) * 3
        q = (2, 3, 4, 5, 6)
        expected = 2 * (2 * 3 * 4 + 2 * 4 * 5 + 2 * 5 * 6)
        assert variant.flop_cost(q) == expected

    def test_triplets_match_tree(self):
        chain = general_chain(5)
        for tree in enumerate_trees(5):
            variant = build_variant(chain, tree)
            assert variant.triplets == tuple(
                node.triplet for node in linearize(tree)
            )

    def test_outer_product_vs_inner_product(self):
        # x^T (y z^T) costs ~m times more than (x^T y) z^T (paper intro).
        x, y, z = (make_general(k) for k in "xyz")
        chain = Chain((x.T, y.as_operand(), z.T))
        m = 100
        q = (1, m, 1, m)
        outer_first = build_variant(chain, right_to_left_tree(3)).flop_cost(q)
        inner_first = build_variant(chain, left_to_right_tree(3)).flop_cost(q)
        assert outer_first / inner_first == pytest.approx(m, rel=0.05)


class TestFixups:
    def test_final_pending_inversion_forces_explicit_inverse(self):
        # A^-1 B^-1 = (B A)^-1: the inversion propagates to the end result.
        chain = Chain(
            (make_general("A", invertible=True).inv,
             make_general("B", invertible=True).inv)
        )
        variant = build_variant(chain, left_to_right_tree(2))
        assert variant.kernel_names == ("GEMM", "GEINV")
        m = 10
        assert variant.flop_cost((m, m, m)) == 2 * m**3 + 2 * m**3

    def test_triangular_pending_inversion_uses_trinv(self):
        chain = Chain((make_lower("L1").inv, make_lower("L2").inv))
        variant = build_variant(chain, left_to_right_tree(2))
        # (L2 L1)^-1: TRTRMM (same triangularity) then TRINV.
        assert variant.kernel_names == ("TRTRMM", "TRINV")
        m = 6
        assert variant.flop_cost((m, m, m)) == pytest.approx(m**3 / 3 + m**3 / 3)

    def test_final_pending_transpose(self):
        chain = Chain((make_lower("L").as_operand(), make_general("G").T))
        variant = build_variant(chain, left_to_right_tree(2))
        assert variant.kernel_names == ("TRMM", "TRANSPOSE")
        # Explicit transposition adds no FLOPs.
        q = (4, 4, 7)
        assert variant.flop_cost(q) == 4 * 4 * 7


class TestSingleMatrixChains:
    def test_plain_copy(self):
        chain = Chain((make_general("A").as_operand(),))
        variant = build_variant(chain, leaf(0))
        assert variant.kernel_names == ("COPY",)
        assert variant.flop_cost((3, 4)) == 0.0

    def test_explicit_inverse(self):
        chain = Chain((make_general("A", invertible=True).inv,))
        variant = build_variant(chain, leaf(0))
        assert variant.kernel_names == ("GEINV",)
        assert variant.flop_cost((5, 5)) == 2 * 5**3

    def test_explicit_transpose(self):
        chain = Chain((make_general("A").T,))
        variant = build_variant(chain, leaf(0))
        assert variant.kernel_names == ("TRANSPOSE",)

    def test_inverse_transpose(self):
        chain = Chain((make_general("A", invertible=True).invT,))
        variant = build_variant(chain, leaf(0))
        assert variant.kernel_names == ("GEINV", "TRANSPOSE")


class TestErrorsAndMeta:
    def test_wrong_tree_span_rejected(self):
        chain = general_chain(3)
        with pytest.raises(CompilationError):
            build_variant(chain, left_to_right_tree(4))

    def test_signature_distinguishes_variants(self):
        chain = general_chain(4)
        signatures = {build_variant(chain, t).signature() for t in enumerate_trees(4)}
        assert len(signatures) == len(enumerate_trees(4))

    def test_describe_mentions_kernels(self):
        chain = Chain(
            (make_symmetric("S", spd=True).inv, make_general("G").as_operand())
        )
        variant = build_variant(chain, left_to_right_tree(2), name="demo")
        text = variant.describe()
        assert "POGESV" in text
        assert "demo" in text

    def test_vectorized_cost_matches_scalar(self):
        chain = general_chain(4)
        variant = build_variant(chain, left_to_right_tree(4))
        instances = np.array([[2, 3, 4, 5, 6], [7, 3, 9, 2, 4]])
        many = variant.flop_cost_many(instances)
        for row, expected in zip(instances, many):
            assert variant.flop_cost(tuple(row)) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# The shared-step pool builder against the per-tree construction.
# ---------------------------------------------------------------------------


def leftmost_available_order(tree):
    """Section IV's order, computed literally: repeatedly issue the
    available association with the smallest left index."""
    remaining = list(tree.internal_nodes())
    done = set()
    order = []
    while remaining:
        ready = [
            node
            for node in remaining
            if all(
                child.is_leaf or (child.lo, child.hi) in done
                for child in (node.left, node.right)
            )
        ]
        chosen = min(ready, key=lambda node: node.lo)
        order.append(chosen)
        done.add((chosen.lo, chosen.hi))
        remaining.remove(chosen)
    return order


def per_tree_variant(chain, tree, name=""):
    """Oracle: one tree at a time, every association resolved afresh."""
    states = initial_states(chain)
    if chain.n == 1:
        return _single_matrix_variant(chain, states[0], name)
    same_class = _make_same_class(chain)
    span_state = {(i, i): states[i] for i in range(chain.n)}
    steps = []
    for index, node in enumerate(leftmost_available_order(tree)):
        result = associate(
            span_state[(node.left.lo, node.left.hi)],
            span_state[(node.right.lo, node.right.hi)],
            same_class,
            index,
        )
        steps.append(
            Step(
                index=index,
                kernel=result.kernel,
                side=result.side,
                cheap=result.cheap,
                left_ref=result.left.source,
                right_ref=result.right.source,
                left_state=result.left,
                right_state=result.right,
                triplet=node.triplet,
                call_dims=result.call_dims,
                cost=result.cost,
                result_state=result.result,
            )
        )
        span_state[(node.lo, node.hi)] = result.result
    final_state = span_state[(0, chain.n - 1)]
    return Variant(
        chain=chain,
        tree=tree,
        steps=tuple(steps),
        fixups=_build_fixups(final_state, chain),
        final_state=final_state,
        name=name,
    )


def per_tree_pool(chain):
    """Oracle for ``all_variants``: the per-tree loop over every tree."""
    return [
        per_tree_variant(chain, tree, name=f"P{i}")
        for i, tree in enumerate(enumerate_trees(chain.n))
    ]


@st.composite
def extended_chains(draw):
    """Chains over the extended option space, with transposes and inverses."""
    n = draw(st.integers(1, 7))
    operands = []
    for i in range(n):
        index = draw(st.integers(0, len(EXTENDED_MATRIX_OPTIONS) - 1))
        operand = option_to_operand(index, f"M{i}", EXTENDED_MATRIX_OPTIONS)
        inverted = operand.op.inverted or (
            operand.matrix.is_invertible and draw(st.booleans())
        )
        operands.append(
            Operand(operand.matrix, UnaryOp.from_flags(inverted, draw(st.booleans())))
        )
    return Chain(tuple(operands))


class TestSharedStepBuilder:
    @settings(max_examples=40, deadline=None)
    @given(extended_chains())
    def test_pool_equals_per_tree_loop(self, chain):
        try:
            expected = per_tree_pool(chain)
        except CompilationError:
            with pytest.raises(CompilationError):
                all_variants(chain)
            return
        assert all_variants(chain) == expected
        # The one-tree case goes through the same builder.
        tree = enumerate_trees(chain.n)[-1]
        assert build_variant(chain, tree, "x") == per_tree_variant(chain, tree, "x")

    def test_gemm10_equals_per_tree_loop(self):
        chain = general_chain(10)
        got = all_variants(chain)
        assert len(got) == 4862
        assert got == per_tree_pool(chain)

    def test_steps_are_shared_between_variants(self):
        chain = general_chain(5)
        pool = all_variants(chain)
        distinct = {id(step) for variant in pool for step in variant.steps}
        assert len(distinct) < sum(len(variant.steps) for variant in pool)

    def test_names_must_match_trees(self):
        chain = general_chain(3)
        with pytest.raises(ValueError):
            build_variants(chain, enumerate_trees(3), ["only-one"])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_linearize_is_post_order(self, n):
        for tree in enumerate_trees(n):
            order = list(tree.internal_nodes())
            assert linearize(tree) == order
            assert leftmost_available_order(tree) == order

    @pytest.mark.parametrize("n, before, bound", [(7, 792, 345), (10, 43758, 11253)])
    def test_associate_call_count(self, monkeypatch, n, before, bound):
        calls = []

        def counting(*args):
            calls.append(args)
            return associate(*args)

        chain = general_chain(n)
        assert len(enumerate_trees(n)) * (n - 1) == before  # one per tree node
        monkeypatch.setattr(variant_module, "associate", counting)
        all_variants(chain)
        assert len(calls) <= bound


def per_row_term_stack(variants, num_symbols):
    """Oracle for ``flatten_cost_terms``: one exponent row per term."""
    coeffs, rows, owner = [], [], []
    for v, variant in enumerate(variants):
        for coeff, powers in variant._flat_terms:
            row = np.zeros(num_symbols, dtype=np.int64)
            for sym, exp in powers:
                row[sym] = exp
            coeffs.append(coeff)
            rows.append(row)
            owner.append(v)
    exponents = np.stack(rows) if rows else np.zeros((0, num_symbols), np.int64)
    return (
        np.asarray(coeffs, dtype=np.float64),
        exponents,
        np.asarray(owner, dtype=np.intp),
    )


class TestFlattenCostTerms:
    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_matches_per_row_oracle(self, n):
        chain = Chain(
            tuple(
                option_to_operand(i % len(EXTENDED_MATRIX_OPTIONS), f"M{i}",
                                  EXTENDED_MATRIX_OPTIONS)
                for i in range(n)
            )
        )
        pool = all_variants(chain)
        got = flatten_cost_terms(pool, n + 1)
        for got_array, expected_array in zip(got, per_row_term_stack(pool, n + 1)):
            assert got_array.dtype == expected_array.dtype
            np.testing.assert_array_equal(got_array, expected_array)

    def test_empty_pool(self):
        coeffs, exponents, owner = flatten_cost_terms([], 4)
        assert coeffs.shape == (0,) and coeffs.dtype == np.float64
        assert exponents.shape == (0, 4) and exponents.dtype == np.int64
        assert owner.shape == (0,) and owner.dtype == np.intp

    def test_variant_terms_concatenate_step_terms(self):
        chain = Chain((make_general("A", invertible=True).inv,
                       make_general("B", invertible=True).inv))
        variant = build_variant(chain, left_to_right_tree(2))
        assert variant.fixups  # GEINV fix-up terms follow the step terms
        assert variant._flat_terms == (
            variant.steps[0]._flat_terms + variant.fixups[0]._flat_terms
        )
