"""Tests for variant construction (Section IV), including paper examples."""

from dataclasses import replace

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
from repro.api import compile_chain
from repro.compiler import selection
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
from repro.experiments.sampling import (
    EXTENDED_MATRIX_OPTIONS,
    option_to_operand,
    sample_shapes,
)
from repro.ir.parser import parse_chain

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


def expand_term_stack(stack, num_symbols):
    """A unique-term stack back to one ``(coeff, exponents, owner)`` row per
    term, variant by variant in term order (the index's padding dropped)."""
    coeffs, factors, index = stack
    exponents = np.zeros((len(coeffs), num_symbols), dtype=np.int64)
    for row, pairs in enumerate(factors):
        for sym, exp in pairs:
            exponents[row, sym] += exp  # (0, 0) padding adds nothing
    owner, position = np.nonzero(index != len(coeffs) - 1)
    rows = index[owner, position]
    return coeffs[rows], exponents[rows], owner


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
        stack = flatten_cost_terms(pool)
        coeffs, factors, index = stack
        # The last table row is the zero padding row; the others are
        # distinct terms, each with its factors in symbol order; padding
        # only ever trails a variant's terms (and a term's factors).
        assert coeffs[-1] == 0 and not factors[-1].any()
        terms = len(coeffs) - 1
        table = np.column_stack(
            [coeffs[:-1].view(np.int64), factors[:-1].reshape(terms, factors[0].size)]
        )
        assert len(np.unique(table, axis=0)) == len(table)
        for pairs in factors.tolist():
            syms = [sym for sym, exp in pairs if exp]
            assert syms == sorted(set(syms))
            assert not any(map(any, pairs[len(syms):]))
        padded = index == len(coeffs) - 1
        assert (padded[:, :-1] <= padded[:, 1:]).all()
        got = expand_term_stack(stack, n + 1)
        for got_array, expected_array in zip(got, per_row_term_stack(pool, n + 1)):
            assert got_array.dtype == expected_array.dtype
            np.testing.assert_array_equal(got_array, expected_array)

    def test_empty_pool(self):
        coeffs, factors, index = flatten_cost_terms([])
        np.testing.assert_array_equal(coeffs, [0.0])  # the padding row
        assert coeffs.dtype == np.float64
        assert factors.shape == (1, 1, 2) and not factors.any()
        assert index.shape == (0, 0) and index.dtype == np.intp
        for array in expand_term_stack((coeffs, factors, index), 4):
            assert array.shape[0] == 0

    def test_variant_terms_concatenate_step_terms(self):
        chain = Chain((make_general("A", invertible=True).inv,
                       make_general("B", invertible=True).inv))
        variant = build_variant(chain, left_to_right_tree(2))
        assert variant.fixups  # GEINV fix-up terms follow the step terms
        assert variant._flat_terms == (
            variant.steps[0]._flat_terms + variant.fixups[0]._flat_terms
        )


def per_variant_term_stack(variants):
    """Reference for ``flatten_cost_terms``: the same table, with each
    variant's cached terms looked up term by term (no call is shared)."""
    rows: dict = {}
    picks = [[rows.setdefault(t, len(rows)) for t in v._flat_terms] for v in variants]
    pad = len(rows)
    coeffs = np.zeros(pad + 1, dtype=np.float64)
    coeffs[:pad] = [coeff for coeff, _ in rows]
    factors = np.zeros(
        (pad + 1, max([1] + [len(powers) for _, powers in rows]), 2), dtype=np.intp
    )
    for (_, powers), row in rows.items():
        for position, pair in enumerate(powers):
            factors[row, position] = pair
    width = max([0] + [len(p) for p in picks])
    index = np.full((len(picks), width), pad, np.intp, order="F")
    for v, variant_rows in enumerate(picks):
        index[v, : len(variant_rows)] = variant_rows
    return coeffs, factors, index


def assert_stacks_identical(got, expected):
    for got_array, expected_array in zip(got, expected):
        assert got_array.dtype == expected_array.dtype
        assert got_array.flags.f_contiguous == expected_array.flags.f_contiguous
        np.testing.assert_array_equal(got_array, expected_array)


#: Program text of GEMM10, the exhaustive 10-matrix GEMM chain.
GEMM10 = (
    "; ".join(f"Matrix A{i} <General, Singular>" for i in range(10))
    + "; R := " + " * ".join(f"A{i}" for i in range(10)) + ";"
)

#: The repository benchmark's programs: its library-user chains (the
#: ``examples/`` programs), GEMM10 and two seeded n=7 shapes, with their
#: compile options; then the 16 seeded shapes of its Fig. 6 workload.
BENCHMARK_PROGRAMS = [
    (parse_chain(source), {"size_range": (4, 64)})
    for source in (
        "Matrix P <Symmetric, SPD>; Matrix A <General, Singular>; "
        "Matrix B <General, Singular>; X := P^-1 * A^T * B;",
        "Matrix B <General, Singular>; Matrix D <Symmetric, SPD>; "
        "Matrix C <General, Singular>; S := B * D^-1 * C;",
        "Matrix D <Diagonal, NonSingular>; Matrix A <Symmetric, SPD>; "
        "Matrix B <General, Singular>; R := D^-1 * A * D^-1 * B;",
        "Matrix G1 <General, Singular>; Matrix L <LowerTri, NonSingular>; "
        "Matrix G2 <General, Singular>; R := G1 * L^-1 * G2;",
        "Matrix X <General, Singular>; Matrix HX <General, Singular>; "
        "Matrix HXc <General, Singular>; Matrix M <Symmetric, SPD>; "
        "R := X * HX * HXc^T * M^-1;",
        "Matrix G1 <General, Singular>; Matrix L1 <LowerTri, NonSingular>; "
        "Matrix G2 <General, Singular>; Matrix L2 <LowerTri, NonSingular>; "
        "R := G1 * L1^-1 * G2 * L2^-1;",
    )
] + [(parse_chain(GEMM10), {"size_range": (4, 64), "num_training_instances": 20})] + [
    (chain, {"size_range": (4, 64)})
    for chain in sample_shapes(7, 2, np.random.default_rng([2026, 8]))
] + [
    (chain, {"size_range": (50, 500)})
    for chain in sample_shapes(7, 16, np.random.default_rng([2026, 6]))
]


class TestPricingEachDistinctCall:
    """``flatten_cost_terms`` resolves each distinct kernel call once."""

    def test_gemm10_resolves_at_most_165_calls(self, monkeypatch):
        pool = all_variants(parse_chain(GEMM10))
        calls = []

        def counting(cost, call_dims):
            calls.append((cost, call_dims))
            return variant_module.call_terms(cost, call_dims)

        monkeypatch.setattr(selection, "call_terms", counting)
        stack = flatten_cost_terms(pool)
        steps = {id(step): step for v in pool for step in v.steps}
        assert len(steps) == 11253
        assert len(calls) <= 165
        assert_stacks_identical(stack, per_variant_term_stack(pool))

    @pytest.mark.parametrize(
        "operands",
        [
            # every variant ends in a GEINV fix-up on q0
            tuple(make_general(k, invertible=True).inv for k in "ABC"),
            # GEINV then TRANSPOSE, both on q0
            (make_general("A", invertible=True).invT,),
        ],
        ids=["geinv", "geinv-transpose"],
    )
    def test_fixup_calls_resolve_once(self, monkeypatch, operands):
        pool = all_variants(Chain(operands))
        assert all(v.fixups for v in pool)
        calls = []

        def counting(cost, call_dims):
            calls.append((cost, call_dims))
            return variant_module.call_terms(cost, call_dims)

        monkeypatch.setattr(selection, "call_terms", counting)
        stack = flatten_cost_terms(pool)
        assert len(calls) == len(set(calls))
        assert_stacks_identical(stack, per_variant_term_stack(pool))

    @pytest.mark.parametrize(
        "second",
        [make_general("G").as_operand(), make_lower("L2").as_operand()],
        ids=["trmm", "trtrmm"],
    )
    def test_side_and_cost_case_are_part_of_the_call(self, second):
        """The same kernel on the same dims prices differently per side
        (TRMM: left ``m^2 n``, right ``m n^2``) and per cost case (TRTRMM:
        ``m^3 / 3`` cheap, ``2 m^3 / 3`` not)."""
        chain = Chain((make_lower("L").as_operand(), second))
        [variant] = all_variants(chain)
        [step] = variant.steps
        pool = [
            replace(
                variant,
                steps=(replace(step, side=side, cheap=cheap,
                               cost=step.kernel.cost(side=side, cheap=cheap)),),
            )
            for side in ("left", "right")
            for cheap in (True, False)
        ]
        stack = flatten_cost_terms(pool)
        assert_stacks_identical(stack, per_variant_term_stack(pool))
        assert len({tuple(row) for row in stack[2].tolist()}) > 1

    @pytest.mark.parametrize(
        "chain, options",
        BENCHMARK_PROGRAMS,
        ids=[f"{c.n}-{i}" for i, (c, _) in enumerate(BENCHMARK_PROGRAMS)],
    )
    def test_selection_and_cost_matrices_unchanged(self, monkeypatch, chain, options):
        """The compiled variants and every cost matrix of the compile are
        the ones the per-variant reference stack gives."""
        pool = all_variants(chain)
        assert_stacks_identical(flatten_cost_terms(pool), per_variant_term_stack(pool))

        def compile_recording(flatten):
            matrices = []

            def recording(stack, instances):
                costs = evaluate(stack, instances)
                matrices.append(costs)
                return costs

            with monkeypatch.context() as patch:
                patch.setattr(selection, "flatten_cost_terms", flatten)
                patch.setattr(selection, "evaluate_cost_terms", recording)
                generated = compile_chain(
                    chain, backend="blas", use_cache=False, seed=0, **options
                )
            return [v.name for v in generated.variants], matrices

        evaluate = selection.evaluate_cost_terms
        names, matrices = compile_recording(flatten_cost_terms)
        expected_names, expected = compile_recording(per_variant_term_stack)
        assert names == expected_names
        assert matrices and len(matrices) == len(expected)
        for got, want in zip(matrices, expected):
            np.testing.assert_array_equal(got, want)
