"""Property-based tests (hypothesis) for core invariants.

The strategies draw random shapes from the experiment option space (with
optional transpositions) and random instances, then check the invariants
that the paper's theory and the compiler's correctness rest on:

* every variant of every shape computes the same value (oracle equality);
* FLOP costs are positive and monotonically increasing in every size;
* the fanning-out set is within the Lemma 2 constant of the optimum;
* the essential set has bounded penalty (Theorem 1/2);
* parsing a printed program round-trips.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ir.chain import Chain
from repro.ir.operand import Operand, UnaryOp
from repro.ir.parser import parse_program
from repro.runtime.executor import (
    execute_variant,
    naive_evaluate,
    random_instance_arrays,
)
from repro.compiler.parenthesization import enumerate_trees
from repro.compiler.selection import (
    LEMMA2_FACTOR,
    all_variants,
    fanning_out_variants,
    optimal_cost,
)
from repro.compiler.variant import build_variant
from repro.experiments.sampling import MATRIX_OPTIONS, option_to_operand

# -- strategies --------------------------------------------------------------

option_indices = st.integers(min_value=0, max_value=len(MATRIX_OPTIONS) - 1)


@st.composite
def shapes(draw, min_n=2, max_n=5, allow_transpose=False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    options = draw(st.lists(option_indices, min_size=n, max_size=n))
    operands = []
    for i, opt in enumerate(options):
        operand = option_to_operand(opt, f"M{i + 1}")
        if (
            allow_transpose
            and operand.op is UnaryOp.NONE
            and draw(st.booleans())
        ):
            operand = Operand(operand.matrix, UnaryOp.TRANSPOSE)
        operands.append(operand)
    return Chain(tuple(operands))


@st.composite
def shape_and_sizes(draw, low=2, high=9, **kwargs):
    chain = draw(shapes(**kwargs))
    classes = chain.equivalence_classes()
    draws = {
        cls: draw(st.integers(min_value=low, max_value=high)) for cls in classes
    }
    sizes = [0] * (chain.n + 1)
    for cls, value in draws.items():
        for idx in cls:
            sizes[idx] = value
    return chain, tuple(sizes)


# -- invariants ----------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=shape_and_sizes(allow_transpose=True), seed=st.integers(0, 2**16))
def test_all_variants_compute_the_same_value(data, seed):
    chain, sizes = data
    rng = np.random.default_rng(seed)
    arrays = random_instance_arrays(chain, sizes, rng)
    expected = naive_evaluate(chain, arrays)
    scale = max(1.0, float(np.abs(expected).max()))
    for variant in all_variants(chain):
        got = execute_variant(variant, arrays)
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(data=shape_and_sizes(low=2, high=400, allow_transpose=True))
def test_costs_positive_and_monotone(data):
    chain, sizes = data
    for tree in enumerate_trees(chain.n)[:8]:
        variant = build_variant(chain, tree)
        base = variant.flop_cost(sizes)
        assert base >= 0.0
        # Grow one whole equivalence class at a time: cost cannot decrease.
        for cls in chain.equivalence_classes():
            grown = list(sizes)
            for idx in cls:
                grown[idx] += 7
            assert variant.flop_cost(tuple(grown)) >= base - 1e-9


@settings(max_examples=30, deadline=None)
@given(data=shape_and_sizes(low=2, high=1000))
def test_fanning_out_within_lemma2_factor(data):
    chain, sizes = data
    opt = optimal_cost(chain, sizes)
    best_fanning = min(
        v.flop_cost(sizes) for v in fanning_out_variants(chain).values()
    )
    if opt == 0.0:
        assert best_fanning == 0.0
    else:
        assert best_fanning <= LEMMA2_FACTOR * opt


@settings(max_examples=15, deadline=None)
@given(data=shape_and_sizes(low=2, high=1000), seed=st.integers(0, 2**16))
def test_essential_set_penalty_bounded(data, seed):
    from repro.compiler.selection import essential_set
    from repro.experiments.sampling import sample_instances

    chain, sizes = data
    rng = np.random.default_rng(seed)
    train = sample_instances(chain, 100, rng, low=2, high=1000)
    selected = essential_set(chain, training_instances=train)
    opt = optimal_cost(chain, sizes)
    best = min(v.flop_cost(sizes) for v in selected)
    if opt == 0.0:
        assert best == 0.0
    else:
        assert best / opt - 1.0 <= LEMMA2_FACTOR - 1.0


@settings(max_examples=30, deadline=None)
@given(chain=shapes(allow_transpose=True))
def test_parser_roundtrip(chain):
    definitions = []
    seen = set()
    for operand in chain:
        matrix = operand.matrix
        if matrix.name not in seen:
            seen.add(matrix.name)
            definitions.append(
                f"Matrix {matrix.name} <{matrix.structure.value}, "
                f"{matrix.prop.value}>;"
            )
    expression = "R := " + " * ".join(str(op) for op in chain) + ";"
    program = parse_program("\n".join(definitions) + "\n" + expression)
    assert program.chain == chain


@settings(max_examples=20, deadline=None)
@given(data=shape_and_sizes(low=2, high=50))
def test_dp_never_worse_than_enumeration(data):
    from repro.compiler.dp import dp_optimal_cost

    chain, sizes = data
    assert dp_optimal_cost(chain, sizes) <= optimal_cost(chain, sizes) * (1 + 1e-9) + 1e-9


@settings(max_examples=20, deadline=None)
@given(chain=shapes(allow_transpose=True))
def test_serialization_roundtrip_preserves_signatures(chain):
    from repro.codegen import serialize

    variants = all_variants(chain)
    loaded_chain, loaded = serialize.loads(serialize.dumps(chain, variants))
    assert loaded_chain == chain
    assert [v.signature() for v in loaded] == [v.signature() for v in variants]


@settings(max_examples=20, deadline=None)
@given(data=shape_and_sizes(low=2, high=80, allow_transpose=True))
def test_memory_plan_invariants(data):
    from repro.compiler.memory import plan_memory

    chain, sizes = data
    for tree in enumerate_trees(chain.n)[:6]:
        variant = build_variant(chain, tree)
        plan = plan_memory(variant, sizes)
        assert plan.peak_bytes <= plan.naive_bytes
        assert sum(plan.buffer_sizes) <= plan.naive_bytes
        assert len(plan.assignments) == len(variant.steps)
        # Buffers are large enough for every value they host.
        for assignment in plan.assignments:
            capacity = plan.buffer_sizes[assignment.buffer_id]
            assert assignment.bytes <= capacity


@settings(max_examples=25, deadline=None)
@given(chain=shapes(allow_transpose=True))
def test_every_variant_passes_the_verifier(chain):
    from repro.compiler.validation import verify_variant

    for variant in all_variants(chain):
        verify_variant(variant)
