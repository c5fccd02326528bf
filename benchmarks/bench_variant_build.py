"""Compile-time costs: variant construction and full enumeration.

Multi-versioning shifts work to compile time; this benchmark quantifies it:
building one variant (the four-step procedure of Section IV), enumerating
all C_{n-1} variants, and emitting the C++ translation unit.

``test_shared_steps_speedup`` is a plain acceptance test (run without
``--benchmark-only``): ``all_variants`` on a 10-matrix GEMM chain must
build its 4,862 variants >= 3x faster than resolving every tree from
scratch, with equal output.  ``test_cost_sweep_speedup`` is another:
``flop_cost_matrix`` must price the seeded n=7 pool on 1000 instances and
the GEMM10 pool on 20 instances bit for bit like a per-term ``np.add.at``
sweep, and >= 2x faster.
"""

import time

import numpy as np
import pytest

from repro.codegen.cpp_emitter import emit_cpp
from repro.compiler.parenthesization import enumerate_trees, left_to_right_tree
from repro.compiler.selection import all_variants, essential_set, flop_cost_matrix
from repro.compiler.states import associate, initial_states
from repro.compiler.variant import (
    Step,
    Variant,
    _build_fixups,
    _make_same_class,
    build_variant,
)
from repro.experiments.sampling import sample_instances, sample_shapes
from repro.ir.chain import Chain
from repro.ir.matrix import Matrix

from conftest import emit

#: Required speedup of the shared-step pool builder over the per-tree one.
SPEEDUP_FLOOR = 3.0
#: Required speedup of the unique-term cost sweep over the per-term one on
#: each pool: half the smaller measured ratio (2-core Xeon: about 35x on
#: the n=7 pool, 4x on GEMM10, whose time is mostly the Python walk over
#: 4,862 variants).
SWEEP_SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def chain7():
    rng = np.random.default_rng(17)
    return sample_shapes(7, 1, rng, rectangular_probability=0.5)[0]


def test_build_single_variant(benchmark, chain7):
    tree = left_to_right_tree(7)
    variant = benchmark(build_variant, chain7, tree)
    assert len(variant.steps) == 6


def test_enumerate_all_variants(benchmark, chain7):
    variants = benchmark(all_variants, chain7)
    assert len(variants) == 132


def test_emit_cpp_translation_unit(benchmark, chain7):
    rng = np.random.default_rng(1)
    train = sample_instances(chain7, 300, rng)
    selected = essential_set(chain7, training_instances=train)
    source = benchmark(emit_cpp, chain7, selected)
    assert "dispatch" in source.lower() or "best" in source


def test_code_size_scaling(benchmark):
    """Generated code size grows linearly with the variant count."""
    rng = np.random.default_rng(2)
    chain = sample_shapes(6, 1, rng, rectangular_probability=0.5)[0]
    variants = all_variants(chain)

    def sweep():
        rows, sizes = [], []
        for k in (1, 2, 4, 8):
            source = emit_cpp(chain, variants[:k])
            lines = len(source.splitlines())
            rows.append(f"{k:2d} variants -> {lines:5d} lines of C++")
            sizes.append(lines)
        return rows, sizes

    rows, sizes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
    emit("Code-size overhead vs variant count", "\n".join(rows))


def leftmost_available_order(tree):
    """Section IV's issue order, computed literally: repeatedly issue the
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


def per_tree_variant(chain, tree, name):
    """One tree built from scratch: one ``associate`` per tree node."""
    states = initial_states(chain)
    same_class = _make_same_class(chain)
    span_state = {(j, j): states[j] for j in range(chain.n)}
    steps = []
    for index, node in enumerate(leftmost_available_order(tree)):
        result = associate(
            span_state[(node.left.lo, node.left.hi)],
            span_state[(node.right.lo, node.right.hi)],
            same_class,
            index,
        )
        steps.append(Step.of(result, index, node.triplet))
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
    """The per-tree construction loop over every parenthesization."""
    return [
        per_tree_variant(chain, tree, f"P{i}")
        for i, tree in enumerate(enumerate_trees(chain.n))
    ]


def test_shared_steps_speedup():
    """GEMM10: shared sub-chain steps beat per-tree construction >= 3x."""
    chain = Chain(tuple(Matrix(f"G{i + 1}").as_operand() for i in range(10)))
    best = {"per-tree": float("inf"), "shared": float("inf")}
    for _ in range(3):
        for label, build in (("per-tree", per_tree_pool), ("shared", all_variants)):
            start = time.perf_counter()
            pool = build(chain)
            best[label] = min(best[label], time.perf_counter() - start)
            if label == "per-tree":
                expected = pool
            else:
                assert len(pool) == 4862 and pool == expected
    speedup = best["per-tree"] / best["shared"]
    emit(
        "Variant pool build, GEMM10 (4862 variants)",
        f"per-tree {best['per-tree'] * 1e3:8.1f} ms\n"
        f"shared   {best['shared'] * 1e3:8.1f} ms\n"
        f"speedup  {speedup:8.2f}x (floor {SPEEDUP_FLOOR}x)",
    )
    assert speedup >= SPEEDUP_FLOOR


def per_term_cost_matrix(variants, instances):
    """Reference sweep: every stacked term priced on its own (the
    coefficient, then the powers in symbol order), then scattered into the
    matrix in term order with ``np.add.at``."""
    coeffs, exponents, owner = [], [], []
    for v, variant in enumerate(variants):
        for coeff, powers in variant._flat_terms:
            row = [0] * instances.shape[1]
            for sym, exp in powers:
                row[sym] = exp
            coeffs.append(coeff)
            exponents.append(row)
            owner.append(v)
    exponents = np.array(exponents, dtype=np.int64)
    values = np.repeat(np.array(coeffs)[:, None], len(instances), axis=1)
    for sym in range(instances.shape[1]):
        values *= instances[:, sym] ** exponents[:, sym, None]
    costs = np.zeros((len(variants), len(instances)))
    np.add.at(costs, owner, values)
    return costs


def test_cost_sweep_speedup(chain7):
    """The unique-term sweep equals the per-term one bit for bit, >= 2x faster."""
    rng = np.random.default_rng(3)
    gemm10 = Chain(tuple(Matrix(f"G{i + 1}").as_operand() for i in range(10)))
    rows = []
    for label, chain, count in (("n=7", chain7, 1000), ("GEMM10", gemm10, 20)):
        variants = all_variants(chain)
        instances = sample_instances(chain, count, rng).astype(np.float64)
        best = {"per-term": float("inf"), "unique": float("inf")}
        for _ in range(5):
            for name, sweep in (
                ("per-term", per_term_cost_matrix),
                ("unique", flop_cost_matrix),
            ):
                start = time.perf_counter()
                costs = sweep(variants, instances)
                best[name] = min(best[name], time.perf_counter() - start)
                if name == "per-term":
                    expected = costs
                else:
                    assert np.array_equal(costs, expected)
        speedup = best["per-term"] / best["unique"]
        rows.append(
            f"{label:6s} ({len(variants)} variants x {count} instances): "
            f"per-term {best['per-term'] * 1e3:6.1f} ms, "
            f"unique {best['unique'] * 1e3:6.1f} ms, {speedup:5.2f}x"
        )
        assert speedup >= SWEEP_SPEEDUP_FLOOR, rows[-1]
    emit(
        f"FLOP cost sweep (floor {SWEEP_SPEEDUP_FLOOR}x per pool)", "\n".join(rows)
    )
