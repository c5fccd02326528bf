"""Variant selection theory (paper Section V).

Implements:

* enumeration of all variants (one per parenthesization, via the
  deterministic construction of Section IV);
* the fanning-out variants ``E_h`` and the full fanning-out set ``E``
  (``n - 1`` distinct members for ``n <= 3``, ``n + 1`` otherwise);
* the essential set ``E_s`` of Theorem 2: one fanning-out variant per
  size-symbol equivalence class, with representatives chosen greedily to
  minimize an objective over a training set of instances;
* penalties ``P(Z, q)`` and empirical total penalties over instance sets;
* the left-to-right reference variant ``L``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ir.chain import Chain
from repro.compiler.parenthesization import (
    enumerate_trees,
    fanning_out_tree,
    left_to_right_tree,
)
from repro.compiler.variant import Variant, build_variant, build_variants

#: Worst-case bound on the constant of Lemma 2 (``alpha-hat <= 8``), hence
#: ``T(E_m, q) < 16 T_opt`` and the total penalty of E is at most 15.
LEMMA2_FACTOR = 16.0
TOTAL_PENALTY_BOUND = 15.0


def all_variants(chain: Chain) -> list[Variant]:
    """One variant per parenthesization: the paper's full set ``A``.

    ``P{i}`` is built from the ``i``-th tree of ``enumerate_trees``, whose
    trees share subtree objects, so :func:`build_variants` resolves each
    (subtree, offset) once: 11,253 ``associate`` calls for GEMM10, not 43,758.
    """
    trees = enumerate_trees(chain.n)
    return build_variants(chain, trees, [f"P{i}" for i in range(len(trees))])


def left_to_right_variant(chain: Chain) -> Variant:
    """The in-house left-to-right reference ``L`` (equals ``E_0``)."""
    return build_variant(chain, left_to_right_tree(chain.n), name="L")


def distinct_fanning_trees(chain: Chain) -> dict[int, "ParenTree"]:
    """The distinct fanning-out trees ``E_h`` keyed by ``h``.

    Duplicate parenthesizations (which occur for ``n <= 3``) are dropped,
    keeping the smallest ``h``; the result has ``n - 1`` members for
    ``n <= 3`` and ``n + 1`` members otherwise.  The single source of the
    collapse rule — both the variant construction below and the variant
    spaces build their fanning candidates from it.
    """
    trees: dict[int, "ParenTree"] = {}
    seen: set = set()
    for h in range(chain.n + 1):
        tree = fanning_out_tree(chain.n, h)
        key = _tree_key(tree)
        if key in seen:
            continue
        seen.add(key)
        trees[h] = tree
    return trees


def fanning_out_variants(chain: Chain) -> dict[int, Variant]:
    """The distinct fanning-out variants ``E_h`` keyed by ``h``
    (see :func:`distinct_fanning_trees` for the dedupe rule)."""
    trees = distinct_fanning_trees(chain)
    variants = build_variants(chain, trees.values(), [f"E{h}" for h in trees])
    return dict(zip(trees, variants))


def _tree_key(tree) -> object:
    if tree.is_leaf:
        return tree.lo
    return (_tree_key(tree.left), _tree_key(tree.right))


# ---------------------------------------------------------------------------
# Penalties.
# ---------------------------------------------------------------------------

def optimal_cost(chain: Chain, sizes: Sequence[int]) -> float:
    """``min_{A in A} T(A, q)``: optimum over all parenthesizations."""
    return min(v.flop_cost(sizes) for v in all_variants(chain))


def penalty(
    selected: Sequence[Variant], chain: Chain, sizes: Sequence[int]
) -> float:
    """Penalty ``P(Z, q)`` of eq. (2): relative cost increase over optimal."""
    if not selected:
        return float("inf")
    best_selected = min(v.flop_cost(sizes) for v in selected)
    return best_selected / optimal_cost(chain, sizes) - 1.0


#: Cells (floats) of one instance block's working set in
#: :func:`evaluate_cost_terms`.
SWEEP_CELLS = 1 << 20

#: A variant pool's cost terms, de-duplicated: ``(coefficients (U,),
#: factors (U, F, 2), index (variants, most terms per variant))``.  Unique
#: term ``u`` is ``coefficients[u] * prod_f q[s_f] ** e_f`` over its
#: ``(s_f, e_f) = factors[u, f]``, in symbol order and padded with
#: ``(0, 0)`` (``q_0 ** 0`` is 1.0, and multiplying by 1.0 is exact).  Row
#: ``index[v, j]`` of the table is the ``j``-th term of variant ``v``;
#: shorter variants are padded with the last row, which has coefficient 0
#: and so prices to 0.  The index is Fortran-ordered, so each of its
#: columns is contiguous.  Built once per pool by
#: :func:`flatten_cost_terms`; evaluated on any instance batch by
#: :func:`evaluate_cost_terms`.  The dispatcher caches one per selected
#: set, so per-call dispatch pays only the evaluation sweep.
TermStack = tuple[np.ndarray, np.ndarray, np.ndarray]


def flatten_cost_terms(variants: Sequence[Variant]) -> TermStack:
    """Index every variant's monomial cost terms into one table of unique terms.

    Every variant's cost is a sum of monomial terms
    ``coeff * prod_s q_s^e_s``.  A pool repeats few distinct terms many
    times (an n=7 pool stacks about a thousand terms, of which a few dozen
    are distinct), so each distinct ``(coefficient, powers)`` term is one
    row of the table and is priced once per instance.

    Variants of one pool share their :class:`~repro.compiler.variant.Step`
    objects, so each step's (or fix-up's) cached terms are looked up in
    the table once; the index matrix then gathers every variant's rows.
    """
    rows: dict = {}  # (coeff, powers) -> unique table row
    part_rows: dict[int, list[int]] = {}  # id(step or fix-up) -> its rows
    picks: list[int] = []  # table row of every term, variant by variant
    counts: list[int] = []  # terms per variant
    for variant in variants:
        before = len(picks)
        for part in variant.steps + variant.fixups:
            found = part_rows.get(id(part))
            if found is None:
                found = part_rows[id(part)] = [
                    rows.setdefault(term, len(rows)) for term in part._flat_terms
                ]
            picks += found
        counts.append(len(picks) - before)
    pad = len(rows)  # the zero row
    coeffs = np.zeros(pad + 1, dtype=np.float64)
    coeffs[:pad] = [coeff for coeff, _ in rows]
    factors = np.zeros(
        (pad + 1, max([1] + [len(powers) for _, powers in rows]), 2), dtype=np.intp
    )
    for (_, powers), row in rows.items():
        for position, pair in enumerate(powers):
            factors[row, position] = pair
    # Each term's position in its variant: its stack offset minus the
    # offset of its variant's first term.
    counts = np.array(counts, dtype=np.intp)
    owner = np.repeat(np.arange(len(counts)), counts)
    position = np.arange(len(picks)) - (np.cumsum(counts) - counts)[owner]
    index = np.full((len(counts), counts.max(initial=0)), pad, np.intp, order="F")
    index[owner, position] = picks
    return coeffs, factors, index


def evaluate_cost_terms(stack: TermStack, instances: np.ndarray) -> np.ndarray:
    """Evaluate a term stack on instances: ``(variants, count)`` costs.

    Each unique term is priced once per instance: the coefficient, then
    times each ``q_s ** e_s`` in symbol order, as
    :meth:`Variant.flop_cost <repro.compiler.variant.Variant.flop_cost>`
    does (each distinct power ``q_s ** e`` is computed once).  Each
    variant's terms are then summed left to right, one index column at a
    time, so every cost is the same float as that sequential sum.  (A
    pairwise, matmul or ``reduceat`` sum changes the last bits, which can
    flip exact ties in selection.)  Instances are swept in blocks of at
    most :data:`SWEEP_CELLS` working-set cells.
    """
    coeffs, factors, index = stack
    instances = np.asarray(instances, dtype=np.float64)
    num_instances = instances.shape[0]
    costs = np.zeros((index.shape[0], num_instances))
    if num_instances == 0 or index.size == 0:
        return costs
    symbols, exponents = factors.T  # (factor, term) each
    degrees = np.arange(exponents.max() + 1)[:, None]
    # Per instance: the distinct powers, the term values, one gathered
    # factor and one gathered term column.
    cells = instances.shape[1] * len(degrees) + 2 * len(coeffs) + len(index)
    block = max(1, SWEEP_CELLS // cells)
    for start in range(0, num_instances, block):
        q = instances[start:start + block]
        powers = q.T[:, None, :] ** degrees  # (symbol, exponent, instance)
        values = coeffs[:, None] * powers[symbols[0], exponents[0]]
        for sym, exp in zip(symbols[1:], exponents[1:]):
            values *= powers[sym, exp]
        total = costs[:, start:start + block]
        for column in index.T:
            total += values[column]
    return costs


def flop_cost_matrix(
    variants: Sequence[Variant], instances: np.ndarray
) -> np.ndarray:
    """Batched FLOP costs: ``(num_variants, num_instances)`` in one sweep.

    One-shot composition of :func:`flatten_cost_terms` and
    :func:`evaluate_cost_terms`; callers that evaluate the same pool
    repeatedly (the dispatcher) flatten once and keep the stack.
    """
    instances = np.asarray(instances, dtype=np.float64)
    if instances.ndim != 2:
        raise ValueError(
            f"instances must be a 2-D (count, n+1) array, got shape "
            f"{instances.shape}"
        )
    if instances.shape[0] == 0 or not len(variants):
        return np.zeros((len(variants), instances.shape[0]))
    stack = flatten_cost_terms(variants)
    return evaluate_cost_terms(stack, instances)


def cost_matrix(
    variants: Sequence[Variant],
    instances: np.ndarray,
    estimator=None,
) -> np.ndarray:
    """Costs of every variant on every instance: ``(num_variants, count)``.

    ``estimator`` is any dispatcher cost estimator.  ``None`` or
    :func:`~repro.runtime.dispatcher.flop_estimator` prices FLOPs with the
    term-stack sweep (:func:`flop_cost_matrix`); an estimator with the
    batched ``cost_many(variant, instances)`` form (every
    :class:`~repro.perfmodel.machine.KernelTimeModel`) is called once per
    variant; any other is called once per (variant, instance) on int tuples.
    """
    from repro.runtime.dispatcher import flop_estimator

    instances = np.asarray(instances, dtype=np.float64)
    if estimator is None or estimator is flop_estimator:
        return flop_cost_matrix(variants, instances)
    cost_many = getattr(estimator, "cost_many", None)
    if cost_many is not None:
        rows = [cost_many(v, instances) for v in variants]
    else:
        sizes = [tuple(int(x) for x in row) for row in instances]
        rows = [[float(estimator(v, q)) for q in sizes] for v in variants]
    return np.array(rows, dtype=np.float64).reshape(len(variants), len(instances))


class CostMatrix:
    """Pre-evaluated costs of many variants on many instances.

    The expansion procedure and the experiments repeatedly need
    ``min_{Z in S} T(Z, q_i)`` for varying subsets ``S``; precomputing the
    full ``(num_variants, num_instances)`` cost matrix makes each subset
    evaluation a cheap row-wise minimum.
    """

    def __init__(
        self,
        variants: Sequence[Variant],
        instances: np.ndarray,
        estimator=None,
    ):
        """Costs under ``estimator`` (see :func:`cost_matrix`).

        Defaults to the FLOP cost; the execution-time experiment passes the
        simulated machine or the performance models.
        """
        self.variants = list(variants)
        self.instances = np.asarray(instances, dtype=np.float64)
        if self.instances.ndim != 2:
            raise ValueError("instances must be a 2-D (count, n+1) array")
        self.costs = cost_matrix(self.variants, self.instances, estimator)
        self.optimal = self.costs.min(axis=0)

    @property
    def num_instances(self) -> int:
        return self.instances.shape[0]

    def ratios(self, indices: Sequence[int]) -> np.ndarray:
        """Per-instance ratio over optimal of the best variant in the subset."""
        if len(indices) == 0:
            return np.full(self.num_instances, np.inf)
        subset = self.costs[np.asarray(indices, dtype=np.intp)]
        return subset.min(axis=0) / self.optimal

    def penalties(self, indices: Sequence[int]) -> np.ndarray:
        return self.ratios(indices) - 1.0

    def average_penalty(self, indices: Sequence[int]) -> float:
        return float(self.penalties(indices).mean())

    def max_penalty(self, indices: Sequence[int]) -> float:
        return float(self.penalties(indices).max())


def essential_set(
    chain: Chain,
    training_instances: Optional[np.ndarray] = None,
    cost_matrix: Optional[CostMatrix] = None,
    objective: str = "avg",
) -> list[Variant]:
    """Construct the Theorem 2 set ``E_s``: one ``E_h`` per equivalence class.

    For each size-symbol equivalence class a representative ``q_h`` must be
    picked; the theorem guarantees a finite total penalty for *any* choice,
    so we pick greedily: classes are visited in order and, for each, the
    candidate fanning-out variant that minimizes the objective (average or
    maximum penalty) over the training set joins the set.  Classes whose
    candidates coincide with an already-selected parenthesization (duplicate
    fanning-out trees collapse) are skipped, which is why ``|E_s|`` can be
    smaller than the number of classes.

    ``cost_matrix`` must cover every fanning-out variant of the chain (any
    :mod:`~repro.compiler.variant_space` pool qualifies; the exhaustive set
    ``A`` additionally makes the penalties exact, measured against the true
    optimum).  If omitted, it is built over ``A`` from
    ``training_instances``.
    """
    if cost_matrix is None:
        if training_instances is None:
            raise ValueError("provide training_instances or a cost_matrix")
        cost_matrix = CostMatrix(all_variants(chain), training_instances)
    sig_to_idx = {v.signature(): i for i, v in enumerate(cost_matrix.variants)}

    hs = range(chain.n + 1)
    trees = [fanning_out_tree(chain.n, h) for h in hs]
    candidates = build_variants(chain, trees, [f"E{h}" for h in hs])
    candidates_by_h = dict(zip(hs, candidates))
    missing = sorted(
        h
        for h, candidate in candidates_by_h.items()
        if candidate.signature() not in sig_to_idx
    )
    if missing:
        raise ValueError(
            f"cost matrix is missing the fanning-out variants E_h for "
            f"h in {missing}; every variant space must include them"
        )
    score = (
        cost_matrix.average_penalty if objective == "avg" else cost_matrix.max_penalty
    )

    selected: list[Variant] = []
    selected_idx: list[int] = []
    selected_sigs: set = set()
    for cls in chain.equivalence_classes():
        if any(candidates_by_h[h].signature() in selected_sigs for h in cls):
            continue  # class already represented by a coinciding tree
        best, best_value = None, float("inf")
        for h in cls:
            variant = candidates_by_h[h]
            trial = selected_idx + [sig_to_idx[variant.signature()]]
            value = score(trial)
            if value < best_value:
                best, best_value = variant, value
        assert best is not None
        selected.append(best)
        selected_idx.append(sig_to_idx[best.signature()])
        selected_sigs.add(best.signature())
    return selected
