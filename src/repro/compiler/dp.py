"""Generalized matrix chain dynamic programming for concrete sizes.

This is the Barthels-et-al.-style optimizer (the algorithm behind Linnea)
that the paper's run-time-search alternative would use: given a chain *with
known sizes*, find the cheapest evaluation.  It serves three roles in the
reproduction:

* an independent cross-check of the variant enumeration (its optimum can
  never exceed the minimum over the per-parenthesization variants, and the
  two coincide whenever the Section IV heuristics are optimal for the
  instance);
* the baseline "search at run time" strategy whose cost/latency trade-off
  motivates multi-versioning in the first place (see
  :class:`repro.baselines.online.OnlineSearchEvaluator`); and
* :func:`dp_optimal_plan` reconstructs the winning evaluation as an
  executable :class:`~repro.compiler.variant.Variant`.

Because intermediate *features* depend on how a subchain was computed,
a plain scalar DP over intervals is not sound: a slightly more expensive
subchain result with better features (e.g. still triangular) can win
globally.  The table therefore keeps, per interval, the set of
Pareto-optimal (cost, operand state) pairs, with provenance for plan
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.ir.chain import Chain
from repro.compiler.parenthesization import ParenTree, join, leaf
from repro.compiler.states import OperandState, associate, initial_states
from repro.compiler.variant import (
    Step,
    Variant,
    _build_fixups,
    _make_same_class,
    build_variant,
    build_variants,
)


@dataclass(frozen=True)
class _Entry:
    cost: float
    state: OperandState
    #: Provenance for reconstruction: (split index, left key, right key);
    #: ``None`` for single-matrix leaves.
    back: Optional[tuple[int, tuple, tuple]] = None


def _state_key(state: OperandState) -> tuple:
    """Feature signature relevant for downstream kernel choices."""
    return (state.structure, state.prop, state.inverted, state.transposed)


def _pareto_insert(
    entries: dict[tuple, _Entry],
    cost: float,
    state: OperandState,
    back: Optional[tuple[int, tuple, tuple]],
) -> None:
    key = _state_key(state)
    existing = entries.get(key)
    if existing is None or cost < existing.cost:
        entries[key] = _Entry(cost, state, back)


def _dp_table(
    chain: Chain, q: Sequence[int]
) -> dict[tuple[int, int], dict[tuple, _Entry]]:
    same_class = _make_same_class(chain)
    n = chain.n
    states = initial_states(chain)

    table: dict[tuple[int, int], dict[tuple, _Entry]] = {}
    for i in range(n):
        table[(i, i)] = {_state_key(states[i]): _Entry(0.0, states[i])}

    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span - 1
            entries: dict[tuple, _Entry] = {}
            for split in range(i, j):
                for left_key, left_entry in table[(i, split)].items():
                    for right_key, right_entry in table[(split + 1, j)].items():
                        result = associate(
                            left_entry.state, right_entry.state, same_class, 0
                        )
                        m, k, nn = result.call_dims
                        step_cost = result.cost.evaluate(q[m], q[k], q[nn])
                        total = left_entry.cost + right_entry.cost + step_cost
                        _pareto_insert(
                            entries,
                            total,
                            result.result,
                            (split, left_key, right_key),
                        )
            table[(i, j)] = entries
    return table


def _fixup_cost(state: OperandState, q: Sequence[int]) -> float:
    """Cost of the explicit fix-ups a final state would require."""
    total = 0.0
    for fix in _build_fixups(state, None):
        d = q[fix.dim]
        total += fix.cost.evaluate(d, d, d)
    return total


def _best_final_key(
    table: dict[tuple[int, int], dict[tuple, _Entry]],
    chain: Chain,
    q: Sequence[int],
) -> tuple:
    """The state key of the cheapest root entry, fix-ups included."""
    final_entries = table[(0, chain.n - 1)]
    return min(
        final_entries,
        key=lambda key: final_entries[key].cost
        + _fixup_cost(final_entries[key].state, q),
    )


def dp_optimal_cost(chain: Chain, sizes: Sequence[int]) -> float:
    """Minimum FLOP cost to evaluate ``chain`` on the concrete ``sizes``.

    Runs the interval dynamic program with Pareto state sets, using the same
    association machinery (kernel tables, rewrites, cost functions) as the
    variant builder, so costs are directly comparable with
    :meth:`Variant.flop_cost`.
    """
    q = chain.validate_sizes(sizes)
    states = initial_states(chain)
    if chain.n == 1:
        return _fixup_cost(states[0], q)
    table = _dp_table(chain, q)
    best = float("inf")
    for entry in table[(0, chain.n - 1)].values():
        best = min(best, entry.cost + _fixup_cost(entry.state, q))
    return best


def dp_optimal_plan(chain: Chain, sizes: Sequence[int]) -> Variant:
    """The cheapest evaluation for an instance, as an executable variant.

    Reconstructs the dynamic program's winning decisions into a
    :class:`Variant` (kernel steps + fix-ups) whose ``flop_cost`` equals
    :func:`dp_optimal_cost` on these sizes.  Note the plan may differ from
    every per-parenthesization variant of Section IV: the DP explores all
    feature trade-offs, not just the deterministic heuristic.
    """
    q = chain.validate_sizes(sizes)
    same_class = _make_same_class(chain)
    states = initial_states(chain)

    if chain.n == 1:
        return build_variant(chain, leaf(0), name="DP")

    table = _dp_table(chain, q)
    best_key = _best_final_key(table, chain, q)

    steps: list[Step] = []

    def reconstruct(i: int, j: int, key: tuple) -> OperandState:
        entry = table[(i, j)][key]
        if entry.back is None:
            return entry.state
        split, left_key, right_key = entry.back
        left_state = reconstruct(i, split, left_key)
        right_state = reconstruct(split + 1, j, right_key)
        index = len(steps)
        result = associate(left_state, right_state, same_class, index)
        steps.append(Step.of(result, index, (i, split + 1, j + 1)))
        return result.result

    final_state = reconstruct(0, chain.n - 1, best_key)
    fixups = _build_fixups(final_state, chain)
    return Variant(
        chain=chain,
        tree=None,
        steps=tuple(steps),
        fixups=fixups,
        final_state=final_state,
        name="DP",
    )


def dp_optimal_tree(chain: Chain, sizes: Sequence[int]) -> ParenTree:
    """The parenthesization underlying the DP-optimal plan for an instance.

    Reconstructs only the *split structure* of the winning plan — the
    :class:`ParenTree` whose Section IV variant approximates (and often
    matches) the DP optimum on these sizes.  This is the extraction the
    DP-seeded variant space uses: a tree can join the ordinary variant pool
    (built, perturbed, deduplicated, cached) whereas the raw DP plan cannot
    leave the per-parenthesization space ``A`` the selection theory is
    stated over.
    """
    q = chain.validate_sizes(sizes)
    if chain.n == 1:
        return leaf(0)
    table = _dp_table(chain, q)

    def rebuild(i: int, j: int, key: tuple) -> ParenTree:
        entry = table[(i, j)][key]
        if entry.back is None:
            return leaf(i)
        split, left_key, right_key = entry.back
        return join(
            rebuild(i, split, left_key), rebuild(split + 1, j, right_key)
        )

    return rebuild(0, chain.n - 1, _best_final_key(table, chain, q))


def dp_seed_trees(
    chain: Chain, instances: np.ndarray, max_seeds: Optional[int] = None
) -> list[ParenTree]:
    """Distinct DP-optimal parenthesizations over a set of instances.

    Runs :func:`dp_optimal_tree` on up to ``max_seeds`` rows of
    ``instances`` (evenly spaced, so the seeds span the sampled size
    distribution deterministically) and deduplicates the resulting trees.
    The order is first-appearance, so earlier (more representative) seeds
    survive a downstream candidate cap.
    """
    from repro.compiler.selection import _tree_key

    instances = np.asarray(instances)
    count = instances.shape[0]
    if count == 0:
        return []
    if max_seeds is not None and 0 < max_seeds < count:
        rows = np.unique(np.linspace(0, count - 1, max_seeds).astype(int))
    else:
        rows = np.arange(count)
    trees: list[ParenTree] = []
    seen: set = set()
    for row in rows:
        tree = dp_optimal_tree(chain, [int(s) for s in instances[row]])
        key = _tree_key(tree)
        if key not in seen:
            seen.add(key)
            trees.append(tree)
    return trees


def dp_plan_variants(
    chain: Chain, instances: np.ndarray, max_plans: Optional[int] = None
) -> list[Variant]:
    """Per-sample DP plan extraction as ordinary variants (named ``D0..``).

    One Section IV variant per *distinct* DP-optimal parenthesization over
    the instance rows; see :func:`dp_seed_trees` for the sampling and
    deduplication rules.
    """
    trees = dp_seed_trees(chain, instances, max_plans)
    return build_variants(chain, trees, [f"D{i}" for i in range(len(trees))])
