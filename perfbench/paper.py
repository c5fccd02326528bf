"""The paper's metrics: penalties against the per-instance optimum.

* FLOP penalty (Fig. 5): the dispatched variant's FLOPs over the minimum
  over every parenthesization — exact, so it repeats bit for bit.
* Time penalty (Fig. 6, Section VII-B): the dispatched variant's measured
  time over the best measured time among an oracle candidate set, both
  the minimum of :data:`REPLAYS` replays after one warm-up replay.  The
  oracle times the dispatched variant, the compiled set, the
  left-to-right variant ``L``, and the cheapest candidates by FLOPs —
  never all Catalan-many variants (about 0.8 s per n=7 instance).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.baselines.armadillo import ArmadilloEvaluator
from repro.compiler.dp import dp_optimal_cost, dp_optimal_plan
from repro.compiler.selection import all_variants, left_to_right_variant
from repro.runtime.plan import compile_plan

import catalog

#: Timed replays per oracle candidate (after one untimed warm-up).
REPLAYS = 3

#: Longest chain whose optimum is taken over the enumerated variant set;
#: longer chains use the repository's dynamic program (same optimum).
ENUMERATE_MAX_N = 7


def optimal_flops(chain, instances: np.ndarray, variants: Optional[Sequence] = None) -> np.ndarray:
    """Per-instance minimum FLOPs over every parenthesization."""
    instances = np.asarray(instances, dtype=np.float64)
    if variants is None and chain.n <= ENUMERATE_MAX_N:
        variants = all_variants(chain)
    if variants is not None:
        return np.stack([v.flop_cost_many(instances) for v in variants]).min(axis=0)
    return np.asarray([dp_optimal_cost(chain, [int(x) for x in row]) for row in instances])


def flop_penalties(dispatcher, instances: np.ndarray, variants: Optional[Sequence] = None) -> np.ndarray:
    """Dispatched FLOPs over the optimum, per instance.

    ``select_many`` never touches the dispatcher's memo, so computing
    penalties does not warm the runtime being measured.
    """
    chosen = np.asarray([cost for _, cost in dispatcher.select_many(instances)])
    return chosen / optimal_flops(dispatcher.chain, instances, variants)


def oracle_candidates(
    chain,
    sizes: Sequence[int],
    dispatched,
    selected: Sequence,
    variants: Optional[Sequence] = None,
    cheapest: int = 0,
) -> list:
    """Dispatched variant first, then the compiled set, ``L``, and the
    ``cheapest`` FLOP-cheapest of ``variants`` (or the DP optimum when no
    enumeration is given); duplicates by signature dropped."""
    pool = [dispatched, *selected, left_to_right_variant(chain)]
    if variants is not None and cheapest > 0:
        costs = np.asarray([v.flop_cost(sizes) for v in variants])
        pool += [variants[i] for i in np.argsort(costs, kind="stable")[:cheapest]]
    else:
        pool.append(dp_optimal_plan(chain, sizes))
    seen: set = set()
    unique = []
    for variant in pool:
        signature = variant.signature()
        if signature not in seen:
            seen.add(signature)
            unique.append(variant)
    return unique


def replay_seconds(variant, sizes: Sequence[int], arrays: Sequence[np.ndarray], backend: str, replays: int = REPLAYS) -> float:
    """Minimum of ``replays`` timed replays of one lowered plan."""
    plan = compile_plan(variant, sizes, backend=backend)
    plan.replay(list(arrays))
    best = float("inf")
    for _ in range(replays):
        start = time.perf_counter()
        plan.replay(list(arrays))
        best = min(best, time.perf_counter() - start)
    return best


def time_penalty(candidates: Sequence, sizes, arrays, backend: str, replays: int = REPLAYS) -> tuple[float, float]:
    """``(dispatched / best, L / best)`` over an oracle candidate list
    whose first entry is the dispatched variant and which contains ``L``."""
    times = [replay_seconds(v, sizes, arrays, backend, replays) for v in candidates]
    best = min(times)
    left = left_to_right_variant(candidates[0].chain).signature()
    l_time = next(t for v, t in zip(candidates, times) if v.signature() == left)
    return times[0] / best, l_time / best


def arma_penalty(programs, seed: int, size_range: tuple[int, int], samples: int = 512) -> float:
    """Mean FLOPs of the Armadillo-style evaluation over the optimum, on
    fresh log-uniform sizes of every program's chain."""
    rng = np.random.default_rng([seed, 12])
    ratios = []
    for program in programs:
        instances = catalog.sample_sizes(program.chain, samples, rng, *size_range)
        optimum = optimal_flops(program.chain, instances)
        ratios.append(ArmadilloEvaluator(program.chain).flop_cost_many(instances) / optimum)
    return float(np.concatenate(ratios).mean())
