"""The "search at run time" alternative to multi-versioning (paper §I).

The paper contrasts its compile-time multi-versioning with the Linnea-style
alternative: when the sizes become known, *search* for an optimal sequence
of kernel calls and immediately execute it.  No code is generated; instead,
every evaluation pays for a generalized-chain dynamic program (feature
inference, operator rewrites, kernel assignment — everything the compiler
does, but per call).

:class:`OnlineSearchEvaluator` implements that baseline on our substrate.
Its *cost quality* is excellent (it can even beat the Section IV heuristic
variants, since the DP explores all feature trade-offs); its *latency* is
the problem, which `benchmarks/bench_dp_vs_enum.py` quantifies against the
microseconds-scale dispatch of the generated code.  A small plan cache
amortizes repeated instances, mirroring what a production system would do.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.ir.chain import Chain
from repro.compiler.dp import dp_optimal_cost, dp_optimal_plan
from repro.compiler.variant import Variant
from repro.runtime import compile_plan, infer_sizes
from repro.runtime.executor import call_operands


class OnlineSearchEvaluator:
    """Search-then-execute evaluation of one chain shape.

    Parameters
    ----------
    chain:
        The symbolic chain (shape) to evaluate.
    cache_size:
        Number of recently planned instances to keep.  ``0`` disables
        caching (every call pays the full search).
    """

    def __init__(self, chain: Chain, cache_size: int = 64):
        self.chain = chain
        self.cache_size = cache_size
        # sizes -> [DP-optimal variant, compiled execution plan or None]:
        # a cache hit replays the plan exactly like the generated runtime
        # does, so the baseline comparison isolates the *search* cost.
        # The plan is compiled lazily on first execution — cost-only
        # callers of plan() never pay for it.
        self._cache: OrderedDict[
            tuple[int, ...], list
        ] = OrderedDict()
        self.searches = 0  #: number of DP searches performed (cache misses)
        self.calls = 0

    def plan(self, sizes: Sequence[int]) -> Variant:
        """The optimal plan for an instance (cached)."""
        return self._planned(self.chain.validate_sizes(sizes))[0]

    def _planned(self, q: tuple[int, ...]) -> list:
        cached = self._cache.get(q)
        if cached is not None:
            self._cache.move_to_end(q)
            return cached
        self.searches += 1
        entry = [dp_optimal_plan(self.chain, q), None]
        if self.cache_size > 0:
            self._cache[q] = entry
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return entry

    def planned_cost(self, sizes: Sequence[int]) -> float:
        """FLOP cost of the plan the search would pick for an instance."""
        return dp_optimal_cost(self.chain, self.chain.validate_sizes(sizes))

    def __call__(self, *arrays: np.ndarray) -> np.ndarray:
        """Evaluate: infer sizes, search for the optimal plan, execute it."""
        arrays = call_operands(self.chain, arrays)
        self.calls += 1
        values = [np.asarray(a) for a in arrays]
        sizes = infer_sizes(self.chain, values)
        entry = self._planned(sizes)
        if entry[1] is None:
            entry[1] = compile_plan(entry[0], sizes)
        return entry[1].execute(values)
