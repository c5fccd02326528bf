"""Experiment B: deviation from time-optimal (paper Section VII-B, Fig. 6).

Fixes n = 7 and samples random shapes (each matrix rectangular with
probability 50%, at least one rectangular per chain).  For each shape:

1. the Theorem 2 base set ``E_s`` is selected on FLOPs over a training set;
2. ``E_s`` is expanded by one variant twice: once with the FLOP objective
   (``E_s1,F``) and once with performance-model time estimates
   (``E_s1,M``);
3. on a validation set, every strategy is *dispatched* with its own cost
   estimator (FLOPs for ``E_s``/``E_s1,F``, model time for ``E_s1,M``) and
   charged the **true** machine time of the variant it picked;
4. ratios are taken against the true-time-optimal variant over all
   parenthesizations; the left-to-right variant ``L`` and the Armadillo
   model are included as references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.ir.chain import Chain
from repro.baselines.armadillo import ArmadilloEvaluator
from repro.compiler.expansion import AveragePenalty, expand_set
from repro.compiler.selection import (
    CostMatrix, all_variants, cost_matrix, essential_set,
)
from repro.compiler.variant import Variant, build_variant
from repro.compiler.parenthesization import left_to_right_tree
from repro.experiments.ecdf import ECDF, format_summary_table, summarize_ratios
from repro.experiments.sampling import sample_instances, sample_shapes
from repro.perfmodel.machine import SimulatedMachine
from repro.perfmodel.models import PerformanceModelSet

SET_NAMES = ("Es", "Es1,F", "Es1,M", "L", "Arma")


@dataclass
class TimeExperimentResult:
    ratios: dict[str, np.ndarray] = field(default_factory=dict)
    shapes_tested: int = 0
    #: Mean true-time speedup of each generated flavour over Armadillo.
    speedup_over_armadillo: dict[str, float] = field(default_factory=dict)

    def ecdf(self, set_name: str) -> ECDF:
        return ECDF.from_sample(self.ratios[set_name])

    def summary_table(self) -> str:
        header = f"n = 7 ({self.shapes_tested} shapes)"
        table = format_summary_table(summarize_ratios(self.ratios))
        speedups = ", ".join(
            f"{name}: {value:.2f}x"
            for name, value in self.speedup_over_armadillo.items()
        )
        return "\n".join([header, table, f"mean speedup over Armadillo: {speedups}"])


def _dispatch_true_times(
    selected: Sequence[Variant],
    dispatch_costs: np.ndarray,
    true_times: np.ndarray,
    sig_to_idx: dict,
) -> np.ndarray:
    """True time of the variant each instance's dispatch would pick.

    ``dispatch_costs``/``true_times`` are (num_variants, num_instances)
    matrices over *all* variants; the subset rows are selected by signature.
    """
    indices = np.asarray([sig_to_idx[v.signature()] for v in selected], dtype=np.intp)
    sub_costs = dispatch_costs[indices]
    chosen = indices[np.argmin(sub_costs, axis=0)]
    return true_times[chosen, np.arange(true_times.shape[1])]


def evaluate_shape_time(
    chain: Chain,
    rng: np.random.Generator,
    machine: SimulatedMachine,
    models: PerformanceModelSet,
    train_instances: int = 2000,
    val_instances: int = 200,
    low: int = 50,
    high: int = 1000,
) -> dict[str, np.ndarray]:
    """Per-instance true-time ratios over optimum of each strategy."""
    variants = all_variants(chain)
    train = sample_instances(chain, train_instances, rng, low=low, high=high)
    flop_train = CostMatrix(variants, train)
    base = essential_set(chain, cost_matrix=flop_train, objective="avg")
    es1_f = expand_set(
        flop_train, base, max_size=len(base) + 1, objective=AveragePenalty
    )
    model_train = CostMatrix(variants, train, estimator=models)
    es1_m = expand_set(
        model_train, base, max_size=len(base) + 1, objective=AveragePenalty
    )
    ltr = build_variant(chain, left_to_right_tree(chain.n), name="L")

    val = sample_instances(chain, val_instances, rng, low=low, high=high)
    val_f = val.astype(np.float64)
    flop_costs = cost_matrix(variants, val_f)
    model_costs = cost_matrix(variants, val_f, models)
    true_times = cost_matrix(variants, val_f, machine)
    optimal = true_times.min(axis=0)
    sig_to_idx = {v.signature(): i for i, v in enumerate(variants)}

    ratios: dict[str, np.ndarray] = {}
    ratios["Es"] = (
        _dispatch_true_times(base, flop_costs, true_times, sig_to_idx) / optimal
    )
    ratios["Es1,F"] = (
        _dispatch_true_times(es1_f, flop_costs, true_times, sig_to_idx) / optimal
    )
    ratios["Es1,M"] = (
        _dispatch_true_times(es1_m, model_costs, true_times, sig_to_idx) / optimal
    )
    ratios["L"] = true_times[sig_to_idx[ltr.signature()]] / optimal

    arma = ArmadilloEvaluator(chain)
    ratios["Arma"] = machine.cost_many(arma, val_f) / optimal
    return ratios


def run_time_experiment(
    num_shapes: int = 100,
    n: int = 7,
    train_instances: int = 2000,
    val_instances: int = 200,
    low: int = 50,
    high: int = 1000,
    seed: int = 0,
    machine: Optional[SimulatedMachine] = None,
    verbose: bool = False,
) -> TimeExperimentResult:
    """Run Experiment B.  Paper scale: ``num_shapes=1000, val_instances=1000``."""
    machine = machine or SimulatedMachine()
    models = PerformanceModelSet(machine)
    rng = np.random.default_rng(seed)
    shapes = sample_shapes(n, num_shapes, rng, rectangular_probability=0.5)

    accumulators: dict[str, list[np.ndarray]] = {k: [] for k in SET_NAMES}
    for i, chain in enumerate(shapes):
        ratios = evaluate_shape_time(
            chain,
            rng,
            machine,
            models,
            train_instances=train_instances,
            val_instances=val_instances,
            low=low,
            high=high,
        )
        for name, values in ratios.items():
            accumulators[name].append(values)
        if verbose and (i + 1) % 10 == 0:
            print(f"  {i + 1}/{len(shapes)} shapes done")

    result = TimeExperimentResult(shapes_tested=len(shapes))
    result.ratios = {
        name: np.concatenate(chunks) for name, chunks in accumulators.items()
    }
    arma = result.ratios["Arma"]
    for name in ("Es", "Es1,F", "Es1,M"):
        result.speedup_over_armadillo[name] = float(
            np.mean(arma / result.ratios[name])
        )
    return result
