"""One pricing loop and one cost matrix for every kernel-speed model.

Every model supplies only ``time_call``; the shared loop in
:class:`~repro.perfmodel.machine.KernelTimeModel` prices variants.  The
per-model loops it replaced are inlined below as the equivalence oracle,
and the results must be bit-identical.  Every estimator must also give
the dispatcher and :class:`~repro.compiler.selection.CostMatrix` the same
matrix.
"""

import numpy as np
import pytest

from repro.baselines.armadillo import ArmadilloEvaluator
from repro.compiler.selection import CostMatrix, all_variants
from repro.experiments.sampling import sample_instances
from repro.kernels.spec import KERNELS
from repro.obs.registry import MetricsRegistry
from repro.perfmodel.feedback import CalibratedEstimator
from repro.perfmodel.machine import SimulatedMachine
from repro.perfmodel.models import PerformanceModelSet
from repro.runtime import Dispatcher
from repro.runtime.dispatcher import flop_estimator

from conftest import general_chain, make_general, make_lower, make_symmetric

MACHINE = SimulatedMachine()
MODELS = PerformanceModelSet(MACHINE)


def _chains():
    return [
        general_chain(4),
        # Inverted result: a GEINV fix-up.
        make_symmetric("S").inv * make_lower("L").inv,
        # Transposed result: a TRANSPOSE fix-up, charged at bandwidth.
        make_general("A").T * make_lower("L").invT,
    ]


def _calibrated():
    """An estimator with a distinct learned rate for every kernel."""
    table = {
        f"{name}|blas": {"flops_per_second": (i + 1) * 1.5e9, "samples": i + 1}
        for i, name in enumerate(sorted(KERNELS))
    }
    return CalibratedEstimator.from_snapshot(
        {"table": table}, registry=MetricsRegistry()
    )


def _instances(chain, count=40, seed=5):
    rng = np.random.default_rng(seed)
    return np.asarray(
        sample_instances(chain, count, rng, low=20, high=1200), dtype=np.float64
    )


# -- the replaced loops, inlined as the oracle -------------------------------


def _step_flops(step, q):
    m = q[:, step.call_dims[0]]
    k = q[:, step.call_dims[1]]
    n = q[:, step.call_dims[2]]
    flops = np.zeros(q.shape[0])
    for term in step.cost.terms:
        flops += float(term.coeff) * m**term.em * k**term.ek * n**term.en
    return flops, m, k, n


def _fixup_flops(fixup, q):
    d = q[:, fixup.dim]
    flops = np.zeros(q.shape[0])
    for term in fixup.cost.terms:
        flops += float(term.coeff) * d ** (term.em + term.ek + term.en)
    return flops, d


def _oracle_machine(machine, variant, q):
    total = np.zeros(q.shape[0])
    for step in variant.steps:
        total += machine.time_call(step.kernel.name, *_step_flops(step, q))
    for fixup in variant.fixups:
        flops, d = _fixup_flops(fixup, q)
        total += machine.time_call(fixup.kernel.name, flops, d, d, d)
    return total


def _oracle_models(models, variant, q):
    total = np.zeros(q.shape[0])
    for step in variant.steps:
        flops, m, k, n = _step_flops(step, q)
        name = step.kernel.name
        if name in ("TRANSPOSE", "COPY"):
            total += models.machine.time_call(name, flops, m, k, n)
        else:
            total += flops / models.models[name].performance(m, k, n)
    for fixup in variant.fixups:
        flops, d = _fixup_flops(fixup, q)
        name = fixup.kernel.name
        if name in ("TRANSPOSE", "COPY"):
            total += models.machine.time_call(name, flops, d, d, d)
        else:
            total += flops / models.models[name].performance(d, d, d)
    return total


def _oracle_calibrated(estimator, variant, q):
    total = np.zeros(q.shape[0])
    for step in variant.steps:
        total += _step_flops(step, q)[0] / estimator.rate_for(step.kernel.name)
    for fixup in variant.fixups:
        total += _fixup_flops(fixup, q)[0] / estimator.rate_for(fixup.kernel.name)
    return total


@pytest.mark.parametrize("chain", _chains(), ids=str)
class TestParityWithReplacedLoops:
    def test_machine(self, chain):
        q = _instances(chain)
        for variant in all_variants(chain):
            assert np.array_equal(
                MACHINE.cost_many(variant, q), _oracle_machine(MACHINE, variant, q)
            )

    def test_grid_models(self, chain):
        q = _instances(chain)
        for variant in all_variants(chain):
            assert np.array_equal(
                MODELS.cost_many(variant, q), _oracle_models(MODELS, variant, q)
            )

    def test_armadillo_time_under_the_machine(self, chain):
        q = _instances(chain)
        arma = ArmadilloEvaluator(chain)
        assert np.array_equal(
            MACHINE.cost_many(arma, q), _oracle_machine(MACHINE, arma, q)
        )

    def test_calibrated(self, chain):
        q = _instances(chain)
        estimator = _calibrated()
        for variant in all_variants(chain):
            assert np.array_equal(
                estimator.cost_many(variant, q),
                _oracle_calibrated(estimator, variant, q),
            )

    def test_scalar_call_is_the_batched_row(self, chain):
        q = _instances(chain, count=3)
        for model in (MACHINE, MODELS, _calibrated()):
            for variant in all_variants(chain):
                batched = model.cost_many(variant, q)
                scalar = [model(variant, tuple(int(x) for x in row)) for row in q]
                assert np.array_equal(batched, scalar)


def test_distinct_rates_reach_the_estimate():
    # Guard for the calibrated parity case: the table really prices
    # kernels differently, so the oracle is not comparing seed rates.
    estimator = _calibrated()
    assert estimator.rate_for("GEMM") != estimator.rate_for("TRTRMM")
    assert estimator.rate_for("GEMM") != estimator.seed_flops_per_second


@pytest.mark.parametrize(
    "estimator",
    [
        MACHINE,
        MODELS,
        _calibrated(),
        flop_estimator,
        lambda v, q: float(len(v.steps)) * q[0] + sum(q),
    ],
    ids=["machine", "grid-models", "calibrated", "flops", "scalar-lambda"],
)
@pytest.mark.parametrize("chain", _chains(), ids=str)
def test_dispatcher_and_cost_matrix_agree(chain, estimator):
    variants = all_variants(chain)
    q = _instances(chain, count=12)
    dispatched = Dispatcher(chain, variants, cost_estimator=estimator).cost_matrix(q)
    matrix = CostMatrix(variants, q, estimator=estimator)
    assert dispatched.shape == (len(variants), q.shape[0])
    assert np.array_equal(dispatched, matrix.costs)
