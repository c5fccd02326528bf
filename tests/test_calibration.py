"""Tests for measured (wall-clock calibrated) performance models."""

import numpy as np
import pytest

from repro.kernels.spec import KERNELS
from repro.perfmodel.calibration import (
    MeasuredPerformanceModelSet,
    build_call,
    measure_performance,
)
from repro.perfmodel.models import KERNEL_MODEL_DIMS
from repro.compiler.parenthesization import left_to_right_tree
from repro.compiler.variant import build_variant

from conftest import general_chain

SMALL_GRID = (16.0, 48.0)


class TestMeasurement:
    def test_every_modelled_kernel_has_a_recipe(self):
        rng = np.random.default_rng(0)
        for name in KERNEL_MODEL_DIMS:
            call = build_call(name, 8, 8, 6, rng)
            result = call()
            assert result is not None

    def test_unknown_kernel_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(KeyError, match="no measurement recipe"):
            build_call("NOPE", 4, 4, 4, rng)

    def test_measured_performance_positive(self):
        perf = measure_performance("GEMM", 32, 32, 32, repeats=2)
        assert perf > 0.0

    def test_median_of_repeats(self):
        # Just exercises the repeats path; values are hardware-dependent.
        perf = measure_performance("TRSM", 24, 24, 24, repeats=3)
        assert np.isfinite(perf) and perf > 0.0


class TestMeasuredModelSet:
    @pytest.fixture(scope="class")
    def models(self):
        # A tiny grid and a handful of kernels keep this test fast while
        # covering the 3-D, 2-D, and 1-D sampling paths.
        return MeasuredPerformanceModelSet(
            grid=SMALL_GRID,
            repeats=1,
            kernels=("GEMM", "TRSM", "TRTRMM", "GEGESV"),
        )

    def test_models_built(self, models):
        assert set(models.models) == {"GEMM", "TRSM", "TRTRMM", "GEGESV"}

    def test_performance_queries(self, models):
        perf = models.models["GEMM"].performance(32, 32, 32)[0]
        assert perf > 0.0
        # Clamping at the measured boundary.
        edge = models.models["TRSM"].performance(16, 16, 16)[0]
        below = models.models["TRSM"].performance(2, 2, 2)[0]
        assert below == pytest.approx(edge)

    def test_variant_time_estimation(self, models):
        chain = general_chain(3)
        variant = build_variant(chain, left_to_right_tree(3))
        instances = np.asarray([[16, 32, 16, 48], [48, 16, 32, 16]], float)
        times = models.cost_many(variant, instances)
        assert times.shape == (2,)
        assert (times > 0).all()
