"""Tests for the simulated machine and the grid performance models."""

import numpy as np
import pytest

from repro.compiler.selection import all_variants
from repro.compiler.parenthesization import left_to_right_tree
from repro.compiler.variant import build_variant
from repro.experiments.sampling import sample_instances
from repro.perfmodel.machine import SimulatedMachine, step_call
from repro.perfmodel.models import GRID_POINTS, KERNEL_MODEL_DIMS, PerformanceModelSet
from repro.perfmodel.timing import time_callable, time_variant

from conftest import general_chain


class TestSimulatedMachine:
    def setup_method(self):
        self.machine = SimulatedMachine()

    def test_gemm_is_fastest_kernel(self):
        perf_gemm = self.machine.performance("GEMM", 500, 500, 500)
        for kernel in ("TRMM", "TRSM", "GEGESV", "SYGESV"):
            assert perf_gemm > self.machine.performance(kernel, 500, 500, 500)

    def test_performance_saturates_with_size(self):
        small = self.machine.performance("GEMM", 50, 50, 50)
        large = self.machine.performance("GEMM", 1000, 1000, 1000)
        assert large > small
        assert large < self.machine.peak_flops

    def test_time_scales_with_flops(self):
        t1 = self.machine.time_call("GEMM", 1e9, 500, 500, 500)
        t2 = self.machine.time_call("GEMM", 2e9, 500, 500, 500)
        assert t2 == pytest.approx(2 * t1)

    def test_transpose_charged_at_bandwidth(self):
        t = self.machine.time_call("TRANSPOSE", 0.0, 100, 1, 200)
        assert t == pytest.approx(16.0 * 100 * 200 / self.machine.memory_bandwidth)

    def test_variant_time_positive_and_additive(self):
        chain = general_chain(4)
        variant = build_variant(chain, left_to_right_tree(4))
        rng = np.random.default_rng(0)
        instances = sample_instances(chain, 10, rng, low=50, high=1000)
        times = self.machine.cost_many(variant, instances)
        assert (times > 0).all()
        q = np.asarray(instances, dtype=np.float64)
        per_step = sum(
            self.machine.time_call(step.kernel.name, *step_call(step, q))
            for step in variant.steps
        )
        np.testing.assert_allclose(times, per_step)

    def test_flop_optimal_not_always_time_optimal(self):
        # Different variants of structured chains use kernels with different
        # efficiencies, so the FLOP argmin and the time argmin must disagree
        # on some instances — the phenomenon Section VII-B exploits.
        from repro.experiments.sampling import sample_shapes

        rng = np.random.default_rng(1)
        disagreements = 0
        for chain in sample_shapes(6, 10, rng, rectangular_probability=0.5):
            variants = all_variants(chain)
            instances = sample_instances(chain, 100, rng, low=50, high=1000)
            flops = np.stack([v.flop_cost_many(instances) for v in variants])
            times = np.stack(
                [self.machine.cost_many(v, instances) for v in variants]
            )
            disagreements += int(
                (flops.argmin(axis=0) != times.argmin(axis=0)).sum()
            )
        assert disagreements > 0


class TestPerformanceModels:
    def setup_method(self):
        self.machine = SimulatedMachine()
        self.models = PerformanceModelSet(self.machine)

    def test_every_compute_kernel_has_a_model(self):
        from repro.kernels.spec import KERNELS

        for name, kernel in KERNELS.items():
            if name in ("TRANSPOSE", "COPY"):
                continue
            assert name in KERNEL_MODEL_DIMS
            assert name in self.models.models

    def test_exact_at_grid_points(self):
        model = self.models.models["GEMM"]
        for point in (50, 300, 1000):
            got = model.performance(point, point, point)[0]
            expected = self.machine.performance("GEMM", point, point, point)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_interpolation_between_grid_points(self):
        model = self.models.models["GEMM"]
        got = model.performance(200, 200, 200)[0]
        lo = self.machine.performance("GEMM", 100, 100, 100)
        hi = self.machine.performance("GEMM", 300, 300, 300)
        assert lo < got < hi

    def test_clamping_outside_grid(self):
        model = self.models.models["TRSM"]
        below = model.performance(10, 10, 10)[0]
        at_edge = model.performance(50, 50, 50)[0]
        assert below == pytest.approx(at_edge)

    def test_model_time_close_to_machine_time(self):
        chain = general_chain(5)
        variant = build_variant(chain, left_to_right_tree(5))
        rng = np.random.default_rng(3)
        instances = sample_instances(chain, 50, rng, low=50, high=1000)
        true_t = self.machine.cost_many(variant, instances)
        model_t = self.models.cost_many(variant, instances)
        rel_err = np.abs(model_t - true_t) / true_t
        assert rel_err.max() < 0.25  # crude but sane
        assert rel_err.mean() < 0.10

    def test_variant_time_scalar_matches_vector(self):
        chain = general_chain(3)
        variant = build_variant(chain, left_to_right_tree(3))
        q = (100, 200, 300, 400)
        scalar = self.models(variant, q)
        vector = self.models.cost_many(variant, np.asarray([q]))[0]
        assert scalar == pytest.approx(vector)


class TestWallClockTiming:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(1000)), repeats=3) >= 0.0

    def test_time_callable_validates_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_time_variant_runs(self):
        rng = np.random.default_rng(4)
        chain = general_chain(2)
        variant = build_variant(chain, left_to_right_tree(2))
        from repro.runtime.executor import random_instance_arrays

        arrays = random_instance_arrays(chain, (20, 20, 20), rng)
        assert time_variant(variant, arrays, repeats=2) > 0.0
