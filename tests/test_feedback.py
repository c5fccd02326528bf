"""Feedback-directed dispatch: calibration, re-selection, shipped tables.

Covers the three layers of the feedback loop:

* :class:`~repro.perfmodel.feedback.CalibratedEstimator` — seeded to rank
  exactly like the analytic FLOP model, learning per-kernel rates from
  the ``runtime.kernel_rate`` histograms, batched estimation, snapshot
  round-trips;
* :class:`~repro.runtime.dispatcher.Dispatcher` re-selection — the
  exponentially-backed-off disagreement/advantage checkpoints that swap a
  memoized plan when the calibrated model exposes a wrong selection;
* the :class:`~repro.compiler.program.CompiledProgram` ``calibration``
  section — a warmed deployment ships its learned table and a fresh
  process dispatches with it (no warm-up), while v1 artifacts keep
  loading.
"""

import json

import numpy as np
import pytest

from repro.api import compile_chain
from repro.compiler.pipeline import COST_MODEL_NAMES, CompileOptions
from repro.compiler.program import (
    ARTIFACT_VERSION,
    SUPPORTED_ARTIFACT_VERSIONS,
    ArtifactError,
    CompiledProgram,
)
from repro.compiler.selection import essential_set
from repro.errors import DispatchError
from repro.experiments.sampling import sample_instances
from repro.obs.registry import MetricsRegistry
from repro.perfmodel.feedback import (
    CALIBRATION_FORMAT_VERSION,
    KERNEL_RATE_METRIC,
    CalibratedEstimator,
)
from repro.perfmodel.machine import fixup_call, step_call
from repro.runtime import Dispatcher, random_instance_arrays
from repro.runtime.dispatcher import flop_estimator, runtime_snapshot
from repro.serve.backends import DiskBackend

from conftest import general_chain


def _pool(chain, seed=0, count=60):
    rng = np.random.default_rng(seed)
    return essential_set(
        chain, training_instances=sample_instances(chain, count, rng)
    )


def _feed(registry, kernel, routine, rates):
    hist = registry.histogram(KERNEL_RATE_METRIC, kernel=kernel, routine=routine)
    for rate in rates:
        hist.observe(rate)
    return hist


class TestStepFlops:
    def test_step_and_fixup_flops_sum_to_variant_flop_cost(self):
        chain = general_chain(5)
        sizes = (7, 19, 4, 31, 12, 9)
        q = np.asarray([sizes], dtype=np.float64)
        for variant in _pool(chain):
            total = sum(step_call(s, q)[0][0] for s in variant.steps) + sum(
                fixup_call(f, q)[0][0] for f in variant.fixups
            )
            assert total == pytest.approx(variant.flop_cost(sizes))


class TestCalibratedEstimator:
    def test_seed_rates_rank_exactly_like_flops(self):
        chain = general_chain(6)
        pool = _pool(chain)
        estimator = CalibratedEstimator(registry=MetricsRegistry())
        rng = np.random.default_rng(1)
        for q in sample_instances(chain, 10, rng):
            q = tuple(int(x) for x in q)
            flops = [flop_estimator(v, q) for v in pool]
            seconds = [estimator(v, q) for v in pool]
            assert np.argsort(flops).tolist() == np.argsort(seconds).tolist()
            for f, s in zip(flops, seconds):
                assert s == pytest.approx(f / estimator.seed_flops_per_second)

    def test_refresh_learns_median_and_decays(self):
        registry = MetricsRegistry()
        estimator = CalibratedEstimator(
            registry=registry, decay=0.5, refresh_interval=0.0
        )
        hist = _feed(registry, "GEMM", "dgemm", [1e9, 2e9, 3e9])
        assert estimator.refresh() == 1
        assert estimator.rate_for("GEMM") == pytest.approx(2e9)
        # Second refresh with a shifted window: EMA moves halfway (decay .5).
        for rate in [6e9] * 5:
            hist.observe(rate)
        estimator.refresh()
        assert estimator.rate_for("GEMM") == pytest.approx((2e9 + 6e9) / 2)

    def test_empty_window_contributes_nothing(self):
        registry = MetricsRegistry()
        registry.histogram(KERNEL_RATE_METRIC, kernel="TRMM", routine="dtrmm")
        estimator = CalibratedEstimator(registry=registry, refresh_interval=0.0)
        assert estimator.refresh() == 0
        assert estimator.rate_for("TRMM") == estimator.seed_flops_per_second

    def test_rates_aggregate_across_routines_by_samples(self):
        registry = MetricsRegistry()
        _feed(registry, "GEMM", "dgemm", [4e9] * 3)
        _feed(registry, "GEMM", "reference fallback", [1e9] * 1)
        estimator = CalibratedEstimator(registry=registry, refresh_interval=0.0)
        estimator.refresh()
        assert estimator.rate_for("GEMM") == pytest.approx(
            (3 * 4e9 + 1 * 1e9) / 4
        )

    def test_cost_many_matches_scalar(self):
        chain = general_chain(5)
        pool = _pool(chain)
        registry = MetricsRegistry()
        _feed(registry, "GEMM", "dgemm", [5e9] * 4)
        estimator = CalibratedEstimator(registry=registry, refresh_interval=0.0)
        estimator.refresh()
        rng = np.random.default_rng(2)
        instances = np.asarray(sample_instances(chain, 8, rng), dtype=np.float64)
        for variant in pool:
            batched = estimator.cost_many(variant, instances)
            scalar = [
                estimator(variant, tuple(int(x) for x in row))
                for row in instances
            ]
            assert np.allclose(batched, scalar)

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        _feed(registry, "GEMM", "dgemm", [3e9] * 5)
        _feed(registry, "TRMM", "dtrmm", [1e9] * 2)
        estimator = CalibratedEstimator(registry=registry, refresh_interval=0.0)
        estimator.refresh()
        payload = estimator.snapshot()
        assert payload["format_version"] == CALIBRATION_FORMAT_VERSION
        assert set(payload["table"]) == {"GEMM|dgemm", "TRMM|dtrmm"}
        json.dumps(payload)  # wire-clean
        restored = CalibratedEstimator.from_snapshot(
            payload, registry=MetricsRegistry()
        )
        assert restored.rate_for("GEMM") == pytest.approx(
            estimator.rate_for("GEMM")
        )
        assert restored.rate_for("TRMM") == pytest.approx(
            estimator.rate_for("TRMM")
        )

    def test_unlearned_estimator_snapshots_empty(self):
        estimator = CalibratedEstimator(registry=MetricsRegistry())
        assert estimator.snapshot() == {}

    def test_from_snapshot_tolerates_junk(self):
        restored = CalibratedEstimator.from_snapshot(
            {
                "table": {
                    "GEMM|dgemm": {"flops_per_second": 2e9, "samples": 3},
                    "bad": "not a mapping",
                    "zero|rate": {"flops_per_second": 0.0},
                },
                "unknown_future_key": {"x": 1},
            },
            registry=MetricsRegistry(),
        )
        assert restored.rate_for("GEMM") == pytest.approx(2e9)
        assert restored.rate_for("zero") == restored.seed_flops_per_second

    def test_stats_shape(self):
        registry = MetricsRegistry()
        estimator = CalibratedEstimator(registry=registry, refresh_interval=0.0)
        fresh = estimator.stats()
        assert fresh["entries"] == 0 and fresh["age_seconds"] is None
        _feed(registry, "GEMM", "dgemm", [2e9] * 3)
        estimator.refresh()
        warmed = estimator.stats()
        assert warmed["entries"] == 1 and warmed["samples"] == 3
        assert warmed["refreshes"] == 1
        assert warmed["age_seconds"] >= 0.0
        json.dumps(warmed)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CalibratedEstimator(seed_flops_per_second=0.0)
        with pytest.raises(ValueError):
            CalibratedEstimator(decay=0.0)
        with pytest.raises(ValueError):
            CalibratedEstimator(decay=1.5)
        with pytest.raises(ValueError):
            CalibratedEstimator(refresh_interval=-1.0)


class _RiggedCalibration:
    """A calibration model that prices one chosen variant far cheaper."""

    def __init__(self, favorite):
        self.favorite = favorite

    def __call__(self, variant, sizes):
        return 1e-6 if variant is self.favorite else 10.0


class TestDispatcherReselection:
    def _arena(self, seed=3):
        chain = general_chain(4)
        pool = _pool(chain, seed=seed)
        assert len(pool) >= 2
        rng = np.random.default_rng(seed)
        sizes = tuple(
            int(x) for x in sample_instances(chain, 1, rng, low=8, high=24)[0]
        )
        arrays = random_instance_arrays(chain, sizes, rng)
        return chain, pool, sizes, arrays

    def test_advantage_trigger_swaps_the_memoized_plan(self):
        chain, pool, sizes, arrays = self._arena()
        flops_pick, _ = Dispatcher(chain, pool).select(sizes)
        loser = next(v for v in pool if v is not flops_pick)
        dispatcher = Dispatcher(
            chain,
            pool,
            calibration=_RiggedCalibration(loser),
            reselect_ratio=2.0,
            reselect_min_executions=4,
        )
        for _ in range(4):
            outcome = dispatcher.run(arrays)
            assert outcome.variant is flops_pick
        swapped = dispatcher.run(arrays)  # 5th run replays the 4th's swap
        assert dispatcher.reselections == 1
        assert dispatcher.reselect_checks >= 1
        assert swapped.variant is loser
        # The swapped decision is stable: its own checkpoints keep it.
        for _ in range(8):
            assert dispatcher.run(arrays).variant is loser
        assert dispatcher.reselections == 1

    def test_agreeing_calibration_keeps_the_selection(self):
        chain, pool, sizes, arrays = self._arena()
        flops_pick, _ = Dispatcher(chain, pool).select(sizes)
        dispatcher = Dispatcher(
            chain,
            pool,
            calibration=_RiggedCalibration(flops_pick),
            reselect_ratio=2.0,
            reselect_min_executions=2,
        )
        for _ in range(10):
            assert dispatcher.run(arrays).variant is flops_pick
        assert dispatcher.reselect_checks >= 1
        assert dispatcher.reselections == 0

    def test_checkpoints_back_off_exponentially(self):
        chain, pool, sizes, arrays = self._arena()
        flops_pick, _ = Dispatcher(chain, pool).select(sizes)
        dispatcher = Dispatcher(
            chain,
            pool,
            calibration=_RiggedCalibration(flops_pick),
            reselect_ratio=2.0,
            reselect_min_executions=2,
        )
        for _ in range(40):
            dispatcher.run(arrays)
        # Checks at executions 2, 4, 8, 16, 32 — not one per call.
        assert dispatcher.reselect_checks == 5

    def test_memo_stats_and_runtime_snapshot_carry_counters(self):
        chain, pool, sizes, arrays = self._arena()
        dispatcher = Dispatcher(chain, pool)
        stats = dispatcher.memo_stats()
        assert stats["reselect_checks"] == 0
        assert stats["reselections"] == 0
        agg = runtime_snapshot()
        assert "reselect_checks" in agg and "reselections" in agg

    def test_reselect_parameter_validation(self):
        chain, pool, _, _ = self._arena()
        with pytest.raises(DispatchError, match="reselect_ratio"):
            Dispatcher(chain, pool, reselect_ratio=1.0)
        with pytest.raises(DispatchError, match="reselect_min_executions"):
            Dispatcher(chain, pool, reselect_min_executions=0)

    def test_calibrated_cost_estimator_becomes_the_calibration(self):
        chain, pool, _, _ = self._arena()
        estimator = CalibratedEstimator(registry=MetricsRegistry())
        dispatcher = Dispatcher(
            chain, pool, cost_estimator=estimator, reselect_ratio=2.0
        )
        assert dispatcher.calibration is estimator


class TestCompileOptionsCostModel:
    def test_cost_model_validated(self):
        assert CompileOptions(cost_model="calibrated").cost_model == "calibrated"
        with pytest.raises(Exception, match="cost_model"):
            CompileOptions(cost_model="psychic")

    def test_cost_model_is_a_runtime_knob_not_a_cache_key(self):
        assert (
            CompileOptions(cost_model="flops").cache_token()
            == CompileOptions(cost_model="calibrated").cache_token()
        )

    def test_compile_chain_cost_model_builds_calibrated_runtime(self):
        generated = compile_chain(
            general_chain(4),
            num_training_instances=40,
            seed=7,
            use_cache=False,
            cost_model="calibrated",
        )
        assert getattr(generated.dispatcher.cost_estimator, "calibrated", False)

    def test_default_cost_model_keeps_flop_estimator(self):
        generated = compile_chain(
            general_chain(4), num_training_instances=40, seed=7, use_cache=False
        )
        assert generated.dispatcher.cost_estimator is flop_estimator


class TestArtifactCalibration:
    def _program(self, n=4, **overrides):
        return compile_chain(
            general_chain(n),
            num_training_instances=40,
            seed=11,
            use_cache=False,
            **overrides,
        ).to_program()

    def _warm_estimator(self, program):
        """A calibrated estimator warmed from a private registry."""
        registry = MetricsRegistry()
        kernels = {
            step.kernel.name for v in program.variants for step in v.steps
        }
        for i, kernel in enumerate(sorted(kernels)):
            _feed(registry, kernel, "reference", [float((i + 1) * 1e9)] * 4)
        estimator = CalibratedEstimator(registry=registry, refresh_interval=0.0)
        estimator.refresh()
        return estimator

    def test_untrafficked_artifact_has_no_calibration_section(self):
        program = self._program()
        payload = json.loads(program.dumps())
        assert payload["artifact_version"] == ARTIFACT_VERSION == 2
        assert "calibration" not in payload
        assert CompiledProgram.loads(program.dumps()).calibration == {}

    def test_calibration_survives_save_load_and_dispatches_warm(self, tmp_path):
        program = self._program()
        estimator = self._warm_estimator(program)
        runtime = program.runtime(cost_estimator=estimator)
        assert runtime.cost_estimator is estimator
        path = tmp_path / "warmed.json"
        program.save(path)
        payload = json.loads(path.read_text())
        assert payload["calibration"]["table"]  # live table was shipped

        fresh = CompiledProgram.load(path)
        assert fresh.calibration["table"] == payload["calibration"]["table"]
        revived = fresh.runtime()
        shipped = revived.cost_estimator
        assert getattr(shipped, "calibrated", False)
        # No warm-up: the fresh process prices kernels at the learned
        # rates immediately, and dispatch agrees with the warmed original.
        for kernel, entry in (
            (key.partition("|")[0], value)
            for key, value in payload["calibration"]["table"].items()
        ):
            assert shipped.rate_for(kernel) == pytest.approx(
                entry["flops_per_second"]
            )
        rng = np.random.default_rng(13)
        for q in sample_instances(program.chain, 10, rng):
            q = tuple(int(x) for x in q)
            picked_a, _ = runtime.select(q)
            picked_b, _ = revived.select(q)
            assert picked_a.signature() == picked_b.signature()

    def test_reserialized_artifact_keeps_shipped_table(self, tmp_path):
        program = self._program()
        estimator = self._warm_estimator(program)
        program.runtime(cost_estimator=estimator)
        restored = CompiledProgram.loads(program.dumps())
        # Load + immediate re-save without traffic: the table persists.
        again = CompiledProgram.loads(restored.dumps())
        assert again.calibration["table"] == restored.calibration["table"]

    def test_v1_artifact_still_loads(self):
        program = self._program()
        estimator = self._warm_estimator(program)
        program.runtime(cost_estimator=estimator)
        payload = json.loads(program.dumps())
        assert "calibration" in payload
        payload["artifact_version"] = 1
        del payload["calibration"]
        downgraded = CompiledProgram.loads(json.dumps(payload))
        assert downgraded.calibration == {}
        assert downgraded.runtime().cost_estimator is flop_estimator
        assert 1 in SUPPORTED_ARTIFACT_VERSIONS

    def test_calibration_tolerates_non_dict_section(self):
        program = self._program()
        payload = json.loads(program.dumps())
        payload["calibration"] = "garbage"
        assert CompiledProgram.loads(json.dumps(payload)).calibration == {}

    @pytest.mark.parametrize(
        "section",
        [
            {"decay": 7},
            {"seed_flops_per_second": -1},
            {"decay": "x"},
            {"table": {"GEMM|blas": {"flops_per_second": "abc"}}},
            {"table": {"GEMM|blas": {"flops_per_second": 1e9, "samples": "x"}}},
            {"refresh_count": "x"},
        ],
    )
    def test_malformed_calibration_section_fails_the_load(self, section, tmp_path):
        # A section the calibrated runtime cannot rebuild must fail at
        # load (a disk-cache miss), not at every calibrated dispatch.
        program = self._program()
        payload = json.loads(program.dumps())
        payload["calibration"] = section
        text = json.dumps(payload)
        with pytest.raises(ArtifactError, match="malformed calibration section"):
            CompiledProgram.loads(text)
        cache = DiskBackend(tmp_path)
        cache.path_for(program.key).write_text(text)
        assert cache.load(program.key) is None

    def test_options_cost_model_round_trips(self):
        program = self._program(cost_model="calibrated")
        restored = CompiledProgram.loads(program.dumps())
        assert restored.options.get("cost_model") == "calibrated"
        assert getattr(
            restored.runtime().cost_estimator, "calibrated", False
        )
        assert set(COST_MODEL_NAMES) == {"flops", "calibrated"}
