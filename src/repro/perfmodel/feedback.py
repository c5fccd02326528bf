"""Feedback-directed cost estimation: calibrated FLOP/s from live traffic.

The dispatcher's default cost model is analytic FLOPs.  The paper's own
execution-time experiment (Section VII-B) shows why that is not enough:
kernel classes run at very different effective rates, so the FLOP-cheapest
variant is not always the fastest.  Production traffic measures those
rates for free — with tracing enabled, :meth:`Dispatcher.run` times every
kernel call into per-``(kernel, routine)`` histograms in the
:mod:`repro.obs` registry, and additionally records the observed
FLOP/s of each call (``runtime.kernel_rate``).

:class:`CalibratedEstimator` closes the loop:

* it maintains a thread-safe per-``(kernel, routine)`` table of effective
  FLOP/s, **seeded** with one uniform analytic rate — before any traffic,
  every kernel looks equally fast, so estimates are proportional to FLOPs
  and the estimator ranks variants exactly like the analytic model;
* :meth:`refresh` folds the registry histograms' windowed *medians* into
  the table with exponential decay, so the rates track the machine while
  staying robust to interrupt spikes (medians) and drift (decay);
* as a :class:`~repro.perfmodel.machine.KernelTimeModel` its
  ``time_call`` is a call's FLOPs divided by the kernel's calibrated rate,
  and the shared loop maps ``(variant, sizes)`` — or, batched through
  :meth:`cost_many`, a whole instance matrix — to estimated seconds;
* :meth:`snapshot` / :meth:`from_snapshot` serialize the learned table
  into the :class:`~repro.compiler.program.CompiledProgram` artifact's
  ``calibration`` section, so a warmed deployment ships its calibration
  and a fresh process dispatches with the learned rates — no warm-up.

Selection is plumbed through ``CompileOptions.cost_model``
(``"flops" | "calibrated"``), ``Dispatcher(cost_estimator=...)``, serve
request options, and the CLI ``--cost-model`` flag.  The dispatcher
additionally uses the estimator for *online re-selection*: when a memo
entry's measured replay time disagrees with the calibrated prediction —
or the calibrated sweep prices another variant cheaper — by a
configurable ratio, the entry is re-selected under the calibrated model
and the plan swapped (see ``Dispatcher._feedback``).
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING, Any, Mapping, Optional

import numpy as np

from repro.obs import get_registry
from repro.obs.registry import MetricsRegistry
from repro.perfmodel.machine import KernelTimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.variant import Variant

__all__ = [
    "CALIBRATION_FORMAT_VERSION",
    "KERNEL_RATE_METRIC",
    "CalibratedEstimator",
    "calibration_snapshot",
    "get_default_estimator",
]

#: Version of the serialized calibration payload (the artifact section).
CALIBRATION_FORMAT_VERSION = 1

#: Histogram the traced runtime feeds with observed per-call FLOP/s.
KERNEL_RATE_METRIC = "runtime.kernel_rate"

#: Uniform seed rate: with every kernel at the same FLOP/s, estimated
#: seconds are FLOPs times a constant — the calibrated estimator ranks
#: variants exactly like the analytic FLOP model until traffic arrives.
DEFAULT_SEED_FLOPS_PER_SECOND = 2.0e9

#: Weight of a fresh histogram median against the running rate (EMA).
DEFAULT_DECAY = 0.5

#: Seconds between automatic :meth:`CalibratedEstimator.refresh` pulls.
DEFAULT_REFRESH_INTERVAL = 1.0


class CalibratedEstimator(KernelTimeModel):
    """Online per-kernel FLOP/s table, usable as a dispatcher cost estimator.

    Thread-safe: the table is guarded by a lock, reads go through an
    immutable per-kernel rate snapshot rebuilt on every :meth:`refresh`.
    Estimated costs are *seconds* (FLOPs / calibrated FLOP/s), summed over
    a variant's steps and fix-ups, so estimates from differently-warmed
    estimators stay comparable to wall-clock measurements.
    """

    #: Marker the dispatcher and artifact layer test with ``getattr`` —
    #: they must not import this module (and its package) eagerly.
    calibrated = True

    def __init__(
        self,
        seed_flops_per_second: float = DEFAULT_SEED_FLOPS_PER_SECOND,
        decay: float = DEFAULT_DECAY,
        refresh_interval: float = DEFAULT_REFRESH_INTERVAL,
        registry: Optional[MetricsRegistry] = None,
    ):
        if seed_flops_per_second <= 0:
            raise ValueError("seed_flops_per_second must be > 0")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if refresh_interval < 0:
            raise ValueError("refresh_interval must be >= 0")
        self.seed_flops_per_second = float(seed_flops_per_second)
        self.decay = float(decay)
        self.refresh_interval = float(refresh_interval)
        self._registry = registry
        self._lock = threading.Lock()
        #: (kernel, routine) -> {"flops_per_second", "samples"} — learned
        #: entries only; unmeasured kernels fall back to the seed rate.
        self._table: dict[tuple[str, str], dict[str, float]] = {}
        #: kernel -> sample-weighted rate, rebuilt on refresh (read lock-free
        #: on the estimation hot path; rebinding a dict is atomic).
        self._kernel_rates: dict[str, float] = {}
        self._next_refresh = 0.0
        self.refresh_count = 0
        self.updated_unix: float = 0.0

    # -- calibration ---------------------------------------------------------

    def _source_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def refresh(self) -> int:
        """Fold the registry's observed-rate medians into the table.

        Reads every ``runtime.kernel_rate{kernel,routine}`` histogram's
        windowed median and merges it into the running rate with
        exponential decay (``decay`` weight on the fresh median).  Empty
        windows contribute nothing — :meth:`Histogram.median` returns
        ``None`` before the first observation, never a fabricated zero
        rate.  Returns the number of ``(kernel, routine)`` entries updated.
        """
        updated = 0
        for metric in self._source_registry().metrics():
            if metric.name != KERNEL_RATE_METRIC or metric.kind != "histogram":
                continue
            observed = metric.median(default=None)
            if observed is None or not math.isfinite(observed) or observed <= 0:
                continue
            kernel = metric.labels.get("kernel", "")
            routine = metric.labels.get("routine", "")
            samples = metric.count
            with self._lock:
                entry = self._table.get((kernel, routine))
                if entry is None:
                    self._table[(kernel, routine)] = {
                        "flops_per_second": float(observed),
                        "samples": float(samples),
                    }
                else:
                    entry["flops_per_second"] += self.decay * (
                        float(observed) - entry["flops_per_second"]
                    )
                    entry["samples"] = float(samples)
            updated += 1
        with self._lock:
            self.refresh_count += 1
            self.updated_unix = time.time()
            self._rebuild_kernel_rates_locked()
            self._next_refresh = time.monotonic() + self.refresh_interval
        return updated

    def maybe_refresh(self) -> bool:
        """Throttled :meth:`refresh`: at most once per ``refresh_interval``."""
        if time.monotonic() < self._next_refresh:
            return False
        self.refresh()
        return True

    def _rebuild_kernel_rates_locked(self) -> None:
        totals: dict[str, tuple[float, float]] = {}
        for (kernel, _), entry in self._table.items():
            weight = max(1.0, entry["samples"])
            acc, wsum = totals.get(kernel, (0.0, 0.0))
            totals[kernel] = (
                acc + weight * entry["flops_per_second"],
                wsum + weight,
            )
        self._kernel_rates = {
            kernel: acc / wsum for kernel, (acc, wsum) in totals.items() if wsum
        }

    def rate_for(self, kernel: str) -> float:
        """Calibrated FLOP/s for a kernel class (seed rate until measured)."""
        return self._kernel_rates.get(kernel, self.seed_flops_per_second)

    # -- estimation ----------------------------------------------------------

    def time_call(self, kernel: str, flops, m, k, n):
        """A call's FLOPs over the kernel's calibrated FLOP/s."""
        return flops / self._kernel_rates.get(kernel, self.seed_flops_per_second)

    def cost_many(self, variant: "Variant", instances: np.ndarray) -> np.ndarray:
        """Batched estimate: seconds of one variant on ``(count, n+1)`` sizes.

        Pulls fresh rates first (throttled); the scalar ``estimator(variant,
        sizes)`` form goes through here too.
        """
        self.maybe_refresh()
        return super().cost_many(variant, instances)

    # -- introspection and serialization -------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-clean calibration state (the ``calibration`` stats scope)."""
        with self._lock:
            entries = len(self._table)
            samples = sum(int(e["samples"]) for e in self._table.values())
            updated = self.updated_unix
            refreshes = self.refresh_count
        return {
            "entries": entries,
            "samples": samples,
            "refreshes": refreshes,
            "updated_unix": updated,
            "age_seconds": (
                max(0.0, time.time() - updated) if updated else None
            ),
            "seed_flops_per_second": self.seed_flops_per_second,
        }

    def snapshot(self) -> dict[str, Any]:
        """The serializable calibration section (empty dict = nothing learned).

        Ships only *learned* state: an estimator still at its uniform seed
        rates snapshots to ``{}``, so artifacts without traffic carry no
        calibration section at all.
        """
        with self._lock:
            if not self._table:
                return {}
            table = {
                f"{kernel}|{routine}": {
                    "flops_per_second": entry["flops_per_second"],
                    "samples": int(entry["samples"]),
                }
                for (kernel, routine), entry in sorted(self._table.items())
            }
            return {
                "format_version": CALIBRATION_FORMAT_VERSION,
                "seed_flops_per_second": self.seed_flops_per_second,
                "decay": self.decay,
                "updated_unix": self.updated_unix,
                "refresh_count": self.refresh_count,
                "table": table,
            }

    @classmethod
    def from_snapshot(
        cls,
        payload: Mapping[str, Any],
        registry: Optional[MetricsRegistry] = None,
    ) -> "CalibratedEstimator":
        """Rebuild an estimator from an artifact's ``calibration`` section.

        Tolerant by design — unknown keys are ignored and a missing table
        yields a seed-rate estimator — so older payload revisions keep
        loading.  The rebuilt estimator stays *live*: it keeps refreshing
        from the local registry, folding local traffic into the shipped
        rates.
        """
        estimator = cls(
            seed_flops_per_second=float(
                payload.get("seed_flops_per_second")
                or DEFAULT_SEED_FLOPS_PER_SECOND
            ),
            decay=float(payload.get("decay") or DEFAULT_DECAY),
            registry=registry,
        )
        table = payload.get("table") or {}
        if isinstance(table, Mapping):
            for key, entry in table.items():
                if not isinstance(entry, Mapping):
                    continue
                rate = float(entry.get("flops_per_second") or 0.0)
                if rate <= 0 or not math.isfinite(rate):
                    continue
                kernel, _, routine = str(key).partition("|")
                estimator._table[(kernel, routine)] = {
                    "flops_per_second": rate,
                    "samples": float(entry.get("samples") or 0.0),
                }
        estimator.refresh_count = int(payload.get("refresh_count") or 0)
        estimator.updated_unix = float(payload.get("updated_unix") or 0.0)
        with estimator._lock:
            estimator._rebuild_kernel_rates_locked()
        return estimator

    def __repr__(self) -> str:
        return (
            f"<CalibratedEstimator entries={len(self._kernel_rates)} "
            f"refreshes={self.refresh_count}>"
        )


# ---------------------------------------------------------------------------
# The process-default estimator: what `cost_model="calibrated"` resolves to
# for freshly-compiled programs, so every dispatcher in the process shares
# one learned table (artifacts loaded *with* a shipped table get their own
# private estimator seeded from it instead).
# ---------------------------------------------------------------------------

_DEFAULT: Optional[CalibratedEstimator] = None
_DEFAULT_LOCK = threading.Lock()


def get_default_estimator() -> CalibratedEstimator:
    """The process-wide shared :class:`CalibratedEstimator` (lazy)."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = CalibratedEstimator()
    return _DEFAULT


def calibration_snapshot() -> dict[str, Any]:
    """The ``calibration`` collector scope of the global stats snapshot."""
    if _DEFAULT is None:
        return {"entries": 0, "samples": 0, "refreshes": 0}
    return _DEFAULT.stats()


get_registry().register_collector("calibration", calibration_snapshot)
