"""The process-wide metrics registry: counters, gauges, histograms.

Before this module, every layer spoke its own telemetry dialect —
``serve/metrics.py`` counters, :attr:`PassContext.timings`,
``Dispatcher.memo_stats()`` — and nothing could answer "what is this
process doing?" in one call.  The registry is that one place:

* :class:`Counter` — a monotonic, thread-safe count (requests, hits).
* :class:`Gauge` — a point-in-time value, either set explicitly or read
  through a probe callable (queue depth, pool size).
* :class:`Histogram` — a bounded sliding window of observations with
  nearest-rank percentiles (p50/p90/p99) plus *cumulative* count/sum/min/
  max, so long-lived processes keep totals while percentiles stay recent.

Metrics are identified by ``name`` plus optional string labels
(``counter("cache.lookups", tier="disk", outcome="hit")``); the same
identity always returns the same object, so call sites never hold
registration state.  :func:`get_registry` returns the process-wide
instance every layer reports into; private registries (e.g. one per
:class:`~repro.serve.metrics.ServiceMetrics`) join the global snapshot as
*collectors* — weakly-referenced snapshot providers grouped under a scope
name, dropped automatically when their owner dies.

The snapshot (:meth:`MetricsRegistry.snapshot`) is plain JSON-clean dicts,
served verbatim by the serve ``stats`` op and rendered to Prometheus text
by :func:`repro.obs.export.render_prometheus`.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import deque
from typing import Callable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "metric_key",
    "percentile",
]

#: Default sliding-window size for histograms.
DEFAULT_WINDOW = 1024


def percentile(
    samples: list[float], p: float, default: Optional[float] = 0.0
) -> Optional[float]:
    """Nearest-rank percentile of ``samples`` (``p`` in [0, 100]).

    The rank is the explicit ``ceil(p/100 * n)`` (1-indexed, clamped to
    the first element for ``p = 0``).  The historical implementation used
    ``round()``, whose banker's rounding (``round(2.5) == 2``) shifted the
    index down on half-way boundaries — e.g. the median of five samples
    came back as the *second*-smallest.  An empty sample set returns
    ``default`` — 0.0 keeps the stats endpoints answering before the
    first observation, while callers that must *distinguish* "no data"
    from a measured zero (the calibrated cost model reads medians that
    become rate denominators) pass ``default=None`` and branch on it
    instead of dividing by a fabricated 0.0.
    """
    if not samples:
        return default
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered)) - 1  # p=0 -> -1, clamped
    return ordered[max(0, rank)]


def metric_key(name: str, labels: dict[str, str]) -> str:
    """The registry identity of a metric: ``name{k=v,...}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonic, thread-safe counter."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Optional[dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"<Counter {metric_key(self.name, self.labels)}={self.value}>"


class Gauge:
    """A point-in-time value: set explicitly, or read through a probe.

    A probe (a zero-argument callable) wins over the last set value; probe
    failures degrade to the last set value rather than raising into a
    stats call.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value", "_probe")

    def __init__(self, name: str, labels: Optional[dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value: float = 0.0
        self._probe: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        """Adjust the stored value by ``delta`` (counts that go both ways,
        e.g. live connections).  Meaningless while a probe is installed —
        probes win over the stored value."""
        with self._lock:
            self._value += delta

    def set_probe(self, probe: Optional[Callable[[], float]]) -> None:
        with self._lock:
            self._probe = probe

    @property
    def value(self) -> float:
        with self._lock:
            probe, fallback = self._probe, self._value
        if probe is not None:
            try:
                return float(probe())
            except Exception:
                return fallback
        return fallback

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"<Gauge {metric_key(self.name, self.labels)}={self.value}>"


class Histogram:
    """A bounded sliding window of observations with percentile snapshots.

    Percentiles (p50/p90/p99) are computed over the most recent ``window``
    observations; ``count``/``sum``/``min``/``max`` are cumulative over the
    metric's lifetime (what a Prometheus summary exports).  ``observe`` is
    one lock acquisition, one deque append, and three float updates — cheap
    enough for per-request hot paths.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "window",
        "_lock",
        "_samples",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        name: str,
        labels: Optional[dict[str, str]] = None,
        window: int = DEFAULT_WINDOW,
    ):
        if window < 1:
            raise ValueError(f"histogram window must be >= 1, got {window}")
        self.name = name
        self.labels = dict(labels or {})
        self.window = window
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values) -> None:
        """Observe a batch in order, under one lock acquisition — the same
        window, totals and extremes as one :meth:`observe` per value."""
        values = [float(value) for value in values]
        with self._lock:
            self._samples.extend(values)
            self._count += len(values)
            total, low, high = self._sum, self._min, self._max
            for value in values:
                total += value
                if value < low:
                    low = value
                if value > high:
                    high = value
            self._sum, self._min, self._max = total, low, high

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(
        self, p: float, default: Optional[float] = 0.0
    ) -> Optional[float]:
        """Windowed nearest-rank percentile; ``default`` on an empty window.

        The window (not the cumulative count) is what can be empty — a
        long-lived histogram keeps its totals while the sliding window
        drains only by displacement, so emptiness means "no observation
        yet".  Calibration readers pass ``default=None`` to tell that
        apart from a genuine 0.0 sample.
        """
        with self._lock:
            samples = list(self._samples)
        return percentile(samples, p, default=default)

    def median(self, default: Optional[float] = None) -> Optional[float]:
        """The windowed median, ``default`` (None) before any observation."""
        return self.percentile(50.0, default=default)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            samples = list(self._samples)
            count, total = self._count, self._sum
            low = self._min if self._count else 0.0
            high = self._max if self._count else 0.0
        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "window_count": len(samples),
            "p50": percentile(samples, 50.0),
            "p90": percentile(samples, 90.0),
            "p99": percentile(samples, 99.0),
        }

    def __repr__(self) -> str:
        return f"<Histogram {metric_key(self.name, self.labels)} n={self.count}>"


class MetricsRegistry:
    """A named collection of metrics plus mounted snapshot collectors.

    ``counter``/``gauge``/``histogram`` are get-or-create on the metric's
    identity (name + labels); asking for an existing identity with a
    different metric kind raises, because two call sites disagreeing on
    what a name *is* would silently corrupt each other's numbers.

    Collectors extend the snapshot with component state the registry does
    not own: a collector is a zero-argument callable returning a JSON-clean
    dict, registered under a scope name.  Bound methods are held through
    :class:`weakref.WeakMethod`, so mounting a component never keeps it
    alive — dead collectors drop out of the snapshot (and free their scope
    name) automatically.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: dict[str, Callable[[], Optional[Callable[[], dict]]]] = {}

    # -- metric construction -------------------------------------------------

    def _get_or_create(self, cls, name: str, labels: dict[str, str], **kwargs):
        key = metric_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {key!r} is a {metric.kind}, not a "
                    f"{cls.kind}; pick a different name"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(
        self,
        name: str,
        probe: Optional[Callable[[], float]] = None,
        **labels: str,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, labels)
        if probe is not None:
            gauge.set_probe(probe)
        return gauge

    def histogram(
        self, name: str, window: int = DEFAULT_WINDOW, **labels: str
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, window=window)

    # -- collectors ----------------------------------------------------------

    def register_collector(self, scope: str, fn: Callable[[], dict]) -> str:
        """Mount a snapshot provider under ``scope``; returns the scope used.

        A taken scope name gets a ``#N`` suffix (two services mounting
        ``"serve"`` become ``serve`` and ``serve#2``), so callers report
        the returned name, not the requested one.  Bound methods are held
        weakly (via their ``__self__``); plain functions are held strongly
        and live for the registry's lifetime.
        """
        if hasattr(fn, "__self__"):
            ref: Callable[[], Optional[Callable[[], dict]]] = weakref.WeakMethod(fn)
        else:
            ref = lambda fn=fn: fn  # noqa: E731 - strong holder, same shape
        with self._lock:
            self._prune_collectors_locked()
            chosen = scope
            suffix = 2
            while chosen in self._collectors:
                chosen = f"{scope}#{suffix}"
                suffix += 1
            self._collectors[chosen] = ref
            return chosen

    def unregister_collector(self, scope: str) -> None:
        with self._lock:
            self._collectors.pop(scope, None)

    def _prune_collectors_locked(self) -> None:
        dead = [name for name, ref in self._collectors.items() if ref() is None]
        for name in dead:
            del self._collectors[name]

    # -- reading -------------------------------------------------------------

    def metrics(self) -> list[Counter | Gauge | Histogram]:
        """The live metric objects, in creation order."""
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> dict[str, object]:
        """One JSON-clean dict of every metric and collector scope.

        Collectors run first: a component that buffers observations (the
        dispatcher's batched execution log) folds them into its metrics
        when collected, so the metrics read afterwards are exact.
        """
        with self._lock:
            collectors = list(self._collectors.items())
        scopes: dict[str, dict] = {}
        for scope, ref in collectors:
            fn = ref()
            if fn is None:
                continue
            try:
                scopes[scope] = fn()
            except Exception as exc:  # a dying component must not kill stats
                scopes[scope] = {"error": f"{type(exc).__name__}: {exc}"}
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for metric in self.metrics():
            key = metric_key(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[key] = metric.snapshot()
            elif isinstance(metric, Gauge):
                gauges[key] = metric.snapshot()
            else:
                histograms[key] = metric.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "scopes": scopes,
        }

    def reset(self) -> None:
        """Drop every metric (testing hook).  Collectors stay mounted —
        process-lifetime components (the runtime view, live services)
        re-register only at import/construction time."""
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


#: The process-wide registry every layer reports into.
_REGISTRY = MetricsRegistry("repro")


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY
