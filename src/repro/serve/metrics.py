"""Service counters: queue depth, coalesce rate, compile-latency percentiles.

The :class:`~repro.serve.service.CompileService` records one latency sample
per finished request (submit-to-result wall time) alongside monotonic
counters for the request outcomes.  Since the ``repro.obs`` layer, the
storage is a private :class:`~repro.obs.MetricsRegistry` per service —
counters, a queue-depth gauge, and a bounded latency histogram — mounted
into the process-wide registry as a ``serve`` collector scope, so the
global ``stats``/Prometheus snapshot sees every live service while this
class keeps its zero-based, per-service public API: the same attributes
(``requests``, ``coalesced``, ...), the same :meth:`snapshot` keys, and
the same ``__str__`` as before the migration.  The JSON-lines front end
(``{"op": "stats"}``), ``repro serve --stats``, and the throughput
benchmark all read the same numbers unchanged.

``percentile`` lives in :mod:`repro.obs.registry` now (with the
nearest-rank fix) and is re-exported here for compatibility.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs import MetricsRegistry, get_registry, percentile

__all__ = [
    "ServiceMetrics",
    "connection_closed",
    "connection_opened",
    "percentile",
    "record_wire",
]


# -- front-end wire accounting (process-wide registry) -----------------------
#
# Unlike the per-service counters below, wire traffic belongs to the front
# ends (stdio / async / http), which may outnumber or outlive any one
# CompileService — so these report straight into the global registry:
# ``serve.wire_bytes{direction,transport}`` counters plus a
# ``serve.connections{transport}`` gauge of currently-open connections.
# Metrics are looked up per call (a dict get under the registry lock) so the
# testing ``reset()`` hook never leaves stale cached objects behind.

def record_wire(transport: str, direction: str, nbytes: int) -> None:
    """Account ``nbytes`` of protocol traffic (``direction``: in | out)."""
    get_registry().counter(
        "serve.wire_bytes", direction=direction, transport=transport
    ).inc(int(nbytes))


def connection_opened(transport: str) -> None:
    get_registry().gauge("serve.connections", transport=transport).add(1)


def connection_closed(transport: str) -> None:
    get_registry().gauge("serve.connections", transport=transport).add(-1)


class ServiceMetrics:
    """Thread-safe counters + a sliding latency window for one service.

    Counters
    --------
    ``requests``
        Every accepted :meth:`CompileService.submit` call.
    ``compiled``
        Leader requests that actually ran the expensive back pipeline
        (pipeline executions — the number bench_serve reports).
    ``cache_hits``
        Leader requests answered by the session cache without a pipeline
        execution; ``compiled + cache_hits + coalesced + rejected +
        errors`` covers the terminal outcomes (an error on a leader counts
        only in ``errors``).
    ``coalesced``
        Requests attached to an identical in-flight compilation (served by
        a rebind of the leader's result).
    ``rejected``
        Requests refused because the bounded queue was full.
    ``errors``
        Requests whose future resolved with an exception.
    """

    #: Sliding-window size for latency percentiles.
    WINDOW = 2048

    def __init__(self, window: int = WINDOW):
        self._registry = MetricsRegistry("serve")
        self._requests = self._registry.counter("requests")
        self._compiled = self._registry.counter("compiled")
        self._cache_hits = self._registry.counter("cache_hits")
        self._coalesced = self._registry.counter("coalesced")
        self._rejected = self._registry.counter("rejected")
        self._errors = self._registry.counter("errors")
        self._latency = self._registry.histogram("latency_seconds", window=window)
        #: Callable returning the live queue depth (set by the service).
        self.queue_depth_probe: Optional[Callable[[], int]] = None
        self._registry.gauge("queue_depth", probe=self.queue_depth)
        #: Scope name this instance got in the global registry snapshot
        #: ("serve", "serve#2", ... — one per live service, weakly held).
        self.scope = get_registry().register_collector("serve", self.snapshot)

    # -- recording (called by the service) ----------------------------------

    def record_request(self) -> None:
        self._requests.inc()

    def record_compiled(self) -> None:
        self._compiled.inc()

    def record_cache_hit(self) -> None:
        self._cache_hits.inc()

    def record_coalesced(self) -> None:
        self._coalesced.inc()

    def record_rejected(self) -> None:
        self._rejected.inc()

    def record_error(self) -> None:
        self._errors.inc()

    def record_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    # -- reading ------------------------------------------------------------

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def compiled(self) -> int:
        return self._compiled.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def coalesced(self) -> int:
        return self._coalesced.value

    @property
    def rejected(self) -> int:
        return self._rejected.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def coalesce_rate(self) -> float:
        """Fraction of accepted requests served by coalescing."""
        accepted = self._requests.value - self._rejected.value
        return self._coalesced.value / accepted if accepted else 0.0

    def queue_depth(self) -> int:
        probe = self.queue_depth_probe
        return probe() if probe is not None else 0

    def latency_percentile(self, p: float) -> float:
        return self._latency.percentile(p)

    def snapshot(self) -> dict[str, float]:
        """One dict of every counter and derived rate (keys are stable
        across the registry migration — consumers pin them)."""
        latency = self._latency.snapshot()
        counters = {
            "requests": self.requests,
            "compiled": self.compiled,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "errors": self.errors,
        }
        counters["coalesce_rate"] = round(self.coalesce_rate, 4)
        counters["queue_depth"] = self.queue_depth()
        counters["latency_samples"] = latency["window_count"]
        counters["p50_ms"] = round(1e3 * latency["p50"], 3)
        counters["p99_ms"] = round(1e3 * latency["p99"], 3)
        return counters

    def __str__(self) -> str:
        snap = self.snapshot()
        return (
            f"requests={snap['requests']} compiled={snap['compiled']} "
            f"cache_hits={snap['cache_hits']} "
            f"coalesced={snap['coalesced']} rejected={snap['rejected']} "
            f"errors={snap['errors']} coalesce_rate={snap['coalesce_rate']:.1%} "
            f"queue_depth={snap['queue_depth']} "
            f"p50={snap['p50_ms']:.2f}ms p99={snap['p99_ms']:.2f}ms"
        )
