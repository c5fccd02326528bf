"""Content-addressed compilation cache (memory LRU + optional disk layer).

Compilation is deterministic but expensive (Catalan-many variants scored on
a training set), and it depends only on the chain's *structure* — features,
operators, and the size-sharing pattern — plus the
:class:`~repro.compiler.pipeline.CompileOptions`.  The cache keys entries by
the SHA-256 of that pair (:mod:`repro.ir.structural`), so structurally
identical chains compile once; a hit under a renamed-but-isomorphic chain
rebinds the cached variants to the new chain, which is sound because variant
steps reference operands by position, never by name.

Two layers:

* an in-memory LRU (``capacity`` entries, thread-safe) for the hot path;
* an optional on-disk layer, a :class:`~repro.serve.backends.DiskBackend`
  (one JSON file per key, written atomically, optionally bounded) whose
  entries are verbatim :class:`~repro.compiler.program.CompiledProgram`
  artifacts — portable across processes and hosts, loadable by ``repro
  run`` directly, the moral equivalent of a shared build cache for the
  generated C++.

The entry type *is* the artifact: :data:`CacheEntry` aliases
:class:`~repro.compiler.program.CompiledProgram` (the historical
``chain``/``variants``/``training_instances`` triple, now carrying
provenance too), so everything the cache stores can cross the wire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.backends import DiskBackend

import numpy as np

from repro.ir.chain import Chain
from repro.ir.structural import structural_key
from repro.compiler.pipeline import CompileOptions
from repro.compiler.program import CompiledProgram
from repro.compiler.variant import Variant
from repro.obs import get_registry


@dataclass
class CacheStats:
    """Counters exposed through ``CompilerSession.cache_stats()``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    disk_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "disk_errors": self.disk_errors,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __str__(self) -> str:
        text = (
            f"hits={self.hits} misses={self.misses} evictions={self.evictions} "
            f"disk_hits={self.disk_hits} disk_writes={self.disk_writes} "
            f"hit_rate={self.hit_rate:.1%}"
        )
        if self.disk_errors:
            text += f" disk_errors={self.disk_errors}"
        return text


#: One compiled structure.  The entry type is the compilation artifact
#: itself — construct it with the historical keyword triple
#: (``chain``/``variants``/``training_instances``) or via
#: :meth:`CompiledProgram.from_artifacts` for full provenance.
CacheEntry = CompiledProgram


def compilation_key(
    chain: Chain, options: CompileOptions, pipeline_fingerprint: str = ""
) -> str:
    """Content address of one (structure, options, pipeline) compilation."""
    token = (structural_key(chain), options.cache_token(), pipeline_fingerprint)
    return hashlib.sha256(repr(token).encode()).hexdigest()


def rebind_variants(
    entry: CacheEntry, chain: Chain
) -> tuple[list[Variant], np.ndarray]:
    """Re-target cached variants at an isomorphic chain.

    Steps and fix-ups reference operands positionally, so only the ``chain``
    field changes; fresh :class:`Variant` objects keep cache entries immune
    to caller-side mutation.  The training instances are copied for the
    same reason.
    """
    if structural_key(entry.chain) != structural_key(chain):
        raise ValueError(
            "cache entry is for a structurally different chain "
            f"({entry.chain} vs {chain})"
        )
    variants = [dataclasses.replace(v, chain=chain) for v in entry.variants]
    return variants, np.array(entry.training_instances, copy=True)


# ---------------------------------------------------------------------------
# Two-layer cache.
# ---------------------------------------------------------------------------


class CompilationCache:
    """Thread-safe LRU over :class:`CacheEntry`, with backend fall-through.

    ``get`` consults memory first, then the second-layer *backend*
    (promoting backend hits into memory); ``put`` writes both layers.  All
    counters live in :class:`CacheStats`.

    The second layer is ``backend``: normally a
    :class:`~repro.serve.backends.DiskBackend`, though any object with its
    ``load``/``store``/``keys``/``clear``/``stats`` methods works (warm-up
    also needs ``keys_by_recency``).  The ``disk_*`` stats counters and the
    ``cache.lookups{tier=disk}`` registry counter cover that layer.
    """

    def __init__(
        self,
        capacity: int = 128,
        backend: Optional["DiskBackend"] = None,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.backend = backend
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    def key(
        self,
        chain: Chain,
        options: CompileOptions,
        pipeline_fingerprint: str = "",
    ) -> str:
        return compilation_key(chain, options, pipeline_fingerprint)

    def get(self, key: str) -> Optional[CacheEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
        if self.backend is not None:
            entry = self.backend.load(key)
            outcome = "hit" if entry is not None else "miss"
            get_registry().counter(
                "cache.lookups", tier="disk", outcome=outcome
            ).inc()
            if entry is not None:
                with self._lock:
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    self._insert(key, entry)
                return entry
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            self._insert(key, entry)
        if self.backend is not None:
            # A broken disk layer (unwritable path, --cache-dir pointing at
            # a file, full disk, an unserializable custom variant) must not
            # fail the compilation it caches.
            try:
                self.backend.store(key, entry)
            except Exception:
                with self._lock:
                    self.stats.disk_errors += 1
            else:
                with self._lock:
                    self.stats.disk_writes += 1

    def _insert(self, key: str, entry: CacheEntry) -> None:
        # Caller holds the lock.
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def warm(self, limit: Optional[int] = None) -> int:
        """Preload backend entries into the in-memory LRU, hottest first.

        Returns the number of entries loaded.  Warm-up only fills *free*
        LRU capacity and inserts below the live entries (each warmed entry
        is marked less recent than everything already in memory), so
        re-warming a busy service can never evict its hot working set in
        favour of disk-resident cold entries.  ``limit`` caps the count
        further; entries that fail to load (corrupt, version-mismatched,
        concurrently pruned) are skipped and counted in
        ``stats.disk_errors``.  Warm-up does not touch the hit/miss
        counters — it is provisioning, not traffic.
        """
        if self.backend is None:
            return 0
        with self._lock:
            budget = self.capacity - len(self._entries)
        if limit is not None:
            budget = min(limit, budget)
        if budget <= 0:
            return 0
        warmed = 0
        # Hottest-first iteration + insert-at-the-cold-end means the
        # hottest warmed entry sits closest to (but still below) the live
        # set, and recency among warmed entries matches the backend's.
        for key in self.backend.keys_by_recency():
            if warmed >= budget:
                break
            with self._lock:
                if key in self._entries:
                    continue
            entry = self.backend.load(key)
            if entry is None:
                with self._lock:
                    self.stats.disk_errors += 1
                continue
            with self._lock:
                if key in self._entries:  # raced with a concurrent put
                    continue
                if len(self._entries) >= self.capacity:
                    break  # concurrent traffic used up the free slots
                self._entries[key] = entry
                self._entries.move_to_end(key, last=False)
            warmed += 1
        return warmed

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer (and the backend layer when ``disk=True``)."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()
        if disk and self.backend is not None:
            self.backend.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
