"""On-disk cache for the ``c`` backend's compiled native code.

The ``c`` execution backend replays every plan through one native step
interpreter, a CPython extension compiled from a fixed C source.
Compilation is the only expensive part (a few hundred milliseconds, once,
vs microseconds to load), so the shared object is content-addressed on
disk — keyed by a digest of the source plus the interpreter ABI tag.
Plans never reach the key: packing a plan for new sizes needs no
compiler.  A warm deployment therefore never re-invokes the compiler: the
second process finds ``<key>.so`` and loads it directly (asserted by the
CI bench via the ``runtime.codegen_cache`` counters).

The directory holds one ``<key>.so`` / ``<key>.c`` pair per interpreter
source revision and Python ABI — some tens of KB each — so it needs no
size bound; ``repro cache clear`` empties it.  Publication is atomic (temp
file + ``os.replace``), so concurrent processes compiling the same source
race harmlessly — one byte-identical object wins.

``$REPRO_CODEGEN_CACHE_DIR`` / ``--codegen-cache-dir`` relocate the
directory (default ``~/.cache/repro-codegen``).
``repro cache stats`` reports this tier alongside the compilation cache,
and the ``codegen`` collector scope exposes the same numbers through the
process-wide metrics registry.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Optional

from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.backends.toolchain import Toolchain

__all__ = [
    "CodegenCache",
    "configure_codegen_cache",
    "get_codegen_cache",
]


def _default_directory() -> str:
    env = os.environ.get("REPRO_CODEGEN_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-codegen")


class CodegenCache:
    """Content-addressed ``<key>.c`` / ``<key>.so`` pairs.

    The ``.c`` source is kept beside the object purely as a debugging
    artifact (and is cleared together with it); correctness only needs the
    ``.so``.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = os.path.abspath(directory or _default_directory())
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self._lock = threading.Lock()

    # -- the one entry point the backend uses --------------------------------

    def shared_object(
        self, key: str, source: str, toolchain: "Toolchain"
    ) -> str:
        """The compiled shared object for ``key``, compiling on a miss.

        Raises :class:`~repro.runtime.backends.toolchain.ToolchainError`
        when the compiler rejects the source (the backend turns that into
        a counted fallback, never a user-facing failure).
        """
        registry = get_registry()
        so_path = os.path.join(self.directory, f"{key}.so")
        with self._lock:
            if os.path.isfile(so_path):
                self.hits += 1
                registry.counter("runtime.codegen_cache", outcome="hit").inc()
                return so_path
            self.misses += 1
            registry.counter("runtime.codegen_cache", outcome="miss").inc()
            os.makedirs(self.directory, exist_ok=True)
            try:
                with open(
                    os.path.join(self.directory, f"{key}.c"), "w"
                ) as handle:
                    handle.write(source)
            except OSError:
                pass  # the source is a debugging aid, not a dependency
            fd, tmp_src = tempfile.mkstemp(
                suffix=".c", prefix=f".{key}.", dir=self.directory
            )
            tmp_so = tmp_src[:-2] + ".so"
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(source)
                start = time.perf_counter()
                toolchain.compile_shared(tmp_src, tmp_so)
                elapsed = time.perf_counter() - start
                # Atomic publish: a concurrent process compiling the same
                # key replaces the file with identical bytes.
                os.replace(tmp_so, so_path)
            finally:
                for leftover in (tmp_src, tmp_so):
                    try:
                        os.unlink(leftover)
                    except OSError:
                        pass
            self.compiles += 1
            registry.counter("runtime.codegen_compiles").inc()
            registry.histogram(
                "runtime.codegen_seconds", stage="compile"
            ).observe(elapsed)
        return so_path

    # -- bookkeeping ----------------------------------------------------------

    def _records(self) -> list[tuple[str, int]]:
        """``(key, bytes)`` per cached object, source bytes folded into its
        object's record so a pair counts as one entry."""
        records: list[tuple[str, int]] = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return records
        for name in names:
            if not name.endswith(".so") or name.startswith("."):
                continue
            key = name[:-3]
            so_path = os.path.join(self.directory, name)
            try:
                size = os.path.getsize(so_path)
            except OSError:
                continue
            try:
                size += os.path.getsize(
                    os.path.join(self.directory, f"{key}.c")
                )
            except OSError:
                pass
            records.append((key, size))
        return records

    def _unlink_pair(self, key: str) -> None:
        for suffix in (".so", ".c"):
            try:
                os.unlink(os.path.join(self.directory, key + suffix))
            except OSError:
                pass

    def clear(self) -> int:
        """Remove every cached object; returns the number removed."""
        with self._lock:
            records = self._records()
            for key, _ in records:
                self._unlink_pair(key)
            return len(records)

    def stats(self) -> dict[str, object]:
        records = self._records()
        return {
            "directory": self.directory,
            "entries": len(records),
            "total_bytes": sum(size for _, size in records),
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
        }


# ---------------------------------------------------------------------------
# Process-wide singleton (one directory, one set of counters).
# ---------------------------------------------------------------------------

_cache: Optional[CodegenCache] = None
_cache_lock = threading.Lock()


def get_codegen_cache() -> CodegenCache:
    """The process-wide codegen cache (created lazily from the env)."""
    global _cache
    with _cache_lock:
        if _cache is None:
            _cache = CodegenCache()
        return _cache


def configure_codegen_cache(directory: Optional[str] = None) -> CodegenCache:
    """Point the process-wide cache somewhere else (CLI knobs, tests)."""
    global _cache
    with _cache_lock:
        _cache = CodegenCache(directory=directory)
        return _cache


def _codegen_snapshot() -> dict[str, object]:
    with _cache_lock:
        cache = _cache
    if cache is None:
        return {"configured": False}
    snapshot: dict[str, object] = {"configured": True}
    snapshot.update(cache.stats())
    return snapshot


get_registry().register_collector("codegen", _codegen_snapshot)
