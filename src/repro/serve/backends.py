"""The on-disk store behind the compilation cache and the service.

:class:`DiskBackend` is the second layer of
:class:`~repro.compiler.cache.CompilationCache`: one JSON artifact file per
content-addressed key, published atomically, cross-process safe via an
advisory file lock around mutations, and optionally *bounded* —
``max_entries`` / ``max_bytes`` prune least-recently-used entries (by
mtime, which ``load`` refreshes) so a long-running service cannot grow the
cache directory without limit.  ``CompilerSession(cache_dir=...)``,
``repro cache`` and ``repro serve --cache-dir`` all build one.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from repro.compiler.cache import CacheEntry
from repro.compiler.program import ArtifactError, CompiledProgram
from repro.obs import get_registry

__all__ = ["DiskBackend"]

try:  # POSIX advisory locks; absent on some platforms (e.g. Windows).
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None  # type: ignore[assignment]


class DiskBackend:
    """One-artifact-file-per-key persistent store under ``directory``.

    Entry files hold the :class:`CompiledProgram` wire format verbatim
    (``<key>.json`` = ``entry.dumps()``), so a cache directory is a
    collection of portable artifacts: another process or host can load an
    entry, and ``repro run <cache-dir>/<key>.json`` works on it directly.
    Entries written by earlier layouts, corrupt files and entries filed
    under the wrong key fail validation and read as misses (the
    compilation simply reruns and overwrites them).

    Mutations (``store``, ``clear``, pruning) serialize on an advisory
    ``.lock`` file in the cache directory, so concurrent writers in
    different processes cannot interleave a prune with a publish.  Reads
    stay lock-free — entry files are published with an atomic rename, so a
    reader sees either the whole entry or nothing.

    ``max_entries`` / ``max_bytes`` bound the directory; when either limit
    is exceeded after a store, least-recently-used entries (by mtime, which
    :meth:`load` refreshes on every hit) are pruned until both hold.  The
    entry just stored is never pruned, even when it alone exceeds
    ``max_bytes`` — evicting your own publish would turn the bound into a
    cache-disable switch.
    """

    LOCK_FILENAME = ".lock"

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.directory = Path(directory)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.pruned = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    @contextmanager
    def _interprocess_lock(self) -> Iterator[None]:
        """Advisory exclusive lock scoped to the cache directory.

        Degrades to a no-op where ``fcntl`` is unavailable; the atomic
        rename in ``store`` keeps individual entries intact there, only
        prune-vs-publish races lose precision.
        """
        if fcntl is None:  # pragma: no cover - platform-dependent
            yield
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / self.LOCK_FILENAME, "a+") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def load(self, key: str) -> Optional[CacheEntry]:
        path = self.path_for(key)
        try:
            text = path.read_text()
        except (OSError, ValueError):
            # ValueError covers the UnicodeDecodeError a binary-garbage
            # entry raises from read_text().
            return None
        try:
            program = CompiledProgram.loads(text)
        except ArtifactError:
            return None
        if program.key != key:
            return None
        # Refresh recency for LRU-by-mtime pruning; best-effort (a
        # concurrent prune may have unlinked the file already).
        try:
            os.utime(path)
        except OSError:
            pass
        return program

    def store(self, key: str, entry: CacheEntry) -> None:
        if entry.key != key:
            # Stamp the content address so the stored file is self-describing
            # (and so load() can reject misfiled or renamed entries).
            entry = dataclasses.replace(entry, key=key)
        path = self.path_for(key)
        with self._interprocess_lock():
            self.directory.mkdir(parents=True, exist_ok=True)
            # Atomic publish: concurrent writers of the same key both
            # produce equivalent content, so last-rename-wins is safe.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key[:16]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(entry.dumps())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            pruned = self._prune(protect=path)
        registry = get_registry()
        registry.counter("cache.stores", tier="disk").inc()
        try:
            written = path.stat().st_size
        except OSError:
            written = 0
        if written:
            registry.counter("cache.bytes_written", tier="disk").inc(written)
        if pruned:
            registry.counter("cache.evictions", tier="disk").inc(pruned)

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def keys_by_recency(self) -> list[str]:
        """Entry keys, most recently used first (cache warm-up order)."""
        return [path.stem for _, _, path in reversed(self._entries_by_age())]

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed.

        Also sweeps ``*.tmp`` droppings left by writers that were killed
        between ``mkstemp`` and the atomic rename (not counted).
        """
        removed = 0
        with self._interprocess_lock():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.directory.glob("*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def _entries_by_age(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) per entry, oldest first; vanished files skipped."""
        records = []
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            records.append((stat.st_mtime, stat.st_size, path))
        records.sort(key=lambda record: record[0])
        return records

    def _prune(self, protect: Path) -> int:
        """Unlink oldest entries until both bounds hold (caller holds lock)."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        records = self._entries_by_age()
        total_bytes = sum(size for _, size, _ in records)
        count = len(records)
        removed = 0
        for _, size, path in records:
            over_entries = (
                self.max_entries is not None and count > self.max_entries
            )
            over_bytes = self.max_bytes is not None and total_bytes > self.max_bytes
            if not over_entries and not over_bytes:
                break
            if path == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            count -= 1
            total_bytes -= size
        self.pruned += removed
        return removed

    def stats(self) -> dict[str, object]:
        records = self._entries_by_age()
        return {
            "directory": str(self.directory),
            "entries": len(records),
            "total_bytes": sum(size for _, size, _ in records),
            "kind": "disk",
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "pruned": self.pruned,
        }
