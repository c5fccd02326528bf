"""The compilation cache's disk layer: locked, bounded, warmed, faulted."""

import os
import time

import numpy as np
import pytest

from repro.compiler.cache import (
    CacheEntry,
    CompilationCache,
    compilation_key,
)
from repro.compiler.pipeline import CompileOptions
from repro.compiler.program import CompiledProgram
from repro.compiler.selection import essential_set
from repro.compiler.session import CompilerSession
from repro.experiments.sampling import sample_instances
from repro.obs import get_registry
from repro.serve.backends import DiskBackend

from conftest import general_chain


def compiled_entry(chain, count=20, seed=0):
    rng = np.random.default_rng(seed)
    train = sample_instances(chain, count, rng)
    variants = essential_set(chain, training_instances=train)
    return CacheEntry(
        chain=chain, variants=tuple(variants), training_instances=train
    )


def entry_and_key(n=3, **options):
    entry = compiled_entry(general_chain(n))
    return entry, compilation_key(entry.chain, CompileOptions(**options))


def disk_lookups(outcome):
    return get_registry().counter("cache.lookups", tier="disk", outcome=outcome)


class TestProtocol:
    def test_custom_object_backend_works_in_compilation_cache(self):
        class DictBackend:
            def __init__(self):
                self.data = {}

            def load(self, key):
                return self.data.get(key)

            def store(self, key, entry):
                self.data[key] = entry

            def keys(self):
                return list(self.data)

            def clear(self):
                removed = len(self.data)
                self.data.clear()
                return removed

            def stats(self):
                return {"kind": "dict", "entries": len(self.data)}

        backend = DictBackend()
        cache = CompilationCache(capacity=1, backend=backend)
        entry3, key3 = entry_and_key(3)
        entry4, key4 = entry_and_key(4)
        cache.put(key3, entry3)
        cache.put(key4, entry4)  # evicts key3 from memory, not from backend
        assert key3 not in cache
        assert cache.get(key3) is not None  # served by the backend
        assert cache.stats.disk_hits == 1


class TestDiskBackend:
    def test_round_trip_and_recency_refresh(self, tmp_path):
        backend = DiskBackend(tmp_path)
        entry, key = entry_and_key(3)
        backend.store(key, entry)
        loaded = backend.load(key)
        assert loaded is not None
        assert [v.signature() for v in loaded.variants] == [
            v.signature() for v in entry.variants
        ]

    def test_max_entries_prunes_oldest_by_mtime(self, tmp_path):
        backend = DiskBackend(tmp_path, max_entries=2)
        keys = []
        for n in (2, 3, 4):
            entry, key = entry_and_key(n)
            backend.store(key, entry)
            keys.append(key)
            now = time.time()
            # Deterministic mtime spacing (filesystem clocks are coarse).
            os.utime(backend.path_for(key), (now + n, now + n))
        assert backend.load(keys[0]) is None  # oldest pruned
        assert backend.load(keys[1]) is not None
        assert backend.load(keys[2]) is not None
        assert backend.pruned == 1
        assert backend.stats()["entries"] == 2
        assert backend.stats()["max_entries"] == 2

    def test_load_refreshes_mtime_for_lru(self, tmp_path):
        backend = DiskBackend(tmp_path, max_entries=2)
        keys = []
        base = time.time() - 1000
        for i, n in enumerate((2, 3)):
            entry, key = entry_and_key(n)
            backend.store(key, entry)
            os.utime(backend.path_for(key), (base + i, base + i))
            keys.append(key)
        assert backend.load(keys[0]) is not None  # refreshes to "now"
        entry4, key4 = entry_and_key(4)
        backend.store(key4, entry4)
        assert backend.load(keys[1]) is None  # n=3 was the LRU entry
        assert backend.load(keys[0]) is not None

    def test_max_bytes_prunes_but_protects_last_store(self, tmp_path):
        probe = DiskBackend(tmp_path / "probe")
        entry, key = entry_and_key(3)
        probe.store(key, entry)
        entry_bytes = probe.path_for(key).stat().st_size

        backend = DiskBackend(tmp_path / "real", max_bytes=entry_bytes)
        keys = []
        for n in (3, 4):
            e, k = entry_and_key(n)
            backend.store(k, e)
            now = time.time()
            os.utime(backend.path_for(k), (now + n, now + n))
            keys.append(k)
        # Budget fits ~one n=3 entry: storing n=4 (larger) pruned n=3, and
        # the just-stored entry survives even though it alone exceeds the
        # budget (protecting the freshest publish).
        assert backend.load(keys[0]) is None
        assert backend.load(keys[1]) is not None
        assert backend.pruned >= 1

    def test_bound_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DiskBackend(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            DiskBackend(tmp_path, max_bytes=0)

    def test_truncated_entry_is_a_miss_that_recompiles_and_overwrites(
        self, tmp_path
    ):
        chain = general_chain(4)
        CompilerSession(cache_dir=tmp_path).compile(chain, num_training_instances=20)
        backend = DiskBackend(tmp_path)
        (key,) = backend.keys()
        path = backend.path_for(key)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        misses = disk_lookups("miss").value

        session = CompilerSession(cache_backend=backend)
        session.compile(chain, num_training_instances=20)
        stats = session.cache_stats()
        assert stats.disk_hits == 0 and stats.misses == 1
        assert disk_lookups("miss").value == misses + 1
        assert "enumerate" not in session.last_context.skipped  # recompiled
        assert stats.disk_writes == 1
        assert CompiledProgram.load(path).key == key

    def test_lock_file_not_counted_as_entry(self, tmp_path):
        backend = DiskBackend(tmp_path)
        entry, key = entry_and_key(3)
        backend.store(key, entry)
        assert (tmp_path / DiskBackend.LOCK_FILENAME).exists()
        assert backend.stats()["entries"] == 1
        assert backend.keys() == [key]
        assert backend.clear() == 1

    def test_concurrent_writers_from_processes(self, tmp_path):
        """Two real processes storing + pruning concurrently stay consistent."""
        import subprocess
        import sys
        import textwrap

        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, {src!r})
            from repro.compiler.cache import compilation_key
            from repro.compiler.pipeline import CompileOptions
            from repro.compiler.session import CompilerSession
            from repro.serve.backends import DiskBackend
            from repro.ir.chain import Chain
            from repro.ir.matrix import Matrix

            seed = int(sys.argv[1])
            backend = DiskBackend({cache_dir!r}, max_entries=3)
            session = CompilerSession(cache_backend=backend)
            for n in (2, 3, 4, 5):
                chain = Chain(tuple(
                    Matrix(f"P{{seed}}_{{n}}_{{i}}").as_operand()
                    for i in range(n)
                ))
                session.compile(chain, num_training_instances=15)
            print(session.cache_stats().disk_errors)
            """
        ).format(src=src_dir, cache_dir=str(tmp_path))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(i)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for i in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "0"  # no disk write errors in either process
        backend = DiskBackend(tmp_path, max_entries=3)
        assert backend.stats()["entries"] <= 3
        # Every surviving entry is loadable (no torn writes).
        for key in backend.keys():
            assert backend.load(key) is not None


class TestWarmup:
    def test_session_warm_preloads_memory_lru(self, tmp_path):
        chain = general_chain(4)
        CompilerSession(cache_dir=tmp_path).compile(
            chain, num_training_instances=20
        )
        fresh = CompilerSession(cache_dir=tmp_path)
        assert fresh.warm() == 1
        # The warmed entry is a *memory* hit: no disk access on the compile.
        fresh.compile(chain, num_training_instances=20)
        stats = fresh.cache_stats()
        assert stats.hits == 1 and stats.disk_hits == 0
        assert "enumerate" in fresh.last_context.skipped

    def test_warm_respects_limit_and_capacity(self, tmp_path):
        seeder = CompilerSession(cache_dir=tmp_path)
        for n in (2, 3, 4, 5):
            seeder.compile(general_chain(n), num_training_instances=15)
        assert CompilerSession(cache_dir=tmp_path).warm(limit=2) == 2
        tiny = CompilerSession(cache_dir=tmp_path, cache_capacity=3)
        assert tiny.warm() == 3  # capped by the LRU capacity
        assert CompilerSession(cache_dir=tmp_path).warm() == 4

    def test_warm_prefers_hottest_entries(self, tmp_path):
        backend = DiskBackend(tmp_path)
        seeder = CompilerSession(cache_backend=backend)
        keys = {}
        for n in (2, 3, 4):
            seeder.compile(general_chain(n), num_training_instances=15)
        base = time.time() - 100
        for age, key in enumerate(sorted(backend.keys())):
            os.utime(backend.path_for(key), (base + age, base + age))
            keys[age] = key
        hottest = backend.keys_by_recency()[0]
        warm_session = CompilerSession(cache_backend=backend, cache_capacity=1)
        assert warm_session.warm() == 1
        assert hottest in warm_session.cache

    def test_warm_is_not_counted_as_disk_traffic(self, tmp_path):
        seeder = CompilerSession(cache_dir=tmp_path)
        for n in (2, 3):
            seeder.compile(general_chain(n), num_training_instances=15)
        hits = disk_lookups("hit").value
        assert CompilerSession(cache_dir=tmp_path).warm() == 2
        assert disk_lookups("hit").value == hits
        # A get served from disk counts exactly once.
        cold = CompilerSession(cache_dir=tmp_path)
        cold.compile(general_chain(2), num_training_instances=15)
        assert cold.cache_stats().disk_hits == 1
        assert disk_lookups("hit").value == hits + 1

    def test_warm_without_backend_is_zero(self):
        assert CompilerSession().warm() == 0

    def test_warm_skips_corrupt_entries(self, tmp_path):
        session = CompilerSession(cache_dir=tmp_path)
        session.compile(general_chain(3), num_training_instances=15)
        (tmp_path / "corrupt.json").write_text("{not json")
        fresh = CompilerSession(cache_dir=tmp_path)
        assert fresh.warm() == 1
        assert fresh.cache_stats().disk_errors == 1

    def test_warm_never_evicts_the_live_working_set(self, tmp_path):
        """Re-warming a busy session must not displace hot memory entries."""
        seeder = CompilerSession(cache_dir=tmp_path)
        for n in (2, 3, 4, 5):
            seeder.compile(general_chain(n), num_training_instances=15)

        live = CompilerSession(cache_dir=tmp_path, cache_capacity=2)
        live.compile(general_chain(6), num_training_instances=15)  # hot entry
        assert live.warm() == 1  # only one free slot to fill
        # The hot entry survived, and the next compile of it is a pure
        # memory hit (warm inserted *below* it, not on top of it).
        live.compile(general_chain(6), num_training_instances=15)
        assert live.cache_stats().hits == 1
        assert live.cache_stats().evictions == 0
        # A full cache warms nothing at all.
        assert live.warm() == 0

    def test_warm_is_idempotent(self, tmp_path):
        session = CompilerSession(cache_dir=tmp_path)
        session.compile(general_chain(3), num_training_instances=15)
        fresh = CompilerSession(cache_dir=tmp_path)
        assert fresh.warm() == 1
        assert fresh.warm() == 0  # already in memory
