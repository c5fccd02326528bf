"""The content-addressed compilation cache: LRU, disk layer, rebinding."""

import json

import numpy as np
import pytest

from repro.codegen import serialize
from repro.compiler.cache import (
    CacheEntry,
    CompilationCache,
    compilation_key,
    rebind_variants,
)
from repro.compiler.program import CompiledProgram
from repro.compiler.pipeline import CompileOptions
from repro.compiler.selection import essential_set
from repro.experiments.sampling import sample_instances
from repro.serve.backends import DiskBackend

from conftest import general_chain, make_general, make_lower


def compiled_entry(chain, count=30, seed=0):
    rng = np.random.default_rng(seed)
    train = sample_instances(chain, count, rng)
    variants = essential_set(chain, training_instances=train)
    return CacheEntry(
        chain=chain, variants=tuple(variants), training_instances=train
    )


class TestCompilationKey:
    def test_isomorphic_chains_share_keys(self):
        options = CompileOptions()
        a = make_general("A") * make_lower("L").inv
        b = make_general("X") * make_lower("Y").inv
        assert compilation_key(a, options) == compilation_key(b, options)

    def test_options_change_key(self):
        chain = general_chain(3)
        base = CompileOptions()
        assert compilation_key(chain, base) != compilation_key(
            chain, CompileOptions(expand_by=1)
        )
        assert compilation_key(chain, base) != compilation_key(
            chain, CompileOptions(seed=1)
        )
        assert compilation_key(chain, base) != compilation_key(
            chain, CompileOptions(objective="max")
        )
        assert compilation_key(chain, base) != compilation_key(
            chain, CompileOptions(training_fingerprint="abc")
        )


class TestRebinding:
    def test_rebind_to_renamed_chain(self):
        chain = make_general("A") * make_general("B") * make_general("C")
        entry = compiled_entry(chain)
        renamed = make_general("X") * make_general("Y") * make_general("Z")
        variants, train = rebind_variants(entry, renamed)
        assert [v.signature() for v in variants] == [
            v.signature() for v in entry.variants
        ]
        assert all(v.chain is renamed for v in variants)
        np.testing.assert_array_equal(train, entry.training_instances)
        # The returned training set is a defensive copy.
        train[0, 0] = -1
        assert entry.training_instances[0, 0] != -1

    def test_rebind_rejects_different_structure(self):
        entry = compiled_entry(general_chain(3))
        with pytest.raises(ValueError):
            rebind_variants(entry, general_chain(4))


class TestLRU:
    def test_hit_and_miss_counters(self):
        cache = CompilationCache(capacity=4)
        entry = compiled_entry(general_chain(3))
        key = compilation_key(entry.chain, CompileOptions())
        assert cache.get(key) is None
        cache.put(key, entry)
        assert cache.get(key) is entry
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = CompilationCache(capacity=2)
        entries = {}
        for n in (2, 3, 4):
            entry = compiled_entry(general_chain(n))
            key = compilation_key(entry.chain, CompileOptions())
            entries[n] = key
            cache.put(key, entry)
        # Capacity 2: the n=2 entry (least recently used) was evicted.
        assert cache.stats.evictions == 1
        assert entries[2] not in cache
        assert entries[3] in cache and entries[4] in cache

    def test_get_refreshes_recency(self):
        cache = CompilationCache(capacity=2)
        keys = []
        for n in (2, 3):
            entry = compiled_entry(general_chain(n))
            key = compilation_key(entry.chain, CompileOptions())
            keys.append(key)
            cache.put(key, entry)
        cache.get(keys[0])  # n=2 becomes most recent
        entry4 = compiled_entry(general_chain(4))
        cache.put(compilation_key(entry4.chain, CompileOptions()), entry4)
        assert keys[0] in cache and keys[1] not in cache

    def test_clear_resets_entries_and_stats(self):
        cache = CompilationCache(capacity=2)
        entry = compiled_entry(general_chain(3))
        key = compilation_key(entry.chain, CompileOptions())
        cache.put(key, entry)
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CompilationCache(capacity=0)


class TestDiskLayer:
    def test_round_trip_through_serialize(self, tmp_path):
        chain = make_general("A") * make_lower("L").inv * make_general("B")
        entry = compiled_entry(chain)
        disk = DiskBackend(tmp_path)
        disk.store("k" * 64, entry)

        # The stored file is a verbatim CompiledProgram artifact whose
        # "program" object embeds the serialize.dumps format.
        payload = json.loads(disk.path_for("k" * 64).read_text())
        loaded_chain, loaded_variants = serialize.loads(
            json.dumps(payload["program"])
        )
        assert loaded_chain == chain
        assert [v.signature() for v in loaded_variants] == [
            v.signature() for v in entry.variants
        ]
        # ... and is directly loadable as a portable artifact.
        program = CompiledProgram.load(disk.path_for("k" * 64))
        assert program.key == "k" * 64
        assert program.chain == chain

        restored = disk.load("k" * 64)
        assert restored is not None
        assert restored.chain == chain
        np.testing.assert_array_equal(
            restored.training_instances, entry.training_instances
        )

    def test_load_missing_returns_none(self, tmp_path):
        assert DiskBackend(tmp_path).load("absent") is None

    def test_load_rejects_corrupt_payload(self, tmp_path):
        disk = DiskBackend(tmp_path)
        disk.directory.mkdir(parents=True, exist_ok=True)
        disk.path_for("bad").write_text("{not json")
        assert disk.load("bad") is None
        disk.path_for("wrongkey").write_text(
            json.dumps({"disk_format_version": 1, "key": "other"})
        )
        assert disk.load("wrongkey") is None
        # Valid JSON that is not an object is also a miss, not a crash.
        disk.path_for("nondict").write_text("null")
        assert disk.load("nondict") is None
        disk.path_for("listpayload").write_text("[1, 2]")
        assert disk.load("listpayload") is None
        # Binary garbage (non-UTF-8) is a miss too.
        disk.path_for("binary").write_bytes(b"\xff\xfe garbage \x00")
        assert disk.load("binary") is None

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        disk = DiskBackend(tmp_path)
        entry = compiled_entry(general_chain(3))
        disk.store("a" * 64, entry)
        orphan = tmp_path / (".deadbeef.xyz.tmp")
        orphan.write_text("interrupted writer dropping")
        assert disk.clear() == 1  # tmp sweep is not counted as an entry
        assert not orphan.exists()

    def test_stats_tolerates_vanishing_files(self, tmp_path):
        disk = DiskBackend(tmp_path)
        entry = compiled_entry(general_chain(3))
        disk.store("a" * 64, entry)
        # A dangling .json symlink models a file unlinked between the
        # glob and the stat (concurrent `cache clear`).
        (tmp_path / ("b" * 64 + ".json")).symlink_to(tmp_path / "gone.json")
        stats = disk.stats()
        assert stats["entries"] == 1 and stats["total_bytes"] > 0

    def test_stats_and_clear(self, tmp_path):
        disk = DiskBackend(tmp_path)
        entry = compiled_entry(general_chain(3))
        disk.store("a" * 64, entry)
        disk.store("b" * 64, entry)
        stats = disk.stats()
        assert stats["entries"] == 2 and stats["total_bytes"] > 0
        assert disk.keys() == sorted(["a" * 64, "b" * 64])
        assert disk.clear() == 2
        assert disk.stats()["entries"] == 0

    def test_unwritable_disk_layer_does_not_fail_put(self, tmp_path):
        blocker = tmp_path / "notadir"
        blocker.write_text("I am a file, not a cache directory")
        cache = CompilationCache(capacity=4, backend=DiskBackend(blocker))
        entry = compiled_entry(general_chain(3))
        key = compilation_key(entry.chain, CompileOptions())
        cache.put(key, entry)  # must not raise
        assert cache.stats.disk_errors == 1
        assert cache.stats.disk_writes == 0
        assert cache.get(key) is entry  # memory layer still serves it

    def test_memory_cache_falls_through_to_disk(self, tmp_path):
        entry = compiled_entry(general_chain(3))
        key = compilation_key(entry.chain, CompileOptions())

        writer = CompilationCache(capacity=4, backend=DiskBackend(tmp_path))
        writer.put(key, entry)
        assert writer.stats.disk_writes == 1

        # A fresh cache (cold memory) finds the entry on disk.
        reader = CompilationCache(capacity=4, backend=DiskBackend(tmp_path))
        restored = reader.get(key)
        assert restored is not None
        assert reader.stats.disk_hits == 1
        assert [v.signature() for v in restored.variants] == [
            v.signature() for v in entry.variants
        ]
        # Promoted into memory: the next get is a pure memory hit.
        reader.get(key)
        assert reader.stats.hits == 2 and reader.stats.disk_hits == 1
