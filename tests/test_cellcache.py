"""Tests for the content-addressed sweep cell cache.

Unit level: hit/miss accounting, key sensitivity (kwargs, config defaults,
schema version, code fingerprint, telemetry flag), corrupt-entry recovery
and atomic writes.  System level: the golden-trace scenarios run through a
cached sweep must be byte-identical between the cold (computed) and warm
(restored) pass — proving the cache is a pure observer.
"""

import logging
import os
import pickle

import pytest

from repro.sim import cellcache
from repro.sim.cellcache import MISS, CellCache, code_fingerprint
from repro.sim.parallel import sweep, sweep_cells


def plain_cell(x, y=1):
    return {"sum": x + y}


def golden_cell(cc, scenario):
    """One golden-trace scenario as a sweep cell (see test_golden_traces)."""
    from tests.test_golden_traces import SCENARIOS, run_scenario

    return run_scenario(cc, SCENARIOS[scenario])


class TestKeys:
    def test_key_is_stable(self, tmp_path):
        cache = CellCache(tmp_path)
        a = cache.key_for(plain_cell, {"x": 1})
        b = cache.key_for(plain_cell, {"x": 1})
        assert a == b and len(a) == 64

    def test_key_covers_kwargs(self, tmp_path):
        cache = CellCache(tmp_path)
        assert (cache.key_for(plain_cell, {"x": 1})
                != cache.key_for(plain_cell, {"x": 2}))

    def test_key_covers_function(self, tmp_path):
        cache = CellCache(tmp_path)
        assert (cache.key_for(plain_cell, {"x": 1})
                != cache.key_for(golden_cell, {"x": 1}))

    def test_key_covers_telemetry_flag(self, tmp_path):
        """Entries recorded without telemetry must not satisfy an
        instrumented run (the cached value would lack the shipped bundle)."""
        cache = CellCache(tmp_path)
        assert (cache.key_for(plain_cell, {"x": 1}, telemetry=False)
                != cache.key_for(plain_cell, {"x": 1}, telemetry=True))

    def test_key_covers_schema_version(self, tmp_path, monkeypatch):
        cache = CellCache(tmp_path)
        before = cache.key_for(plain_cell, {"x": 1})
        monkeypatch.setattr(cellcache, "SCHEMA", cellcache.SCHEMA + 1)
        assert cache.key_for(plain_cell, {"x": 1}) != before

    def test_key_covers_code_fingerprint(self, tmp_path, monkeypatch):
        cache = CellCache(tmp_path)
        before = cache.key_for(plain_cell, {"x": 1})
        monkeypatch.setattr(cellcache, "_fingerprint", "deadbeefdeadbeef")
        assert cache.key_for(plain_cell, {"x": 1}) != before

    def test_key_covers_config_defaults(self, tmp_path):
        """Cell kwargs overriding SimConfig fields change the resolved
        config part of the key even though the kwargs part would too; a
        kwarg that matches no config field still changes the key."""
        cache = CellCache(tmp_path)
        keys = {
            cache.key_for(plain_cell, {"n": 16}),
            cache.key_for(plain_cell, {"n": 64}),
            cache.key_for(plain_cell, {"unrelated": 3}),
            cache.key_for(plain_cell, {}),
        }
        assert len(keys) == 4

    def test_code_fingerprint_memoized(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestHitMiss:
    def test_roundtrip(self, tmp_path):
        cache = CellCache(tmp_path)
        key = cache.key_for(plain_cell, {"x": 1})
        assert cache.get(key) is MISS
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert cache.stats() == {"hits": 1, "misses": 1, "writes": 1}

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        key = cache.key_for(plain_cell, {"x": 1})
        cache.put(key, None)
        assert cache.get(key) is None
        assert cache.hits == 1

    def test_version_bump_invalidates_stored_entry(self, tmp_path,
                                                   monkeypatch):
        """An entry written under an older schema is a miss and is removed."""
        cache = CellCache(tmp_path)
        key = cache.key_for(plain_cell, {"x": 1})
        cache.put(key, {"answer": 42})
        monkeypatch.setattr(cellcache, "SCHEMA", cellcache.SCHEMA + 1)
        assert cache.get(key) is MISS
        assert not cache._path(key).exists()

    def test_corrupt_entry_recovers(self, tmp_path, caplog):
        cache = CellCache(tmp_path)
        key = cache.key_for(plain_cell, {"x": 1})
        cache._path(key).write_bytes(b"this is not a pickle")
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert cache.get(key) is MISS
        assert not cache._path(key).exists()
        # the self-heal says what it swallowed, once
        (record,) = caplog.records
        assert record.name == "repro.cache"
        assert str(cache._path(key)) in record.getMessage()
        assert "UnpicklingError" in record.getMessage()
        # and the slot is immediately writable again
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}

    def test_truncated_entry_recovers(self, tmp_path):
        """A simulated torn write (partial pickle) is a miss, not a crash."""
        cache = CellCache(tmp_path)
        key = cache.key_for(plain_cell, {"x": 1})
        cache.put(key, {"answer": list(range(1000))})
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:20])
        assert cache.get(key) is MISS
        assert not path.exists()

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """An entry stored under a foreign key (e.g. a renamed file) never
        satisfies a lookup — the key inside the entry must match."""
        cache = CellCache(tmp_path)
        key_a = cache.key_for(plain_cell, {"x": 1})
        key_b = cache.key_for(plain_cell, {"x": 2})
        cache.put(key_a, {"answer": 42})
        os.replace(cache._path(key_a), cache._path(key_b))
        assert cache.get(key_b) is MISS

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        cache = CellCache(tmp_path)
        for x in range(5):
            cache.put(cache.key_for(plain_cell, {"x": x}), x)
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []
        assert len(list(tmp_path.glob("*.pkl"))) == 5

    def test_failed_write_cleans_its_tmp_file(self, tmp_path):
        cache = CellCache(tmp_path)
        key = cache.key_for(plain_cell, {"x": 1})
        with pytest.raises(Exception):
            cache.put(key, lambda: None)  # unpicklable
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get(key) is MISS


class TestDefaultCache:
    def test_install_and_restore(self, tmp_path):
        cache = CellCache(tmp_path)
        previous = cellcache.set_default_cache(cache)
        try:
            assert cellcache.default_cache() is cache
            # sweep picks the ambient default up with no explicit cache=
            assert sweep(plain_cell, [{"x": 1}], workers=1) == [{"sum": 2}]
            assert cache.writes == 1
            assert sweep(plain_cell, [{"x": 1}], workers=1) == [{"sum": 2}]
            assert cache.hits == 1
        finally:
            cellcache.set_default_cache(previous)

    def test_directory_path_accepted(self, tmp_path):
        out = sweep(plain_cell, [{"x": 3}], workers=1,
                    cache=tmp_path / "cells")
        assert out == [{"sum": 4}]
        assert list((tmp_path / "cells").glob("*.pkl"))


class TestSweepIntegration:
    def test_warm_sweep_marks_cached(self, tmp_path):
        cache = CellCache(tmp_path)
        grid = [{"x": i} for i in range(3)]
        cold = sweep_cells(plain_cell, grid, workers=1, cache=cache)
        warm = sweep_cells(plain_cell, grid, workers=1, cache=cache)
        assert not any(o.cached for o in cold)
        assert all(o.cached for o in warm)
        assert [o.value for o in warm] == [o.value for o in cold]
        assert cache.stats() == {"hits": 3, "misses": 3, "writes": 3}

    def test_parallel_cold_then_warm(self, tmp_path):
        cache = CellCache(tmp_path)
        grid = [{"x": i} for i in range(4)]
        cold = sweep(plain_cell, grid, workers=2, cache=cache)
        warm = sweep(plain_cell, grid, workers=2, cache=cache)
        assert warm == cold == [{"sum": i + 1} for i in range(4)]
        # the pool writes happen in the parent after reassembly, so the
        # warm pass must hit every cell
        assert cache.hits == 4

    def test_golden_traces_through_cache_byte_identical(self, tmp_path):
        """Cold (computed) and warm (restored) golden cells are
        byte-identical — pickle-level, not just equal — and match the
        recorded goldens, proving the cache is a pure observer."""
        from tests.test_golden_traces import _load_goldens

        cache = CellCache(tmp_path)
        grid = [
            {"cc": "none", "scenario": "n16_seed1"},
            {"cc": "hbh+spray", "scenario": "n16_seed1"},
        ]
        cold = sweep_cells(golden_cell, grid, workers=1, cache=cache)
        warm = sweep_cells(golden_cell, grid, workers=1, cache=cache)
        goldens = _load_goldens()
        for cell, outcome in zip(grid, cold):
            assert outcome.value == goldens[cell["scenario"]][cell["cc"]]
        for a, b in zip(cold, warm):
            assert pickle.dumps(a.value) == pickle.dumps(b.value)
            assert a.digests == b.digests
        assert all(o.cached for o in warm)
        assert not any(o.cached for o in cold)
