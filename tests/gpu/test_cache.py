"""The set-associative L2 model."""

import random

import pytest

from repro.gpu.cache import CacheStats, SetAssociativeCache


class TestGeometry:
    def test_size_roundtrip(self):
        cache = SetAssociativeCache(768, line_bytes=128, assoc=16)
        assert cache.size_kib == 768
        assert cache.n_sets == 768 * 1024 // (128 * 16)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0)
        with pytest.raises(ValueError):
            SetAssociativeCache(7, line_bytes=100, assoc=3)  # not divisible


class TestBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = SetAssociativeCache(64)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(64)  # same 128 B line

    def test_sequential_scan_misses_once_per_line(self):
        cache = SetAssociativeCache(512, line_bytes=128)
        n = 8192
        for addr in range(n):
            cache.access(addr)
        assert cache.stats.misses == n // 128
        assert cache.stats.hits == n - n // 128
        assert cache.stats.hit_rate > 0.99

    def test_capacity_eviction(self):
        cache = SetAssociativeCache(4, line_bytes=128, assoc=2)  # 4 KiB
        lines = 4 * 1024 // 128
        # Touch twice the capacity, then rescan: everything was evicted.
        for i in range(2 * lines):
            cache.access(i * 128)
        cache.stats = CacheStats()
        for i in range(lines):
            cache.access(i * 128)
        assert cache.stats.misses == lines

    def test_lru_within_set(self):
        cache = SetAssociativeCache(4, line_bytes=128, assoc=2)
        sets = cache.n_sets
        a, b, c = 0, sets * 128, 2 * sets * 128  # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(a)      # a is now MRU
        cache.access(c)      # evicts b (LRU)
        cache.stats = CacheStats()
        cache.access(a)
        cache.access(c)
        assert cache.stats.misses == 0
        cache.access(b)
        assert cache.stats.misses == 1

    def test_multi_line_access(self):
        cache = SetAssociativeCache(64, line_bytes=128)
        assert not cache.access(100, size=100)  # spans two lines
        assert cache.stats.misses == 2
        assert cache.access(100, size=100)

    def test_flush(self):
        cache = SetAssociativeCache(64)
        cache.access(0)
        cache.flush()
        assert not cache.access(0)

    def test_invalid_access(self):
        cache = SetAssociativeCache(64)
        with pytest.raises(ValueError):
            cache.access(-1)
        with pytest.raises(ValueError):
            cache.access(0, size=0)


class TestPaperGeometries:
    def test_fermi_l2_larger_than_kepler_consumer(self):
        fermi = SetAssociativeCache(768)
        gtx680 = SetAssociativeCache(512)
        assert fermi.n_sets > gtx680.n_sets

    def test_working_set_between_sizes_thrashes_smaller_cache(self):
        """A cyclic working set of 600 KiB fits the 768 KiB Fermi L2 but
        thrashes a 512 KiB L2 under LRU."""
        big = SetAssociativeCache(768, line_bytes=128, assoc=16)
        small = SetAssociativeCache(512, line_bytes=128, assoc=16)
        working_set = 600 * 1024
        for sweep in range(3):
            for addr in range(0, working_set, 128):
                big.access(addr)
                small.access(addr)
        assert big.stats.hit_rate > 0.6
        assert small.stats.hit_rate < 0.1  # LRU pathological cyclic reuse


class TestAccessEach:
    """``access_each(addr, size)`` is ``size`` one-byte ``access`` calls."""

    @pytest.mark.parametrize("geometry", [(1, 128, 2), (2, 64, 4), (64, 128, 16)])
    def test_matches_per_byte_loop(self, geometry):
        rng = random.Random(sum(geometry))
        run = SetAssociativeCache(*geometry)
        ref = SetAssociativeCache(*geometry)
        for _ in range(300):
            addr = rng.choice((0, 127, 128, rng.randrange(0, 1 << 14)))
            size = rng.choice((0, 1, 2, 127, 128, 129, 300, rng.randrange(0, 600)))
            misses0 = ref.stats.misses
            for i in range(size):
                ref.access(addr + i)
            assert run.access_each(addr, size) == ref.stats.misses - misses0
            assert (run.stats.hits, run.stats.misses) == (ref.stats.hits, ref.stats.misses)
            assert run._sets == ref._sets  # same LRU order in every set

    def test_invalid_run(self):
        cache = SetAssociativeCache(64)
        with pytest.raises(ValueError):
            cache.access_each(-1, 4)
        with pytest.raises(ValueError):
            cache.access_each(0, -1)
        assert cache.access_each(0, 0) == 0
        assert cache.stats.accesses == 0
