"""Properties of the set-associative cache model (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cache import CacheStats, SetAssociativeCache

addrs = st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300)


@given(addrs)
@settings(max_examples=100, deadline=None)
def test_stats_always_consistent(trace):
    cache = SetAssociativeCache(64)
    for addr in trace:
        cache.access(addr)
    assert cache.stats.hits + cache.stats.misses >= len(trace)
    assert 0.0 <= cache.stats.hit_rate <= 1.0


@given(addrs)
@settings(max_examples=100, deadline=None)
def test_immediate_rereference_always_hits(trace):
    cache = SetAssociativeCache(64)
    for addr in trace:
        cache.access(addr)
        assert cache.access(addr)  # MRU line cannot have been evicted


@given(st.integers(min_value=0, max_value=1 << 16), st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_within_associativity_working_set_never_evicts(base, k):
    """Touching <= assoc distinct lines of ONE set then re-touching them
    must be all hits (LRU guarantee)."""
    cache = SetAssociativeCache(4, line_bytes=128, assoc=16)
    lines = [base + i * cache.n_sets for i in range(k)]  # same set index
    for line in lines:
        cache.access(line * 128)
    cache.stats = CacheStats()
    for line in lines:
        cache.access(line * 128)
    assert cache.stats.misses == 0


@given(addrs)
@settings(max_examples=50, deadline=None)
def test_flush_forgets_everything(trace):
    cache = SetAssociativeCache(64)
    for addr in trace:
        cache.access(addr)
    cache.flush()
    cache.stats = CacheStats()
    seen_lines = {a // cache.line_bytes for a in trace}
    for addr in sorted(seen_lines):
        cache.access(addr * cache.line_bytes)
    assert cache.stats.misses == len(seen_lines)
