package mapreduce

import "sync"

// ReductionCache memoizes reduction results keyed by a caller-chosen string.
// UPA uses it to reuse R(M(S')) — the reduction of the un-sampled bulk of
// the input — across the n sampled neighbouring datasets, the mechanism that
// turns the brute-force linear overhead into a constant one (§VI-E). The
// hit/miss counters feed the Figure 4(b) cache-hit-rate reproduction.
//
// Values are opaque; typed access goes through CacheGet/CachePut below so a
// stale entry of the wrong type is reported as a miss rather than a panic.
//
// The cache is unbounded: nothing is ever evicted, so it grows until Clear
// is called. That is the right trade for UPA's working set — one entry per
// reusable reduction, reused across a whole sensitivity loop — but callers
// keying entries per record or per release must CacheDelete them when done,
// call Clear between phases, or bound their key space themselves.
type ReductionCache struct {
	mu      sync.Mutex
	entries map[string]any
	metrics *Metrics
}

func newReductionCache(m *Metrics) *ReductionCache {
	return &ReductionCache{entries: make(map[string]any), metrics: m}
}

// Len reports the number of cached entries.
func (c *ReductionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Clear drops every entry (counters are retained).
func (c *ReductionCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]any)
}

func (c *ReductionCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	return v, ok
}

func (c *ReductionCache) put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = v
}

func (c *ReductionCache) delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, key)
}

// CacheGet fetches the value stored under key if it exists and has type T.
// A missing key or a stale entry of the wrong type both count as a miss. A
// wrong-type entry is also deleted: callers follow a get-then-put-if-missing
// protocol, so leaving the stale value in place would let one mistyped put
// poison the key — every future typed get missing, every put skipped —
// until Clear. Dropping it lets the next CachePut repopulate the slot.
func CacheGet[T any](c *ReductionCache, key string) (T, bool) {
	var zero T
	v, ok := c.get(key)
	if ok {
		if typed, isT := v.(T); isT {
			c.metrics.CacheHits.Add(1)
			return typed, true
		}
		c.delete(key)
	}
	c.metrics.CacheMisses.Add(1)
	return zero, false
}

// CacheDelete drops the entry under key, if any (counters are retained).
func CacheDelete(c *ReductionCache, key string) { c.delete(key) }

// CachePut stores v under key, replacing any prior entry.
func CachePut[T any](c *ReductionCache, key string, v T) {
	c.put(key, v)
}
