package serve

// The inject LRU: /v1/inject's workload is many small repeated
// what-if queries over (format, pattern, bit) triples — exactly the
// shape the related-work robustness studies drive interactively — so
// the pattern-derived part of each answer is cached. The value-derived
// part (abs/rel error against the caller's exact input value) is
// recomputed per request; see inject.go.

import (
	"container/list"
	"sync"

	"positres/internal/core"
)

// cacheKey identifies one what-if query: a format name, an encoded
// bit pattern in that format, and the bit position to flip.
type cacheKey struct {
	format  string
	pattern uint64
	bit     int
}

// injectCache is a fixed-capacity LRU over core.Flip entries, the
// purely pattern-derived portion of an inject answer. A core.Flip is a
// function of (format, pattern, bit) alone, so a cache hit is exact,
// not approximate. Safe for concurrent use; the zero value is not
// usable, construct with newInjectCache.
type injectCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[cacheKey]*list.Element
	hits   int64
	misses int64
}

// lruEntry is the list element payload.
type lruEntry struct {
	key cacheKey
	val core.Flip
}

// newInjectCache returns an LRU holding at most capacity entries
// (capacity <= 0 means 4096).
func newInjectCache(capacity int) *injectCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &injectCache{cap: capacity, ll: list.New(), items: map[cacheKey]*list.Element{}}
}

// get returns the cached answer for k, marking it most recently used.
func (c *injectCache) get(k cacheKey) (core.Flip, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return core.Flip{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put stores the answer for k, evicting the least recently used entry
// when the cache is full. Storing an existing key refreshes it.
func (c *injectCache) put(k cacheKey, v core.Flip) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// cacheStats is the /metrics view of the cache.
type cacheStats struct {
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// stats returns a point-in-time snapshot of cache occupancy and
// hit/miss tallies.
func (c *injectCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Size: c.ll.Len(), Capacity: c.cap, Hits: c.hits, Misses: c.misses}
}
