package sdrbench

import (
	"sync"
	"time"
)

// Cache shares generated datasets among the campaigns that inject
// into them. The paper injects every format into the same field
// (§4), so a sweep over F fields and C formats needs F datasets, not
// F×C. Entries are keyed by (field, n, seed) and evicted least
// recently used beyond a fixed capacity, which callers set to their
// shard concurrency: enough for every in-flight shard to find its
// dataset, and no more resident at once. Generation runs outside the
// cache lock, once per entry: concurrent callers of one dataset share
// a single generation, and different datasets generate in parallel.
// A Cache is safe for concurrent use.
type Cache struct {
	capacity int
	observe  func(time.Duration)

	mu      sync.Mutex
	entries []*Dataset // least recently used first
}

// NewCache returns a cache holding at most capacity datasets (at
// least one). observe, when non-nil, is called with the duration of
// every generation the cache performs; callers feed it to their
// telemetry.
func NewCache(capacity int, observe func(time.Duration)) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{capacity: capacity, observe: observe}
}

// datasetKey identifies one generated dataset.
type datasetKey struct {
	field string
	n     int
	seed  uint64
}

// Dataset is one cache entry: the widened float64 values of
// f.Generate(n, seed), generated by the first call to Data.
type Dataset struct {
	key     datasetKey
	field   Field
	observe func(time.Duration)
	once    sync.Once
	data    []float64
}

// Data returns the dataset, generating it on the first call. Callers
// racing the first call wait for that one generation. The slice is
// shared: callers must not modify it.
func (d *Dataset) Data() []float64 {
	d.once.Do(func() {
		start := time.Now()
		d.data = ToFloat64(d.field.Generate(d.key.n, d.key.seed))
		if d.observe != nil {
			d.observe(time.Since(start))
		}
	})
	return d.data
}

// Dataset returns the entry for (f, n, seed), adding it if absent and
// marking it most recently used. It does not generate: that happens
// on the entry's first Data call, outside the cache lock. An entry
// evicted while a caller still holds it stays valid for that caller;
// a later lookup of the same key makes (and generates) a new one.
func (c *Cache) Dataset(f Field, n int, seed uint64) *Dataset {
	key := datasetKey{f.Key(), n, seed}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, d := range c.entries {
		if d.key == key {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = d
			return d
		}
	}
	d := &Dataset{key: key, field: f, observe: c.observe}
	if len(c.entries) == c.capacity {
		copy(c.entries, c.entries[1:])
		c.entries = c.entries[:len(c.entries)-1]
	}
	c.entries = append(c.entries, d)
	return d
}

// Get returns the data of (f, n, seed), generating it on first use.
func (c *Cache) Get(f Field, n int, seed uint64) []float64 {
	return c.Dataset(f, n, seed).Data()
}
