package sdrbench

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingCache returns a cache of the given capacity and the counter
// its observe hook increments once per generation.
func countingCache(capacity int) (*Cache, *atomic.Int64) {
	var n atomic.Int64
	return NewCache(capacity, func(time.Duration) { n.Add(1) }), &n
}

// mustField looks up a registered field.
func mustField(t *testing.T, key string) Field {
	t.Helper()
	f, err := Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCacheMatchesGenerate: a cached dataset is exactly the widened
// Generate output, and a second lookup reuses it.
func TestCacheMatchesGenerate(t *testing.T) {
	f := mustField(t, "Nyx/temperature")
	c, gens := countingCache(2)
	got := c.Get(f, 3000, 5)
	want := ToFloat64(f.Generate(3000, 5))
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: %v, want %v", i, got[i], want[i])
		}
	}
	if again := c.Get(f, 3000, 5); &again[0] != &got[0] {
		t.Fatal("second Get regenerated instead of sharing the slice")
	}
	if gens.Load() != 1 {
		t.Fatalf("%d generations, want 1", gens.Load())
	}
}

// TestCacheKey: n and seed are part of the identity, the format is
// not (the cache has no notion of one).
func TestCacheKey(t *testing.T) {
	f := mustField(t, "CESM/CLOUD")
	c, gens := countingCache(8)
	c.Get(f, 100, 1)
	c.Get(f, 200, 1)
	c.Get(f, 100, 2)
	c.Get(f, 100, 1)
	if gens.Load() != 3 {
		t.Fatalf("%d generations, want 3 distinct (n, seed) keys", gens.Load())
	}
}

// TestCacheSharesConcurrentGeneration: callers racing on one dataset
// share a single generation. Runs under -race via `make race`.
func TestCacheSharesConcurrentGeneration(t *testing.T) {
	f := mustField(t, "HACC/vx")
	c, gens := countingCache(1)
	var wg sync.WaitGroup
	out := make([][]float64, 8)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.Get(f, 20000, 3)
		}(i)
	}
	wg.Wait()
	if gens.Load() != 1 {
		t.Fatalf("%d generations for 8 concurrent callers, want 1", gens.Load())
	}
	for i := range out {
		if len(out[i]) != 20000 || &out[i][0] != &out[0][0] {
			t.Fatalf("caller %d got a different dataset", i)
		}
	}
}

// TestCacheEvictsLeastRecentlyUsed: beyond capacity the least recently
// used entry goes, a held entry stays valid, and a lookup of the
// evicted key generates again.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	a, b, d := mustField(t, "CESM/CLOUD"), mustField(t, "CESM/OMEGA"), mustField(t, "HACC/vy")
	c, gens := countingCache(2)
	held := c.Dataset(a, 100, 1)
	held.Data()
	c.Get(b, 100, 1)
	c.Get(a, 100, 1) // a is now the most recently used
	c.Get(d, 100, 1) // evicts b
	if gens.Load() != 3 {
		t.Fatalf("%d generations, want 3", gens.Load())
	}
	c.Get(a, 100, 1)
	if gens.Load() != 3 {
		t.Fatal("recently used entry was evicted")
	}
	c.Get(b, 100, 1)
	if gens.Load() != 4 {
		t.Fatal("least recently used entry was not evicted")
	}
	if len(held.Data()) != 100 {
		t.Fatal("held entry lost its data")
	}
}
