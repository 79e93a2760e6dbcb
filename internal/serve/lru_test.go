package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"positres/internal/core"
)

// TestInjectCacheConcurrent hammers one small LRU from many goroutines
// with a mixed get/put/stats workload. It exists to run under -race
// (scripts/ci.sh does): correctness here is "no data race, no panic,
// and the invariants hold afterwards".
func TestInjectCacheConcurrent(t *testing.T) {
	const (
		goroutines = 8
		ops        = 500
		keySpace   = 64
		capacity   = 16
	)
	c := newInjectCache(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := cacheKey{format: "posit8", pattern: uint64((g*ops + i) % keySpace), bit: i % 8}
				if v, ok := c.get(k); ok {
					if v.FaultyBits != k.pattern^1 {
						t.Errorf("cache returned wrong entry for %+v: %+v", k, v)
						return
					}
				} else {
					c.put(k, core.Flip{FaultyBits: k.pattern ^ 1})
				}
				if i%50 == 0 {
					c.stats()
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.stats()
	if st.Size > capacity {
		t.Errorf("size = %d exceeds capacity %d", st.Size, capacity)
	}
	if st.Hits+st.Misses != goroutines*ops {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*ops)
	}
}

// TestInjectEndpointConcurrent drives the full HTTP inject path from
// many goroutines sharing a hot cache line — the production shape of
// interactive what-if clients.
func TestInjectEndpointConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{InjectCacheSize: 8})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body := fmt.Sprintf(`{"format":"posit16","pattern":"0x%x","bit":%d}`, 0x4000+i%16, (g+i)%16)
				resp, err := http.Post(ts.URL+"/v1/inject", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				if err := resp.Body.Close(); err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("inject status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
