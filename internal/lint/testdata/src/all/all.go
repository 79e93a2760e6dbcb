package all // the end-to-end fixture: trips every rule once, including pkgdoc (no doc comment)

import (
	"context"
	"errors"
	"os"
	"sync"
)

type codec struct{}

func (codec) Decode(b uint64) float64 { return float64(b) }

type guarded struct {
	mu sync.Mutex
	n  int
}

func fallible() error { return errors.New("x") }

func trip(ctx context.Context, c codec, g guarded, xs []uint64, out chan<- float64) float64 {
	var wg sync.WaitGroup
	for _, b := range xs {
		go func() {
			wg.Add(1)
			defer wg.Done()
			out <- c.Decode(b)
		}()
	}
	wg.Wait()
	fallible()
	_ = os.WriteFile("trials.csv", nil, 0o644)
	acc := 0.0
	for _, b := range xs {
		acc += c.Decode(b)
	}
	bad := uint64(1)
	n := g.n
	bad = bad << n
	if acc == 1.5 {
		return acc
	}
	return acc
}

// Report is the exported struct that trips exportdoc.
type Report struct {
	// Total counts all shards.
	Total int
	Done  int
}

// Quire mimics the posit accumulation API shape for quireguard.
type Quire struct{ acc int64 }

func (q *Quire) AddPosit(v int64) { q.acc += v }

func leakQuire(xs []int64) {
	q := &Quire{}
	for _, v := range xs {
		q.AddPosit(v)
	}
}

// Budget is the knob set budgetscale watches for.
type Budget struct {
	TrialsPerBit int // fault-injection trials per bit
}

type cfg struct{ TrialsPerBit int }

func misbudget(b Budget, c *cfg) {
	c.TrialsPerBit = 512
}

const codeOK = "ok"

type apiErr struct {
	Code    string
	Message string
}

func failure() apiErr {
	return apiErr{Code: "nope", Message: "ad-hoc"}
}
