package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. Each names the layer (Go package) whose public function
// the span wraps; opSpan is the benchmark's own per-operation root.
const (
	opSpan          = "bench.op"
	spanRunner      = "runner.run"
	spanGenerate    = "sdrbench.generate"
	spanSummarize   = "stats.summarize"
	spanInject      = "core.inject"
	spanAppend      = "store.append"
	spanSeal        = "store.seal"
	spanSubmitWait  = "serve.submit_wait"
	spanResultsCSV  = "serve.results_csv"
	spanResultsJSON = "serve.results_json"
	spanServeInject = "serve.inject"
)

// ledgerTolerance is how far the per-layer self times may sum away
// from the traced wall time of the operations before the run fails
// (the ROADMAP's "stages must sum" rule), as a share of that wall.
const ledgerTolerance = 0.02

// span is one recorded interval: a call into a layer, the operation it
// belongs to, and the span that caused it (-1 for a root).
type span struct {
	name       string
	op, parent int
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced path runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; parent is -1 for an
// operation's root.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// selfTimes splits the wall time covered by spans among span names.
// At every instant the time goes to the innermost open spans (those
// with no open child), shared equally when several run concurrently;
// so a span's self time is its duration minus the part its children
// cover, and the self times of one operation sum to its root span.
func selfTimes(spans []span) map[string]float64 {
	type event struct {
		at    time.Duration
		id    int
		start bool
	}
	events := make([]event, 0, 2*len(spans))
	for id, s := range spans {
		if s.end < s.start {
			continue // never closed: the operation failed part-way
		}
		events = append(events, event{s.start, id, true}, event{s.end, id, false})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].start && events[j].start // close before open
	})
	self := map[string]float64{}
	open := map[int]bool{}
	openKids := map[int]int{}
	var leaves []int
	for i, ev := range events {
		if i > 0 && ev.at > events[i-1].at && len(open) > 0 {
			leaves = leaves[:0]
			for id := range open {
				if openKids[id] == 0 {
					leaves = append(leaves, id)
				}
			}
			share := (ev.at - events[i-1].at).Seconds() / float64(len(leaves))
			for _, id := range leaves {
				self[spans[id].name] += share
			}
		}
		p := spans[ev.id].parent
		if ev.start {
			open[ev.id] = true
			if p >= 0 {
				openKids[p]++
			}
		} else {
			delete(open, ev.id)
			if p >= 0 {
				openKids[p]--
			}
		}
	}
	return self
}

// ledger summarises a traced phase: per-layer self seconds and span
// counts per operation, and how far the self times sum from the wall
// time the operations took.
type ledger struct {
	ops     int
	wall    float64            // seconds the traced operations took, timed outside the spans
	selfS   map[string]float64 // self seconds per span name, summed over operations
	calls   map[string]int     // spans per name, summed over operations
	gapFrac float64            // |Σ self − wall| / wall
}

func (t *tracer) ledger(ops int, wall float64) ledger {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := ledger{ops: ops, wall: wall, selfS: selfTimes(t.spans), calls: map[string]int{}}
	for _, s := range t.spans {
		l.calls[s.name]++
	}
	var sum float64
	for _, v := range l.selfS {
		sum += v
	}
	if wall > 0 {
		l.gapFrac = abs(sum-wall) / wall
	}
	return l
}

// overheadFrac is the tracing overhead: the median traced operation's
// wall time over the median untraced one's, minus one (0 when either
// side has no operation).
func overheadFrac(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return median(traced)/median(plain) - 1
}

// perOp returns a per-operation mean of a ledger total.
func (l ledger) perOp(v float64) float64 {
	if l.ops == 0 {
		return 0
	}
	return v / float64(l.ops)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// spanRecord is one span as writeSpans writes it: times in seconds from
// its tracer's start, parent as an index into the same tracer's spans.
type spanRecord struct {
	Workload string  `json:"workload"`
	Tracer   int     `json:"tracer"`
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Op       int     `json:"op"`
	Parent   int     `json:"parent"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
}

// writeSpans appends every span of the run's tracers to path as JSON
// lines, once the measurements are over.
func writeSpans(path, workload string, tracers []*tracer) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for ti, t := range tracers {
		t.mu.Lock()
		for id, sp := range t.spans {
			rec := spanRecord{workload, ti, id, sp.name, sp.op, sp.parent, sp.start.Seconds(), sp.end.Seconds()}
			if err := enc.Encode(rec); err != nil {
				t.mu.Unlock()
				return err
			}
		}
		t.mu.Unlock()
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
