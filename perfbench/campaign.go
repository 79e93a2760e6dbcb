package main

// The two positcampaign workloads: paper_campaign (the durable CLI
// path, -out and -store-out) and dense_campaign (the in-memory CLI
// path, -store-out only).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/runner"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/stats"
	"positres/internal/store"
	"positres/internal/telemetry"
)

// cliShape is the campaign one positcampaign operation runs.
type cliShape struct {
	workload  string
	oneField  bool // the first Table 1 field only (smoke size); else all 16
	formats   []string
	n, trials int
	durable   bool // journal under -out as well as -store-out
}

func paperShape(smoke bool) cliShape {
	c := cliShape{workload: "paper_campaign", formats: []string{"posit32", "ieee32"}, n: 100_000, trials: 313, durable: true}
	if smoke {
		c.oneField, c.n, c.trials = true, 2_000, 4
	}
	return c
}

func denseShape(smoke bool) cliShape {
	c := cliShape{workload: "dense_campaign", formats: []string{"posit8", "posit16", "posit32", "posit64", "ieee32", "ieee64"}, n: 50_000, trials: 1024}
	if smoke {
		c.oneField, c.n, c.trials = true, 2_000, 4
	}
	return c
}

// spec is the campaign of operation i: the shape with a seed derived
// from the run seed.
func (c cliShape) spec(seed uint64, i int) *spec.CampaignSpec {
	fields := []string{}
	for _, f := range sdrbench.Fields() {
		fields = append(fields, f.Key())
	}
	if c.oneField {
		fields = fields[:1]
	}
	cs := &spec.CampaignSpec{Fields: fields, Formats: c.formats, N: c.n, TrialsPerBit: c.trials,
		Seed: opSeed(seed, c.workload, i), BitsPerShard: 8}
	if verr := cs.Validate(); verr != nil {
		panic(verr) // the shapes above are fixed and valid
	}
	return cs
}

// args is the positcampaign command line for cs with state under dir.
func (c cliShape) args(cs *spec.CampaignSpec, dir string) []string {
	field := "all"
	if c.oneField {
		field = cs.Fields[0]
	}
	a := []string{"-field", field, "-formats", strings.Join(cs.Formats, ","),
		"-n", fmt.Sprint(cs.N), "-trials", fmt.Sprint(cs.TrialsPerBit), "-seed", fmt.Sprint(cs.Seed),
		"-store-out", filepath.Join(dir, "store"), "-telemetry-out", filepath.Join(dir, "telemetry.json")}
	if c.durable {
		a = append(a, "-out", filepath.Join(dir, "out"))
	}
	return a
}

// plan is the exact work of one campaign.
type plan struct{ specs, shards, injections int }

func planOf(cs *spec.CampaignSpec) plan {
	var p plan
	for _, sp := range runner.SpecsOf(cs) {
		cd, _ := numfmt.Lookup(sp.Codec) // valid: SpecsOf canonicalised it
		p.specs++
		p.shards += (cd.Width() + cs.BitsPerShard - 1) / cs.BitsPerShard
		p.injections += cd.Width() * cs.TrialsPerBit
	}
	return p
}

func runPaperCampaign(ctx context.Context, e *env) (*outcome, error) {
	return runCLIWorkload(ctx, e, paperShape(e.smoke))
}

func runDenseCampaign(ctx context.Context, e *env) (*outcome, error) {
	return runCLIWorkload(ctx, e, denseShape(e.smoke))
}

// cliOp is one finished positcampaign operation.
type cliOp struct {
	wall  float64
	rssMB float64
	util  float64 // runner worker utilization from the telemetry snapshot
	files diskCounts
}

// runCLIWorkload runs one positcampaign process per operation in a
// closed loop. Set-up is one warm-up campaign, repeated; the trace run
// adds an in-process replica of the same campaign with spans around
// each layer.
func runCLIWorkload(ctx context.Context, e *env, shape cliShape) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	next := 0
	runOp := func(check int) (cliOp, error) {
		cs := shape.spec(e.seed, next)
		dir := filepath.Join(e.state, fmt.Sprintf("op%d", next))
		next++
		defer os.RemoveAll(dir)
		o.attempted++
		wall, rss, err := runCLI(ctx, e.program("positcampaign"), shape.args(cs, dir)...)
		if err != nil {
			o.fail(err)
			return cliOp{wall: wall.Seconds()}, err
		}
		op := cliOp{wall: wall.Seconds(), rssMB: rss}
		if op.util, err = checkTelemetry(filepath.Join(dir, "telemetry.json"), planOf(cs)); err == nil {
			op.files, err = checkCampaign(ctx, cs, dir, shape.durable, check)
		}
		if err != nil {
			o.fail(err)
		}
		return op, err
	}

	setups := e.setups()
	for k := 0; k < setups; k++ {
		check := k
		if k == 0 {
			check = -1 // the first warm-up campaign's stores are all checked
		}
		op, err := runOp(check)
		if err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		o.setups = append(o.setups, op.wall)
	}

	window := e.seconds
	if e.trace {
		window /= 2 // the other half runs the traced replica
	}
	perOp := float64(planOf(shape.spec(e.seed, 0)).injections)
	var ops []cliOp
	for i := 0; o.window < window && ctx.Err() == nil; i++ {
		op, err := runOp(i)
		o.window += op.wall
		if err != nil {
			continue
		}
		ops = append(ops, op)
		o.lat = append(o.lat, op.wall)
		o.rates = append(o.rates, perOp/op.wall)
	}
	var rss []float64
	for _, op := range ops {
		rss = append(rss, op.rssMB)
	}
	o.rssMB = median(rss)
	if !e.trace || len(ops) == 0 {
		return o, nil
	}

	// Counts read from the program's own outputs, per campaign.
	var utils []float64
	for _, op := range ops {
		utils = append(utils, op.util)
	}
	last := ops[len(ops)-1].files
	o.layers["runner.worker_utilization"] = median(utils)
	o.layers["runner.journal_records"] = float64(last.journalRecords)
	o.layers["runner.journal_bytes"] = float64(last.journalBytes)
	o.layers["store.file_bytes"] = float64(last.storeBytes)

	// The replica, alternately untraced and traced, so that drift in
	// the host's speed falls on both halves of the overhead ratio.
	tr := e.newTracer()
	var plain, traced []float64
	var injections int64
	for spent := 0.0; (spent < window || len(traced) == 0) && ctx.Err() == nil; {
		cs := shape.spec(e.seed, next)
		dir := filepath.Join(e.state, fmt.Sprintf("op%d", next))
		on := next%2 == 1
		next++
		o.attempted++
		var opTr *tracer
		if on {
			opTr = tr
		}
		start := time.Now()
		n, err := replicaOp(ctx, opTr, len(traced), cs, dir, shape.durable)
		wall := time.Since(start).Seconds()
		spent += wall
		if err == nil {
			_, err = checkCampaign(ctx, cs, dir, shape.durable, next)
		}
		_ = os.RemoveAll(dir) // best effort: the whole state directory goes at exit
		if err != nil {
			o.fail(fmt.Errorf("replica: %w", err))
			break
		}
		if on {
			traced = append(traced, wall)
			injections += n
		} else {
			plain = append(plain, wall)
		}
	}
	l := tr.ledger(len(traced), sum(traced))
	o.layers["core.injections"] = l.perOp(float64(injections))
	fillLedger(o, l, overheadFrac(traced, plain))
	return o, nil
}

// fillLedger copies a traced phase's self times and span counts into
// the per-layer metrics and enforces the ledger tolerance.
func fillLedger(o *outcome, l ledger, overhead float64) {
	for name, v := range l.selfS {
		key := name + "_s"
		if name == opSpan {
			key = "bench.self_s"
		} else if name == spanRunner {
			key = "runner.self_s"
		}
		o.layers[key] = l.perOp(v)
	}
	for _, name := range []string{spanGenerate, spanSummarize, spanAppend} {
		o.layers[name+"_calls"] = l.perOp(float64(l.calls[name]))
	}
	o.layers["trace.ops"] = float64(l.ops)
	o.layers["trace.wall_s"] = l.perOp(l.wall)
	o.layers["trace.ledger_gap_frac"] = l.gapFrac
	o.layers["trace.overhead_frac"] = overhead
	if l.gapFrac > ledgerTolerance {
		o.problems = append(o.problems, fmt.Sprintf("per-layer self times sum %.1f%% away from the traced wall time (tolerance %.0f%%)", 100*l.gapFrac, 100*ledgerTolerance))
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// checkTelemetry verifies the program's telemetry snapshot against the
// campaign plan and returns its worker utilization.
func checkTelemetry(path string, p plan) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	snap, err := telemetry.ReadSnapshot(f)
	if err != nil {
		return 0, err
	}
	if snap.Injections != int64(p.injections) || snap.ShardsDone != int64(p.shards) || snap.ShardsFailed != 0 {
		return 0, fmt.Errorf("telemetry: %d injections, %d shards done, %d failed; want %d, %d, 0",
			snap.Injections, snap.ShardsDone, snap.ShardsFailed, p.injections, p.shards)
	}
	return snap.WorkerUtilization, nil
}

// diskCounts is what one campaign left in its state directory.
type diskCounts struct {
	journalRecords, journalBytes, storeBytes int64
}

// checkCampaign verifies a finished campaign's state directory: one
// store per (field, format) with width × trials rows, journal records
// exactly when the campaign is durable, and — for every store when
// sample < 0, else for spec sample mod specs — CSV bytes identical to a
// direct core.RunRange + WriteTrialsCSV render.
func checkCampaign(ctx context.Context, cs *spec.CampaignSpec, dir string, durable bool, sample int) (diskCounts, error) {
	var dc diskCounts
	specs := runner.SpecsOf(cs)
	for i, sp := range specs {
		path := filepath.Join(dir, "store", store.FileName(sp.Field, sp.Codec))
		fi, err := os.Stat(path)
		if err != nil {
			return dc, err
		}
		dc.storeBytes += fi.Size()
		rd, err := store.Open(path)
		if err != nil {
			return dc, err
		}
		cd, _ := numfmt.Lookup(sp.Codec)
		rows := rd.Rows()
		var got bytes.Buffer
		full := sample < 0 || i == sample%len(specs)
		if full {
			err = rd.RenderCSV(&got)
		}
		_ = rd.Close() // opened only to read
		if err != nil {
			return dc, err
		}
		if want := uint64(cd.Width() * cs.TrialsPerBit); rows != want {
			return dc, fmt.Errorf("%s: %d rows, want %d", path, rows, want)
		}
		if !full {
			continue
		}
		want, err := directCSV(ctx, cs, sp.Field, sp.Codec)
		if err != nil {
			return dc, err
		}
		if !bytes.Equal(got.Bytes(), want) {
			return dc, fmt.Errorf("%s: RenderCSV differs from a direct render (%d vs %d bytes)", path, got.Len(), len(want))
		}
	}
	journal := filepath.Join(dir, "out", "journal")
	ents, err := os.ReadDir(journal)
	if err != nil && !os.IsNotExist(err) {
		return dc, err
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return dc, err
		}
		dc.journalRecords++
		dc.journalBytes += info.Size()
	}
	if want := int64(planOf(cs).shards); durable && dc.journalRecords != want {
		return dc, fmt.Errorf("%d journal records, want %d", dc.journalRecords, want)
	}
	if !durable && dc.journalRecords != 0 {
		return dc, fmt.Errorf("in-memory campaign wrote %d journal records", dc.journalRecords)
	}
	return dc, nil
}

// directCSV renders one (field, format) campaign without the runner or
// the store: generate, core.RunRange over every bit, WriteTrialsCSV.
func directCSV(ctx context.Context, cs *spec.CampaignSpec, field, codec string) ([]byte, error) {
	f, err := sdrbench.Lookup(field)
	if err != nil {
		return nil, err
	}
	cd, err := numfmt.Lookup(codec)
	if err != nil {
		return nil, err
	}
	data := sdrbench.ToFloat64(f.Generate(cs.N, cs.Seed))
	trials, err := core.RunRange(ctx, core.ConfigFromSpec(cs), cd, field, data, 0, cd.Width())
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := core.WriteTrialsCSV(&b, trials); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// sinkFunc adapts a function to runner.ShardSink.
type sinkFunc func(field, codec string, bitLo, bitHi int, trials []core.Trial) error

func (f sinkFunc) AppendShard(field, codec string, bitLo, bitHi int, trials []core.Trial) error {
	return f(field, codec, bitLo, bitHi, trials)
}

// replicaOp runs the campaign positcampaign would run for cs, in
// process, with a span around every call into a layer: dataset
// generation, the inject loop and store appends inside runner.Run
// (through its Execute and Sink seams), the baseline summaries, and
// the seals. It returns the injections performed.
//
// The runner is handed N = 1. With Execute set it reads its dataset
// only to summarise the baseline, which the replica does itself under
// the stats span, so generating the full dataset inside the runner
// would double the generation work. Trials depend on the data Execute
// injects into, not on the runner's copy, so the stores are the same
// bytes the program writes (checkCampaign verifies it).
func replicaOp(ctx context.Context, tr *tracer, op int, cs *spec.CampaignSpec, dir string, durable bool) (int64, error) {
	root := tr.begin(opSpan, op, -1)
	defer tr.end(root)
	cw := store.NewCampaignWriter(filepath.Join(dir, "store"))
	defer cw.Abort()
	if err := os.MkdirAll(filepath.Join(dir, "store"), 0o755); err != nil {
		return 0, err
	}
	cfg := core.ConfigFromSpec(cs)
	cfg.Workers = 1 // as the runner configures the engine: shards are the parallelism

	// One dataset per (field, format) spec, generated on first use under
	// one lock, as the runner's own cache does.
	var mu sync.Mutex
	datasets := map[string][]float64{} // by runner.Spec.Key()
	var rr int
	dataset := func(sp runner.Spec) ([]float64, error) {
		mu.Lock()
		defer mu.Unlock()
		if d, ok := datasets[sp.Key()]; ok {
			return d, nil
		}
		f, err := sdrbench.Lookup(sp.Field)
		if err != nil {
			return nil, err
		}
		id := tr.begin(spanGenerate, op, rr)
		d := sdrbench.ToFloat64(f.Generate(cs.N, cs.Seed))
		tr.end(id)
		datasets[sp.Key()] = d
		return d, nil
	}
	var mu2 sync.Mutex
	var injections int64
	rcs := *cs
	rcs.N = 1
	rcfg := runner.Config{
		Spec:    &rcs,
		Workers: runtime.GOMAXPROCS(0),
		Execute: func(ctx context.Context, sh runner.Shard) ([]core.Trial, error) {
			data, err := dataset(sh.Spec)
			if err != nil {
				return nil, err
			}
			cd, err := numfmt.Lookup(sh.Codec)
			if err != nil {
				return nil, err
			}
			id := tr.begin(spanInject, op, rr)
			trials, err := core.RunRange(ctx, cfg, cd, sh.Field, data, sh.BitLo, sh.BitHi)
			tr.end(id)
			mu2.Lock()
			injections += int64(len(trials))
			mu2.Unlock()
			return trials, err
		},
		Sink: sinkFunc(func(field, codec string, bitLo, bitHi int, trials []core.Trial) error {
			id := tr.begin(spanAppend, op, rr)
			defer tr.end(id)
			return cw.AppendShard(field, codec, bitLo, bitHi, trials)
		}),
	}
	if durable {
		rcfg.Dir = filepath.Join(dir, "out")
	}
	rr = tr.begin(spanRunner, op, root)
	rep, err := runner.Run(ctx, rcfg)
	tr.end(rr)
	if err != nil {
		return injections, err
	}
	if !rep.Complete() {
		return injections, fmt.Errorf("runner: %d shards failed, %d skipped", rep.Failed, rep.Skipped)
	}
	for _, sp := range rep.Specs {
		id := tr.begin(spanSummarize, op, root)
		stats.Summarize(datasets[sp.Key()])
		tr.end(id)
	}
	for _, sp := range rep.Specs {
		id := tr.begin(spanSeal, op, root)
		err := cw.Seal(sp.Field, sp.Codec)
		tr.end(id)
		if err != nil {
			return injections, err
		}
	}
	return injections, nil
}
