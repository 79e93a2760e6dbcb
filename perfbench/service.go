package main

// The two positserve workloads: cluster_campaign (a coordinator and one
// worker process, campaigns submitted with ?wait=1 and every result
// fetched as CSV and as an aggregate document) and inject_zipf
// (single-node /v1/inject under Zipf-distributed patterns).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"positres/internal/bitflip"
	"positres/internal/numfmt"
	"positres/internal/qcat"
	"positres/internal/sdrbench"
	"positres/internal/serve"
	"positres/internal/spec"
	"positres/internal/store"
	"positres/internal/telemetry"
)

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Campaign    telemetry.Snapshot         `json:"campaign"`
	Cluster     *telemetry.ClusterSnapshot `json:"cluster"`
	InjectCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"inject_cache"`
}

func getJSON(ctx context.Context, url string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(body, out)
}

func scrape(ctx context.Context, s *server) (serverMetrics, error) {
	var m serverMetrics
	err := getJSON(ctx, s.url+"/metrics", &m)
	if m.Cluster == nil {
		m.Cluster = &telemetry.ClusterSnapshot{}
	}
	return m, err
}

// ---- cluster_campaign ----

// cluster is a coordinator and one self-registered worker.
type cluster struct {
	dir           string
	coord, worker *server
}

func (c *cluster) stop() {
	c.worker.stop()
	c.coord.stop()
}

// startCluster starts both processes and returns once the coordinator
// lists the worker, so the next campaign is dispatched to it.
func startCluster(ctx context.Context, e *env, dir string) (*cluster, error) {
	c := &cluster{dir: dir}
	var err error
	if c.coord, err = startServer(ctx, e.program("positserve"), filepath.Join(dir, "coord")); err != nil {
		return nil, err
	}
	if c.worker, err = startServer(ctx, e.program("positserve"), filepath.Join(dir, "worker"), "-register", c.coord.url); err != nil {
		c.coord.stop()
		return nil, err
	}
	for {
		var list struct {
			Workers []struct {
				URL string `json:"url"`
			} `json:"workers"`
		}
		if err := getJSON(ctx, c.coord.url+"/v1/workers", &list); err != nil {
			c.stop()
			return nil, err
		}
		for _, w := range list.Workers {
			if w.URL == c.worker.url {
				return c, nil
			}
		}
		select {
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clusterSpec is the campaign of operation i: one field × {posit32,
// ieee32}. Operations walk the Table 1 fields in order from a
// seed-drawn start, so every run of 16 or more campaigns weighs the
// fields (whose generation costs differ) equally.
func clusterSpec(seed uint64, i int, smoke bool) *spec.CampaignSpec {
	fields := sdrbench.Fields()
	f := fields[(mix64(seed, "cluster_campaign.field")+uint64(i))%uint64(len(fields))]
	cs := &spec.CampaignSpec{Fields: []string{f.Key()}, Formats: []string{"posit32", "ieee32"},
		N: 100_000, TrialsPerBit: 313, Seed: opSeed(seed, "cluster_campaign", i), BitsPerShard: 8}
	if smoke {
		cs.N, cs.TrialsPerBit = 2_000, 4
	}
	if verr := cs.Validate(); verr != nil {
		panic(verr) // fixed and valid
	}
	return cs
}

// clusterResult is what one campaign operation fetched.
type clusterResult struct {
	id   string
	csvs map[string][]byte              // by "field codec"
	docs map[string]*store.AggregateDoc // by "field codec"
}

// clusterOp submits cs and waits for it, then fetches every result as
// CSV and as an aggregate document: submit to last result byte.
func clusterOp(ctx context.Context, c *serve.Client, cs *spec.CampaignSpec, tr *tracer, op int) (*clusterResult, error) {
	root := tr.begin(opSpan, op, -1)
	defer tr.end(root)
	id := tr.begin(spanSubmitWait, op, root)
	st, err := c.SubmitCampaign(ctx, cs, true)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if st.State != "complete" {
		return nil, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res := &clusterResult{id: st.ID, csvs: map[string][]byte{}, docs: map[string]*store.AggregateDoc{}}
	for _, ref := range st.Results {
		var b bytes.Buffer
		id := tr.begin(spanResultsCSV, op, root)
		err := c.CampaignResult(ctx, st.ID, ref.Field, ref.Format, &b)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin(spanResultsJSON, op, root)
		doc, err := c.FetchAggregate(ctx, st.ID, ref.Field, ref.Format) // parsed by store.ReadDoc
		tr.end(id)
		if err != nil {
			return nil, err
		}
		key := ref.Field + " " + ref.Format
		res.csvs[key], res.docs[key] = b.Bytes(), doc
	}
	return res, nil
}

// checkCluster verifies one operation's results: every (field, format)
// present, CSV byte-identical to a direct local render, and an
// aggregate document for the whole campaign.
func checkCluster(ctx context.Context, cs *spec.CampaignSpec, res *clusterResult) error {
	for _, f := range cs.Fields {
		for _, codec := range cs.Formats {
			key := f + " " + codec
			got, ok := res.csvs[key]
			if !ok {
				return fmt.Errorf("campaign %s: no result for %s", res.id, key)
			}
			want, err := directCSV(ctx, cs, f, codec)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("campaign %s: %s CSV differs from a local render (%d vs %d bytes)", res.id, key, len(got), len(want))
			}
			cd, _ := numfmt.Lookup(codec)
			doc := res.docs[key]
			if doc.Field != f || doc.Codec != codec || !doc.Sealed || doc.Trials != uint64(cd.Width()*cs.TrialsPerBit) || len(doc.Bits) != cd.Width() {
				return fmt.Errorf("campaign %s: %s aggregate document is for %s/%s, sealed=%v, %d trials, %d bits",
					res.id, key, doc.Field, doc.Codec, doc.Sealed, doc.Trials, len(doc.Bits))
			}
		}
	}
	return nil
}

// clusterOpFunc runs, checks and clears one campaign, with its client
// spans on tr (nil: untraced); keep, when set, inspects the job's state
// directory before it is cleared. It returns the spec it ran and the
// campaign's wall time.
type clusterOpFunc func(c *cluster, tr *tracer, traceOp int, keep func(jobDir string) error) (*spec.CampaignSpec, float64, error)

func runClusterCampaign(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	next := 0
	var op clusterOpFunc = func(c *cluster, tr *tracer, traceOp int, keep func(jobDir string) error) (*spec.CampaignSpec, float64, error) {
		cs := clusterSpec(e.seed, next, e.smoke)
		next++
		o.attempted++
		start := time.Now()
		res, err := clusterOp(ctx, c.coord.client, cs, tr, traceOp)
		wall := time.Since(start).Seconds()
		if err == nil {
			err = checkCluster(ctx, cs, res)
		}
		if res != nil {
			jobDir := filepath.Join(c.dir, "coord", "jobs", res.id)
			if err == nil && keep != nil {
				err = keep(jobDir)
			}
			_ = os.RemoveAll(jobDir) // best effort: the whole state directory goes at exit
		}
		if err != nil {
			o.fail(err)
		}
		return cs, wall, err
	}

	setups := e.setups()
	var c *cluster
	for k := 0; k < setups; k++ {
		c.stopIfSet()
		start := time.Now()
		var err error
		if c, err = startCluster(ctx, e, filepath.Join(e.state, fmt.Sprintf("cluster%d", k))); err != nil {
			return nil, err
		}
		if _, _, err := op(c, nil, 0, nil); err != nil {
			c.stop()
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	defer c.stop()

	before, err := scrape(ctx, c.coord)
	if err != nil {
		return nil, err
	}
	if e.trace {
		if err := clusterLedger(ctx, e, o, c, before, op); err != nil {
			return nil, err
		}
		return o, nil
	}
	for o.window < e.seconds && ctx.Err() == nil {
		cs, wall, err := op(c, nil, 0, nil)
		o.window += wall
		if err == nil {
			o.lat = append(o.lat, wall)
			o.rates = append(o.rates, float64(planOf(cs).injections)/wall)
		}
	}
	o.rssMB = c.coord.peakRSSMB() + c.worker.peakRSSMB()
	after, err := scrape(ctx, c.coord)
	if err != nil {
		return nil, err
	}
	if n := after.Cluster.WireFallbacks - before.Cluster.WireFallbacks; n > 0 {
		o.fail(fmt.Errorf("%d shard responses fell back to CSV", n))
	}
	return o, nil
}

// clusterLedger is the traced run of cluster_campaign. Campaigns
// alternate between untraced and traced, so that drift in the host's
// speed falls on both sides of the overhead ratio. It records client
// spans around each serve.Client call, server counters from /metrics,
// and disk and store read-path counts from the coordinator's job
// directory. Then a fixed-count /v1/inject probe on the coordinator
// measures the inject handler and its cache.
func clusterLedger(ctx context.Context, e *env, o *outcome, c *cluster, before serverMetrics, op clusterOpFunc) error {
	tr := e.newTracer()
	var plain, traced []float64
	var disk diskCounts
	var renderS, renderBytes, genS, trials float64
	var generateCalls int
	keep := func(jobDir string) error {
		d, rs, rb, n, err := inspectJob(jobDir)
		disk = d
		renderS += rs
		renderBytes += rb
		trials += n
		return err
	}
	for k := 0; sum(plain)+sum(traced) < e.seconds || len(traced) == 0; k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		on := k%2 == 1
		var opTr *tracer
		if on {
			opTr = tr
		}
		cs, wall, err := op(c, opTr, len(traced), keep)
		if err != nil {
			break
		}
		if on {
			traced = append(traced, wall)
		} else {
			plain = append(plain, wall)
		}
		// The coordinator generates each spec's dataset once and the
		// worker regenerates it for every shard; time one such call here.
		p := planOf(cs)
		generateCalls = p.specs + p.shards
		f, _ := sdrbench.Lookup(cs.Fields[0])
		start := time.Now()
		sdrbench.ToFloat64(f.Generate(cs.N, cs.Seed))
		genS += time.Since(start).Seconds() * float64(generateCalls)
	}
	after, err := scrape(ctx, c.coord)
	if err != nil {
		return err
	}
	l := tr.ledger(len(traced), sum(traced))
	fillLedger(o, l, overheadFrac(traced, plain))
	n := float64(len(plain) + len(traced))
	o.layers["sdrbench.generate_calls"] = float64(generateCalls)
	o.layers["sdrbench.generate_s"] = genS / n
	o.layers["core.injections"] = trials / n
	o.layers["wire.frames"] = float64(after.Cluster.WireFrames-before.Cluster.WireFrames) / n
	o.layers["wire.bytes"] = float64(after.Cluster.WireBytes-before.Cluster.WireBytes) / n
	o.layers["wire.fallbacks"] = float64(after.Cluster.WireFallbacks-before.Cluster.WireFallbacks) / n
	if w := after.Campaign.Workers; w > 0 {
		o.layers["runner.worker_utilization"] = float64(after.Campaign.WorkerBusyNS-before.Campaign.WorkerBusyNS) / (float64(w) * (sum(plain) + sum(traced)) * 1e9)
	}
	o.layers["runner.journal_records"] = float64(disk.journalRecords)
	o.layers["runner.journal_bytes"] = float64(disk.journalBytes)
	o.layers["store.file_bytes"] = float64(disk.storeBytes)
	o.layers["store.render_s"] = renderS / n
	o.layers["store.render_bytes"] = renderBytes / n
	if fb := after.Cluster.WireFallbacks - before.Cluster.WireFallbacks; fb > 0 {
		o.fail(fmt.Errorf("%d shard responses fell back to CSV", fb))
	}
	shape := injectShapeOf(e.smoke)
	_, _, err = injectProbe(ctx, e, o, c.coord, injectCases(e.seed, shape.universe), e.seed, shape.traced)
	return err
}

func (c *cluster) stopIfSet() {
	if c != nil {
		c.stop()
	}
}

// inspectJob reads one finished job's state directory: journal records
// and bytes, store bytes and rows (the injections the worker ran), and
// the time the store layer takes to render every store back to CSV
// (the read path GET /results serves).
func inspectJob(dir string) (diskCounts, float64, float64, float64, error) {
	var dc diskCounts
	var renderS, renderBytes, rows float64
	ents, err := os.ReadDir(filepath.Join(dir, "state", "journal"))
	if err != nil {
		return dc, 0, 0, 0, err
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return dc, 0, 0, 0, err
		}
		dc.journalRecords++
		dc.journalBytes += info.Size()
	}
	stores, err := filepath.Glob(filepath.Join(dir, "*.pts"))
	if err != nil {
		return dc, 0, 0, 0, err
	}
	for _, path := range stores {
		fi, err := os.Stat(path)
		if err != nil {
			return dc, 0, 0, 0, err
		}
		dc.storeBytes += fi.Size()
		var b bytes.Buffer
		start := time.Now()
		rd, err := store.Open(path)
		if err == nil {
			rows += float64(rd.Rows())
			err = rd.RenderCSV(&b)
			_ = rd.Close() // opened only to read
		}
		renderS += time.Since(start).Seconds()
		renderBytes += float64(b.Len())
		if err != nil {
			return dc, 0, 0, 0, err
		}
	}
	return dc, renderS, renderBytes, rows, nil
}

// ---- inject_zipf ----

// injectCase is one distinct /v1/inject query and its expected answer.
type injectCase struct {
	req  serve.InjectRequest
	want serve.InjectResponse
}

// injectFormats are the codecs the inject workload queries.
var injectFormats = []string{"posit16", "posit32", "ieee32"}

// injectCases builds the query universe from the seed: key j uses
// format j mod 3, the encoding of a log-uniform value in ±[1e-6, 1e6],
// and a uniform bit. Expected answers come straight from the codec.
func injectCases(seed uint64, size int) []injectCase {
	rng := sdrbench.NewRNG(seed, "inject_zipf")
	cases := make([]injectCase, size)
	for j := range cases {
		cd, _ := numfmt.Lookup(injectFormats[j%len(injectFormats)])
		v := math.Pow(10, 12*rng.Float64()-6)
		if rng.Intn(2) == 1 {
			v = -v
		}
		pattern := cd.Encode(v)
		bit := rng.Intn(cd.Width())
		hex := fmt.Sprintf("0x%x", pattern)
		cases[j].req = serve.InjectRequest{Format: cd.Name(), Pattern: &hex, Bit: &bit}
		cases[j].want = directInject(cd, pattern, bit)
	}
	return cases
}

// directInject computes the answer /v1/inject should give for a raw
// pattern, from the codec itself.
func directInject(cd numfmt.Codec, pattern uint64, bit int) serve.InjectResponse {
	repr := cd.Decode(pattern)
	faulty := bitflip.Flip(pattern, bit)
	fv := cd.Decode(faulty)
	k := 0
	if rs, ok := cd.(numfmt.RegimeSizer); ok {
		k = rs.RegimeK(pattern)
	}
	p := qcat.Point(repr, fv)
	return serve.InjectResponse{
		Format: cd.Name(), Bit: bit, BitField: cd.FieldAt(pattern, bit), RegimeK: k,
		OrigValue: serve.JSONFloat(repr), ReprValue: serve.JSONFloat(repr),
		OrigBits: serve.HexBits(pattern), FaultyBits: serve.HexBits(faulty), FaultyValue: serve.JSONFloat(fv),
		AbsErr: serve.JSONFloat(p.AbsErr), RelErr: serve.JSONFloat(p.RelErr), Catastrophic: p.Catastrophic,
	}
}

// sameInject compares two answers bit for bit, ignoring Cached.
func sameInject(a, b serve.InjectResponse) bool {
	same := func(x, y serve.JSONFloat) bool {
		fx, fy := float64(x), float64(y)
		return math.Float64bits(fx) == math.Float64bits(fy) || (math.IsNaN(fx) && math.IsNaN(fy))
	}
	return a.Format == b.Format && a.Bit == b.Bit && a.BitField == b.BitField && a.RegimeK == b.RegimeK &&
		a.OrigBits == b.OrigBits && a.FaultyBits == b.FaultyBits && a.Catastrophic == b.Catastrophic &&
		same(a.OrigValue, b.OrigValue) && same(a.ReprValue, b.ReprValue) && same(a.FaultyValue, b.FaultyValue) &&
		same(a.AbsErr, b.AbsErr) && same(a.RelErr, b.RelErr)
}

// injectShape sizes the inject workload.
type injectShape struct {
	universe int // distinct (format, pattern, bit) queries; the LRU holds 4096
	warmup   int // requests in the set-up's warm-up batch
	traced   int // requests in each half of the trace run
}

func injectShapeOf(smoke bool) injectShape {
	if smoke {
		return injectShape{universe: 512, warmup: 50, traced: 200}
	}
	return injectShape{universe: 1 << 16, warmup: 2000, traced: 5000}
}

// zipfStream draws query indexes with Zipf(s = 1.1) popularity, so the
// server's LRU sees both hits and misses.
func zipfStream(seed uint64, label string, universe int) *rand.Zipf {
	r := rand.New(rand.NewSource(int64(mix64(seed, label) >> 1)))
	return rand.NewZipf(r, 1.1, 1, uint64(universe-1))
}

// injectTally is one connection's share of a measured loop.
type injectTally struct {
	lat       []float64
	done      []float64 // seconds from the loop's start to each answered request
	attempted int64
	failed    []error
}

// injectLoop runs one closed-loop connection until count requests are
// done (count > 0) or until the deadline.
func injectLoop(ctx context.Context, c *serve.Client, cases []injectCase, z *rand.Zipf, count int, deadline time.Time, tr *tracer) injectTally {
	var t injectTally
	loopStart := time.Now()
	for i := 0; ; i++ {
		if count > 0 && i >= count || count == 0 && !time.Now().Before(deadline) || ctx.Err() != nil {
			return t
		}
		q := &cases[z.Uint64()]
		t.attempted++
		root := tr.begin(opSpan, i, -1)
		start := time.Now()
		id := tr.begin(spanServeInject, i, root)
		got, err := c.Inject(ctx, q.req)
		tr.end(id)
		wall := time.Since(start).Seconds()
		if err == nil && !sameInject(*got, q.want) {
			err = fmt.Errorf("inject %s %s bit %d: answer differs from the codec", q.req.Format, *q.req.Pattern, *q.req.Bit)
		}
		tr.end(root)
		if err != nil {
			t.failed = append(t.failed, err)
			continue
		}
		t.lat = append(t.lat, wall)
		t.done = append(t.done, time.Since(loopStart).Seconds())
	}
}

// sliceRates counts the requests answered in each whole one-second
// slice of a loop and returns them as rates. The median slice is
// steadier than the whole-window mean when the host briefly slows.
func sliceRates(done []float64) []float64 {
	if len(done) == 0 {
		return nil
	}
	if last := done[len(done)-1]; last < 1 {
		return []float64{float64(len(done)) / last} // a smoke-sized loop
	}
	counts := make([]float64, int(done[len(done)-1]))
	for _, d := range done {
		if k := int(d); k < len(counts) {
			counts[k]++
		}
	}
	return counts
}

func (o *outcome) add(t injectTally) {
	o.attempted += t.attempted
	for _, err := range t.failed {
		o.fail(err)
	}
	o.lat = append(o.lat, t.lat...)
}

func runInjectZipf(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	shape := injectShapeOf(e.smoke)
	cases := injectCases(e.seed, shape.universe)

	setups := e.setups()
	var s *server
	for k := 0; k < setups; k++ {
		s.stop()
		start := time.Now()
		var err error
		if s, err = startServer(ctx, e.program("positserve"), filepath.Join(e.state, fmt.Sprintf("serve%d", k))); err != nil {
			return nil, err
		}
		warm := injectLoop(ctx, s.client, cases, zipfStream(e.seed, "warmup", shape.universe), shape.warmup, time.Time{}, nil)
		o.add(warm)
		if len(warm.failed) > 0 {
			s.stop()
			return nil, fmt.Errorf("warm-up: %v", warm.failed[0])
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	defer s.stop()

	if !e.trace {
		// One closed-loop connection: on two CPUs a second one mostly
		// contends with the server for the same cores, and the run-to-run
		// spread triples.
		start := time.Now()
		deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
		t := injectLoop(ctx, s.client, cases, zipfStream(e.seed, "conn0", shape.universe), 0, deadline, nil)
		o.add(t)
		o.window = time.Since(start).Seconds()
		o.rates = sliceRates(t.done) // each answered request is one injection
		o.rssMB = s.peakRSSMB()
		return o, nil
	}

	l, overhead, err := injectProbe(ctx, e, o, s, cases, e.seed, shape.traced)
	if err != nil {
		return nil, err
	}
	fillLedger(o, l, overhead)
	return o, nil
}

// injectProbe sends count Zipf-drawn /v1/inject queries on one
// connection, untraced and then traced, and records the inject layer:
// the serve.inject span's self time per request and the cache hits and
// misses /metrics counts during the traced half, which are exact for a
// seed and a server state. It returns the traced ledger and the tracing
// overhead (traced wall over untraced wall, minus one).
func injectProbe(ctx context.Context, e *env, o *outcome, s *server, cases []injectCase, seed uint64, count int) (ledger, float64, error) {
	z := zipfStream(seed, "probe", len(cases))
	start := time.Now()
	o.add(injectLoop(ctx, s.client, cases, z, count, time.Time{}, nil))
	untraced := time.Since(start).Seconds()
	before, err := scrape(ctx, s)
	if err != nil {
		return ledger{}, 0, err
	}
	tr := e.newTracer()
	start = time.Now()
	o.add(injectLoop(ctx, s.client, cases, z, count, time.Time{}, tr))
	traced := time.Since(start).Seconds()
	after, err := scrape(ctx, s)
	if err != nil {
		return ledger{}, 0, err
	}
	l := tr.ledger(count, traced)
	o.layers["serve.inject_s"] = l.perOp(l.selfS[spanServeInject])
	hits := after.InjectCache.Hits - before.InjectCache.Hits
	misses := after.InjectCache.Misses - before.InjectCache.Misses
	o.layers["serve.inject_cache_hits"] = float64(hits)
	o.layers["serve.inject_cache_misses"] = float64(misses)
	if hits+misses > 0 {
		o.layers["serve.inject_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return l, traced/untraced - 1, nil
}
