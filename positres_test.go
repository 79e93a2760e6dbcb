package positres_test

// Facade tests: exercise the public API exactly as a downstream user
// (or the examples) would, without touching internal packages.

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"positres"
)

func TestFacadePositArithmetic(t *testing.T) {
	p := positres.P32FromFloat64(186.25)
	if p.Float64() != 186.25 {
		t.Fatal("round trip")
	}
	if got := p.Add(positres.P32FromFloat64(13.75)).Float64(); got != 200 {
		t.Errorf("add: %v", got)
	}
	if got := p.Mul(positres.P32FromFloat64(2)).Float64(); got != 372.5 {
		t.Errorf("mul: %v", got)
	}
	if s := positres.PositBitString(positres.Std32, uint64(p.Bits())); !strings.HasPrefix(s, "0|110|11|") {
		t.Errorf("bit string: %s", s)
	}
	f := positres.DecodePositFields(positres.Std32, uint64(p.Bits()))
	if f.K != 2 || f.R != 1 {
		t.Errorf("fields: %+v", f)
	}
	// All four widths are exposed.
	if positres.P8FromFloat64(2).Float64() != 2 || positres.P16FromFloat64(2).Float64() != 2 ||
		positres.P64FromFloat64(2).Float64() != 2 {
		t.Error("width constructors")
	}
	if positres.P8FromBits(0x80).Float64() == positres.P8FromBits(0x80).Float64() {
		// NaR compares unequal through NaN; just ensure IsNaR.
		if !positres.P8FromBits(0x80).IsNaR() {
			t.Error("NaR")
		}
	}
}

func TestFacadeQuire(t *testing.T) {
	q := positres.NewQuire(positres.Std32)
	q.AddProduct(uint64(positres.P32FromFloat64(3).Bits()), uint64(positres.P32FromFloat64(4).Bits()))
	q.AddPosit(uint64(positres.P32FromFloat64(2).Bits()))
	if got := positres.P32FromBits(uint32(q.ToPosit())).Float64(); got != 14 {
		t.Errorf("quire: %v", got)
	}
	a := []positres.Posit32{positres.P32FromFloat64(1), positres.P32FromFloat64(2)}
	b := []positres.Posit32{positres.P32FromFloat64(10), positres.P32FromFloat64(20)}
	if positres.DotP32(a, b).Float64() != 50 {
		t.Error("DotP32")
	}
	if positres.SumP32(a).Float64() != 3 {
		t.Error("SumP32")
	}
}

func TestFacadeFormatsAndFields(t *testing.T) {
	names := positres.FormatNames()
	if len(names) < 10 {
		t.Fatalf("formats: %v", names)
	}
	c, err := positres.LookupFormat("posit32")
	if err != nil || c.Width() != 32 {
		t.Fatal("LookupFormat")
	}
	if _, err := positres.LookupFormat("nope"); err == nil {
		t.Error("unknown format should error")
	}
	fields := positres.DatasetFields()
	if len(fields) != 16 {
		t.Fatalf("fields: %d", len(fields))
	}
	f, err := positres.LookupField("CESM/CLOUD")
	if err != nil {
		t.Fatal(err)
	}
	data := positres.WidenFloat32(f.Generate(1000, 1))
	if len(data) != 1000 {
		t.Fatal("generate")
	}
	s := positres.Summarize(data)
	if s.Count != 1000 || s.Min < 0 || s.Max > 1 {
		t.Errorf("summary: %+v", s)
	}
}

func TestFacadeCampaign(t *testing.T) {
	f, err := positres.LookupField("Hurricane/Vf30")
	if err != nil {
		t.Fatal(err)
	}
	data := positres.WidenFloat32(f.Generate(5000, 1))
	codec, err := positres.LookupFormat("posit16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := positres.DefaultCampaignConfig()
	cfg.TrialsPerBit = 20
	res, err := positres.RunCampaign(cfg, codec, f.Key(), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 16*20 {
		t.Fatalf("trials: %d", len(res.Trials))
	}
	aggs := positres.AggregateByBit(res.Trials)
	if len(aggs) != 16 {
		t.Fatalf("aggs: %d", len(aggs))
	}
	// CSV round trip through the facade.
	var buf bytes.Buffer
	if err := positres.WriteTrialsCSV(&buf, res.Trials); err != nil {
		t.Fatal(err)
	}
	back, err := positres.ReadTrialsCSV(&buf)
	if err != nil || len(back) != len(res.Trials) {
		t.Fatalf("csv: %v, %d", err, len(back))
	}
}

func TestFacadeAnalysis(t *testing.T) {
	p32, err := positres.LookupFormat("posit32")
	if err != nil {
		t.Fatal(err)
	}
	b := uint64(positres.P32FromFloat64(0.5).Bits())
	pf := positres.AnalyzeFlip(p32, b, 30)
	if pf.ReprValue != 0.5 || pf.RelErr <= 0 || pf.Class != "regime-invert-expand" {
		t.Errorf("posit flip: %+v", pf)
	}
	if len(positres.SweepFlips(p32, b)) != 32 {
		t.Fatal("posit sweep")
	}
	ieee32, err := positres.LookupFormat("ieee32")
	if err != nil {
		t.Fatal(err)
	}
	ifl := positres.AnalyzeFlip(ieee32, positres.Binary32.Encode(0.5), 31)
	if ifl.FaultyVal != -0.5 || ifl.RelErr != 2 {
		t.Errorf("ieee flip: %+v", ifl)
	}
	ieee16, err := positres.LookupFormat("ieee16")
	if err != nil {
		t.Fatal(err)
	}
	if len(positres.SweepFlips(ieee16, positres.Binary16.Encode(1))) != 16 {
		t.Fatal("ieee sweep")
	}
	// Binary formats exposed.
	if positres.BFloat16.Width() != 16 || positres.Binary64.Width() != 64 {
		t.Error("format geometry")
	}
}

func TestFacadeFigures(t *testing.T) {
	q := positres.Budget{DatasetN: 10000, TrialsPerBit: 10, Seed: 1}
	if out := positres.Fig3().Render(); !strings.Contains(out, "186.25") {
		t.Error("Fig3")
	}
	if out := positres.Fig7().Render(); !strings.Contains(out, "decimal digits") {
		t.Error("Fig7")
	}
	if c := positres.Fig10(q); len(c.Series) != 8 {
		t.Error("Fig10")
	}
	if tb := positres.Table1(q); len(tb.Rows) != 16 {
		t.Error("Table1")
	}
	if p := positres.Fig20(q); len(p.Groups) < 1 {
		t.Error("Fig20")
	}
	if tb := positres.SolverImpactTable(q); len(tb.Rows) != 24 {
		t.Error("SolverImpactTable")
	}
	if tb := positres.ProtectionTable(q); len(tb.Rows) != 16 {
		t.Error("ProtectionTable")
	}
	if tb := positres.SoftErrorTable(q); len(tb.Rows) != 4 {
		t.Error("SoftErrorTable")
	}
	// Budgets exported.
	if positres.PaperBudget.TrialsPerBit != 313 || positres.QuickBudget.TrialsPerBit <= 0 {
		t.Error("budgets")
	}
}

func TestFacadeFMAAndConvert(t *testing.T) {
	p := positres.P32FromFloat64(1 + math.Ldexp(1, -20))
	r := p.Mul(p)
	res := p.FMA(p, r.Neg())
	if res.IsZero() {
		t.Error("facade FMA lost residue")
	}
	if p.ToP64().ToP32() != p {
		t.Error("width conversion")
	}
	if positres.P32FromInt64(7).Float64() != 7 || positres.P32FromFloat64(7.6).Int64() != 8 {
		t.Error("int conversion")
	}
	if p.NextUp().NextDown() != p {
		t.Error("next")
	}
}

func TestFacadeDurableCampaign(t *testing.T) {
	// One canonical spec drives validation, durable execution, and the
	// service API alike.
	cs := &positres.CampaignSpec{
		Fields:       []string{"CESM/CLOUD"},
		Formats:      []string{"posit8"},
		N:            128,
		TrialsPerBit: 2,
		Seed:         3,
	}
	if verr := cs.Validate(); verr != nil {
		t.Fatalf("Validate: %s: %s", verr.Code, verr.Message)
	}
	specs := positres.ExpandSpecs(cs)
	if len(specs) != 1 {
		t.Fatalf("ExpandSpecs = %d specs, want 1", len(specs))
	}

	// The trials stream into a store; the report keeps none.
	storeDir := t.TempDir()
	cw := positres.NewCampaignStoreWriter(storeDir)
	defer cw.Abort()
	rep, err := positres.RunDurable(context.Background(), positres.RunnerConfig{
		Spec: cs, Dir: t.TempDir(), Workers: 2, Sink: cw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || len(rep.Results) != 1 || rep.Results[0] == nil || rep.Results[0].Trials != nil {
		t.Fatalf("report = %+v", rep)
	}
	if err := cw.Seal("CESM/CLOUD", "posit8"); err != nil {
		t.Fatal(err)
	}
	rd, err := positres.OpenTrialStore(filepath.Join(storeDir, positres.TrialStoreFileName("CESM/CLOUD", "posit8")))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if got := rd.Rows(); got != 8*2 {
		t.Fatalf("stored trials = %d, want 16", got)
	}
	// The store renders what the engine computes directly.
	codec, err := positres.LookupFormat("posit8")
	if err != nil {
		t.Fatal(err)
	}
	field, err := positres.LookupField("CESM/CLOUD")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := positres.DefaultCampaignConfig()
	ccfg.Seed, ccfg.TrialsPerBit = cs.Seed, cs.TrialsPerBit
	res, err := positres.RunCampaign(ccfg, codec, "CESM/CLOUD", positres.WidenFloat32(field.Generate(cs.N, cs.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	var stored, direct bytes.Buffer
	if err := rd.RenderCSV(&stored); err != nil {
		t.Fatal(err)
	}
	if err := positres.WriteTrialsCSV(&direct, res.Trials); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored.Bytes(), direct.Bytes()) {
		t.Fatal("stored CSV differs from the direct campaign's")
	}

	// Bad specs fail with the stable error code shared with the CLI
	// and the HTTP API.
	bad := &positres.CampaignSpec{Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit7"}}
	verr := bad.Validate()
	if verr == nil || verr.Code != "unknown_format" {
		t.Fatalf("Validate = %v, want unknown_format", verr)
	}

	// The service client constructs (no server needed for the type
	// surface check).
	var client *positres.ServeClient = positres.NewServeClient("http://127.0.0.1:1", nil)
	if client.BaseURL() != "http://127.0.0.1:1" {
		t.Fatalf("BaseURL = %q", client.BaseURL())
	}
	var apiErr *positres.ServeAPIError = &positres.ServeAPIError{Status: 429, Code: "queue_full", Message: "x"}
	if !strings.Contains(apiErr.Error(), "queue_full") {
		t.Fatalf("APIError.Error() = %q", apiErr.Error())
	}
}
