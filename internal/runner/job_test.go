package runner

import (
	"context"
	"testing"

	"positres/internal/spec"
)

// tinyConfig returns a fast durable campaign config for job-API tests.
func tinyConfig(dir string) Config {
	return Config{
		Spec: &spec.CampaignSpec{
			Fields:       []string{"CESM/CLOUD"},
			Formats:      []string{"posit8"},
			N:            256,
			Seed:         1,
			TrialsPerBit: 2,
		},
		Dir:     dir,
		Workers: 2,
		Sink:    discardSink{},
	}
}

func TestReadManifest(t *testing.T) {
	dir := t.TempDir()

	// A fresh directory has no manifest — and that is not an error.
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest(empty) error: %v", err)
	}
	if m != nil {
		t.Fatalf("ReadManifest(empty) = %+v, want nil", m)
	}

	cfg := tinyConfig(dir)
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("campaign not complete: %+v", rep)
	}

	m, err = ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m == nil {
		t.Fatal("ReadManifest returned nil after a completed run")
	}
	if m.State != StateComplete {
		t.Fatalf("manifest state = %q, want %q", m.State, StateComplete)
	}
	want := Spec{Field: "CESM/CLOUD", Codec: "posit8", N: 256, Seed: 1}
	if len(m.Specs) != 1 || m.Specs[0] != want {
		t.Fatalf("manifest specs = %+v, want %+v", m.Specs, want)
	}
	if m.State != rep.Outcome() {
		t.Fatalf("manifest state %q != report outcome %q", m.State, rep.Outcome())
	}
}

func TestReportOutcome(t *testing.T) {
	cases := []struct {
		rep  Report
		want string
	}{
		{Report{}, StateComplete},
		{Report{Failed: 1}, StatePartial},
		{Report{Cancelled: true}, StateCancelled},
		{Report{Cancelled: true, Failed: 3}, StateCancelled},
	}
	for _, c := range cases {
		if got := c.rep.Outcome(); got != c.want {
			t.Errorf("Outcome(%+v) = %q, want %q", c.rep, got, c.want)
		}
	}
}
