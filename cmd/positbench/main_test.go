package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the whole binary path — flag parsing, the
// benchmark suite at 1 iteration each, derived metrics, and the
// atomic JSON write — and validates the emitted baseline document.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &buf); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
	if !rep.Smoke {
		t.Fatal("smoke flag not recorded")
	}
	if len(rep.Benchmarks) == 0 {
		t.Fatal("no benchmarks recorded")
	}
	names := map[string]bool{}
	for _, b := range rep.Benchmarks {
		if b.N <= 0 {
			t.Fatalf("%s ran %d iterations", b.Name, b.N)
		}
		if b.NsPerOp <= 0 {
			t.Fatalf("%s ns/op = %v", b.Name, b.NsPerOp)
		}
		names[b.Name] = true
	}
	for _, want := range []string{
		"posit8_decode_lut", "posit8_decode_generic",
		"posit16_decode_lut", "posit16_decode_generic",
		"campaign_runrange_posit32", "block_encode_shard", "store_append_shard",
	} {
		if !names[want] {
			t.Fatalf("suite missing %s", want)
		}
	}
	for _, k := range []string{"posit8_decode_speedup", "posit16_decode_speedup"} {
		if rep.Derived[k] <= 0 {
			t.Fatalf("derived %s = %v, want > 0", k, rep.Derived[k])
		}
	}
	if !strings.Contains(buf.String(), "baseline:") {
		t.Fatalf("stdout missing baseline line:\n%s", buf.String())
	}
}

// TestRunBadFlag ensures usage errors exit 2 without running benches.
func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &buf); code != 2 {
		t.Fatalf("run exited %d, want 2", code)
	}
}
