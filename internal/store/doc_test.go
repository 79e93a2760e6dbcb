package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positres/internal/core"
)

// docExampleHex is the worked example of docs/STORE.md ("Worked
// example"), byte for byte. If this test fails after an intentional
// format change, bump Version and rewrite the document's example —
// never patch the constant to match drifting bytes.
const docExampleHex = `
50545343030a64656d6f2f6669656c6406706f73697438150000005054534202010201040000000000
00f83f9f081bdb6100000050545346dca2e3740117190101020101010100555555555555c53f555555
555555c53f555555555555c53f555555555555c53f000000000000d03f000000000000d03f00000000
0000d03f01086672616374696f6e000000000000f03fd18cd8126500000050545345`

// docExampleTrial is the trial of docs/STORE.md's example: 1.5 as posit8
// (0x44), bit 1 flipped to 0x46 → 1.75, a fraction hit at regime k=1.
// The block stores only its index and original value; Open's reader
// rebuilds the rest, so the read-back comparison below also pins the
// derivation against the document's annotations.
var docExampleTrial = core.Trial{
	Field: "demo/field", Codec: "posit8",
	Bit: 1, Seq: 0, Index: 4,
	OrigValue: 1.5, ReprValue: 1.5,
	OrigBits: 0x44, FaultyBits: 0x46, FaultyVal: 1.75,
	FieldName: "fraction", RegimeK: 1,
	AbsErr: 0.25, RelErr: 1.0 / 6.0, Catastrophic: false,
}

// TestDocExampleStore pins the docs/STORE.md worked example against
// the real Writer and Open — the spec's declared tiebreaker.
func TestDocExampleStore(t *testing.T) {
	want, err := hex.DecodeString(strings.Join(strings.Fields(docExampleHex), ""))
	if err != nil {
		t.Fatalf("docExampleHex is not valid hex: %v", err)
	}

	path := filepath.Join(t.TempDir(), "demo.pts")
	w, err := NewWriter(path, "demo/field", "posit8")
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.AppendShard(1, 2, []core.Trial{docExampleTrial}); err != nil {
		t.Fatalf("AppendShard: %v", err)
	}
	if err := w.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read sealed store: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("sealed store bytes diverge from docs/STORE.md:\n got %x\nwant %x", got, want)
	}

	// And the read side agrees with the document's annotations.
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer rd.Close()
	if err := rd.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rd.Field() != "demo/field" || rd.Codec() != "posit8" || rd.Rows() != 1 {
		t.Fatalf("Open read (%q, %q, %d rows), want (demo/field, posit8, 1)",
			rd.Field(), rd.Codec(), rd.Rows())
	}
	trials, err := rd.Trials()
	if err != nil {
		t.Fatalf("Trials: %v", err)
	}
	if len(trials) != 1 || trials[0] != docExampleTrial {
		t.Fatalf("decoded trials = %+v, want the doc example trial", trials)
	}
}
