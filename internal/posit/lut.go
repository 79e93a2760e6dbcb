package posit

// Decode lookup tables for the two standard widths small enough to
// tabulate exhaustively: posit8 (256 entries, 2 KiB) and posit16
// (65536 entries, 512 KiB). The fault-injection campaign decodes two
// patterns per trial (the clean encoding and the corrupted one), so
// for 8- and 16-bit campaigns the decode is the hottest substrate
// call; a table turns it into one indexed load.
//
// The tables are filled once at package init by decode, the path
// every other configuration takes, so they are correct by construction
// relative to it; the exhaustive cross-checks in lut_test.go
// additionally pin every entry against the bit-walking reference
// decoder and the eq. (2) decoder.
var (
	decodeLUT8  [1 << 8]float64
	decodeLUT16 [1 << 16]float64
)

func init() {
	for b := range decodeLUT8 {
		decodeLUT8[b] = decode(Std8, uint64(b))
	}
	for b := range decodeLUT16 {
		decodeLUT16[b] = decode(Std16, uint64(b))
	}
}
