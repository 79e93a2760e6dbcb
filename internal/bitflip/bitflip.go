// Package bitflip implements the fault model of the paper's fault
// injection campaign (§4.1): flips of chosen bit positions via XOR
// masks, one position for a trial and several for the multi-bit
// extension the paper lists as future work. The caller chooses the
// positions. All functions operate on right-aligned bit patterns, the
// representation shared by every numfmt codec.
package bitflip

import "fmt"

// Mask returns the XOR mask with a single one at bit position pos
// (0 = LSB), as built by the paper's trial setup.
func Mask(pos int) uint64 {
	if pos < 0 || pos > 63 {
		panic(fmt.Sprintf("bitflip: position %d out of range", pos))
	}
	return uint64(1) << uint(pos)
}

// Flip returns bits with the bit at pos inverted.
func Flip(bits uint64, pos int) uint64 { return bits ^ Mask(pos) }

// FlipMany returns bits with every listed position inverted. Positions
// may repeat; each occurrence toggles again (XOR semantics).
func FlipMany(bits uint64, positions ...int) uint64 {
	for _, p := range positions {
		bits ^= Mask(p)
	}
	return bits
}
