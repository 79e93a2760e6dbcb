package bitflip

import (
	"testing"
	"testing/quick"
)

func TestMaskAndFlip(t *testing.T) {
	if Mask(0) != 1 || Mask(5) != 32 || Mask(63) != 1<<63 {
		t.Error("mask values")
	}
	if Flip(0b1010, 1) != 0b1000 {
		t.Error("flip set bit")
	}
	if Flip(0b1010, 0) != 0b1011 {
		t.Error("flip clear bit")
	}
	for _, bad := range []int{-1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Mask(%d) should panic", bad)
				}
			}()
			Mask(bad)
		}()
	}
}

// TestFlipInvolution (property): flipping the same bit twice restores
// the pattern — the XOR guarantee the paper's §4.1 relies on.
func TestFlipInvolution(t *testing.T) {
	f := func(bits uint64, pos uint8) bool {
		p := int(pos % 64)
		return Flip(Flip(bits, p), p) == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFlipTouchesOnlyTarget (property): exactly one bit differs.
func TestFlipTouchesOnlyTarget(t *testing.T) {
	f := func(bits uint64, pos uint8) bool {
		p := int(pos % 64)
		diff := bits ^ Flip(bits, p)
		return diff == uint64(1)<<uint(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipMany(t *testing.T) {
	if FlipMany(0, 0, 1, 2) != 0b111 {
		t.Error("flip many")
	}
	// Repeated positions toggle back.
	if FlipMany(0, 3, 3) != 0 {
		t.Error("double flip should cancel")
	}
}
