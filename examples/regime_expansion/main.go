// regime_expansion walks the paper's regime worked examples:
// Fig. 12 (flipping R_k expands the regime, scaling by 2^(4n)),
// Fig. 13 (flips in R_0..R_{k-1} give comparable absolute error), and
// Fig. 15 (the k=1 below-one edge case that expands AND inverts the
// regime, producing absolute-error spikes up to 1e11).
package main

import (
	"fmt"

	"positres"
)

func show(label string, bits uint64, pos int) positres.Flip {
	p32, err := positres.LookupFormat("posit32")
	if err != nil {
		panic(err)
	}
	pf := positres.AnalyzeFlip(p32, bits, pos)
	fmt.Printf("%s\n", label)
	fmt.Printf("  before: %s = %g (k=%d)\n",
		positres.PositBitString(positres.Std32, pf.Bits), pf.ReprValue, pf.RegimeK)
	fmt.Printf("  flip bit %d [%s]\n", pos, pf.Class)
	fmt.Printf("  after:  %s = %g (k=%d)\n",
		positres.PositBitString(positres.Std32, pf.FaultyBits), pf.FaultyVal, pf.FaultyK)
	fmt.Printf("  abs err %.4g, rel err %.4g\n\n", pf.AbsErr, pf.RelErr)
	return pf
}

func main() {
	cfg := positres.Std32

	// Fig. 12: a large posit whose exponent and fraction MSBs continue
	// the run once R_k flips — the regime expands by several bits and
	// the magnitude explodes by ~2^(4n).
	big := positres.P32FromFloat64(186250)
	f := positres.DecodePositFields(cfg, uint64(big.Bits()))
	rkPos := cfg.N - 2 - f.K
	pf := show("Fig 12: regime expansion (R_k flip of 186250)", uint64(big.Bits()), rkPos)
	fmt.Printf("  regime value moved by Δr = %d → scale ≈ 2^%d\n\n", pf.RegimeDelta, 4*pf.RegimeDelta)

	// Fig. 13: R_0 vs R_{k-1} — both collapse the magnitude, so the
	// absolute errors are comparable (≈ |orig|).
	e0 := show("Fig 13a: flip R_0 of 186250", uint64(big.Bits()), cfg.N-2)
	eK := show("Fig 13b: flip R_{k-1} of 186250", uint64(big.Bits()), cfg.N-2-(f.K-1))
	fmt.Printf("Fig 13: abs err ratio R_0 / R_{k-1} = %.3f (comparable)\n\n", e0.AbsErr/eK.AbsErr)

	// Fig. 15: a below-one posit with a single regime bit and a dense
	// fraction. Flipping the sole run bit inverts the regime direction
	// AND extends the run deep into the fraction.
	var edge uint64
	edge |= 0b01 << 29            // regime k=1 (below one)
	edge |= 0b11 << 27            // exponent 3
	edge |= (uint64(1) << 27) - 1 // fraction all ones
	pf = show("Fig 15: sole-regime-bit invert-and-expand edge case", edge, 30)
	fmt.Printf("Fig 15: the paper reports spikes up to 1e11; measured abs err = %.3g\n", pf.AbsErr)
}
