// sign_flip demonstrates the paper's §5.7: flipping a posit's sign bit
// is NOT negation (negation is two's complement), so the magnitude
// changes too — drastically for large regimes (Figs. 19–21) — while an
// IEEE sign flip always yields exactly the negated value (rel err 2).
package main

import (
	"fmt"
	"math"

	"positres"
)

func main() {
	cfg := positres.Std32
	p32, err := positres.LookupFormat("posit32")
	if err != nil {
		panic(err)
	}
	ieee32, err := positres.LookupFormat("ieee32")
	if err != nil {
		panic(err)
	}

	// Fig. 19: negation is two's complement, not a sign-bit flip.
	p := positres.P32FromFloat64(186.25)
	flipped := positres.AnalyzeFlip(p32, uint64(p.Bits()), cfg.N-1)
	fmt.Printf("value:            %g = %s\n", p.Float64(), positres.PositBitString(cfg, uint64(p.Bits())))
	fmt.Printf("two's complement: %g = %s  (true negation)\n",
		p.Neg().Float64(), positres.PositBitString(cfg, uint64(p.Neg().Bits())))
	fmt.Printf("sign-bit flip:    %g = %s  (magnitude changed!)\n\n",
		flipped.FaultyVal, positres.PositBitString(cfg, flipped.FaultyBits))

	// IEEE contrast: the sign flip is exact negation.
	ib := positres.Binary32.Encode(186.25)
	ifl := positres.AnalyzeFlip(ieee32, ib, 31)
	fmt.Printf("ieee32 sign flip: %g -> %g (rel err exactly %g)\n\n", ifl.ReprValue, ifl.FaultyVal, ifl.RelErr)

	// Fig. 20/21: the sign-flip error grows exponentially with regime
	// size, because the sign variable multiplies the whole exponent of
	// eq. (2).
	fmt.Println("posit32 sign-bit flip error by regime size k (values 1.3 * 2^(4(k-1))):")
	fmt.Printf("%4s %14s %14s %14s %10s\n", "k", "value", "flipped value", "abs err", "rel err")
	for k := 1; k <= 7; k++ {
		v := math.Ldexp(1.3, 4*(k-1))
		b := uint64(positres.P32FromFloat64(v).Bits())
		pf := positres.AnalyzeFlip(p32, b, cfg.N-1)
		fmt.Printf("%4d %14.6g %14.6g %14.6g %10.4g\n", k, pf.ReprValue, pf.FaultyVal, pf.AbsErr, pf.RelErr)
	}
	fmt.Println("\nvalues near 1 are barely hurt; large-regime posits are devastated (Fig. 20).")
}
