// Quickstart: encode a value as a posit and an IEEE float, flip one
// bit in each, and compare the damage — the paper's core experiment in
// twenty lines.
package main

import (
	"fmt"

	"positres"
)

func main() {
	const value = 186.25
	const bit = 29 // an upper bit: IEEE exponent territory

	// Posit side: encode, flip, decode.
	p := positres.P32FromFloat64(value)
	fmt.Printf("posit32 %g = %s\n", value, positres.PositBitString(positres.Std32, uint64(p.Bits())))
	pFlip := positres.AnalyzeFlip(mustFormat("posit32"), uint64(p.Bits()), bit)
	fmt.Printf("  flip bit %d (%s): %g -> %g   rel err %.3g\n",
		bit, pFlip.Class, pFlip.ReprValue, pFlip.FaultyVal, pFlip.RelErr)

	// IEEE side: same bit position.
	iFlip := positres.AnalyzeFlip(mustFormat("ieee32"), positres.Binary32.Encode(value), bit)
	fmt.Printf("ieee32  %g: flip bit %d (%s): %g -> %g   rel err %.3g\n",
		value, bit, iFlip.FieldName, iFlip.ReprValue, iFlip.FaultyVal, iFlip.RelErr)

	// The posit stays within a few orders of magnitude; the IEEE float
	// is scaled by 2^64. Now run a miniature campaign over a synthetic
	// scientific dataset to see the aggregate picture.
	field, err := positres.LookupField("Nyx/temperature")
	if err != nil {
		panic(err)
	}
	data := positres.WidenFloat32(field.Generate(50_000, 1))

	cfg := positres.DefaultCampaignConfig()
	cfg.TrialsPerBit = 40
	for _, name := range []string{"posit32", "ieee32"} {
		res, err := positres.RunCampaign(cfg, mustFormat(name), field.Key(), data)
		if err != nil {
			panic(err)
		}
		aggs := positres.AggregateByBit(res.Trials)
		fmt.Printf("\n%s mean relative error by bit (every 4th bit):\n", name)
		for _, a := range aggs {
			if a.Bit%4 == 3 {
				fmt.Printf("  bit %2d: %.3g\n", a.Bit, a.MeanRelErr)
			}
		}
	}
}

func mustFormat(name string) positres.Codec {
	codec, err := positres.LookupFormat(name)
	if err != nil {
		panic(err)
	}
	return codec
}
