package positres_test

// Runnable godoc examples for the public API. Each executes as a test
// and its output is verified against the comment.

import (
	"fmt"

	"positres"
)

func ExampleP32FromFloat64() {
	p := positres.P32FromFloat64(186.25)
	fmt.Println(p.Float64())
	fmt.Println(positres.PositBitString(positres.Std32, uint64(p.Bits())))
	// Output:
	// 186.25
	// 0|110|11|01110100100000000000000000
}

func ExamplePosit32_Add() {
	a := positres.P32FromFloat64(0.1)
	b := positres.P32FromFloat64(0.2)
	fmt.Printf("%.10f\n", a.Add(b).Float64())
	// Output:
	// 0.3000000007
}

func ExampleAnalyzeFlip_posit() {
	// Flip the terminating regime bit of a large posit: the regime
	// expands and the magnitude explodes (paper Fig. 12).
	p32, _ := positres.LookupFormat("posit32")
	bits := uint64(positres.P32FromFloat64(186250).Bits())
	f := positres.DecodePositFields(positres.Std32, bits)
	rkPos := positres.Std32.N - 2 - f.K
	flip := positres.AnalyzeFlip(p32, bits, rkPos)
	fmt.Println(flip.Class)
	fmt.Printf("%.0f -> %.0f\n", flip.ReprValue, flip.FaultyVal)
	// Output:
	// regime-expand
	// 186250 -> 7725696
}

func ExampleAnalyzeFlip_ieee() {
	// Flip an upper exponent bit of an IEEE float: ×2^64.
	ieee32, _ := positres.LookupFormat("ieee32")
	bits := positres.Binary32.Encode(186.25)
	flip := positres.AnalyzeFlip(ieee32, bits, 29)
	fmt.Println(flip.FieldName)
	fmt.Printf("%.4g\n", flip.FaultyVal)
	// Output:
	// exponent
	// 3.436e+21
}

func ExampleDotP32() {
	a := []positres.Posit32{
		positres.P32FromFloat64(1.5),
		positres.P32FromFloat64(-2),
	}
	b := []positres.Posit32{
		positres.P32FromFloat64(4),
		positres.P32FromFloat64(2.25),
	}
	// The quire accumulates exactly; one rounding at the end.
	fmt.Println(positres.DotP32(a, b).Float64())
	// Output:
	// 1.5
}

func ExampleRunCampaign() {
	field, _ := positres.LookupField("Hurricane/Vf30")
	data := positres.WidenFloat32(field.Generate(10000, 1))
	codec, _ := positres.LookupFormat("posit32")

	cfg := positres.DefaultCampaignConfig()
	cfg.TrialsPerBit = 50
	res, _ := positres.RunCampaign(cfg, codec, field.Key(), data)

	aggs := positres.AggregateByBit(res.Trials)
	fmt.Println(len(res.Trials), "trials over", len(aggs), "bit positions")
	// The sign bit is always position 31.
	fmt.Println(aggs[31].Bit, aggs[31].Trials)
	// Output:
	// 1600 trials over 32 bit positions
	// 31 50
}

func ExampleLookupFormat() {
	c, _ := positres.LookupFormat("posit16")
	fmt.Println(c.Name(), c.Width())
	bits := c.Encode(2.5)
	fmt.Println(c.Decode(bits))
	fmt.Println(c.FieldAt(bits, 15), c.FieldAt(bits, 0))
	// Output:
	// posit16 16
	// 2.5
	// sign fraction
}
