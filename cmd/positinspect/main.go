// Command positinspect is a bit-level inspector for posit and
// IEEE-754 values: it decomposes a value into its fields and
// optionally sweeps every single-bit flip, reproducing the paper's
// worked examples (Figs. 3, 5, 6, 12, 13, 15, 17, 19, 21).
//
// Usage:
//
//	positinspect -value 186.25 -fmt posit32 -sweep
//	positinspect -bits 0x7FFFFFFF -fmt posit32
//	positinspect -value 0.5 -fmt ieee32 -sweep
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"positres/internal/analysis"
	"positres/internal/numfmt"
	"positres/internal/posit"
	"positres/internal/textplot"
)

func main() {
	var (
		valueFlag = flag.String("value", "", "decimal value to inspect (e.g. 186.25)")
		bitsFlag  = flag.String("bits", "", "raw bit pattern to inspect (hex, e.g. 0x40000000)")
		fmtFlag   = flag.String("fmt", "posit32", "format: "+strings.Join(numfmt.Names(), ", "))
		sweepFlag = flag.Bool("sweep", false, "sweep all single-bit flips and tabulate the errors")
	)
	flag.Parse()

	codec, err := numfmt.Lookup(*fmtFlag)
	if err != nil {
		fatal(err)
	}

	var bits uint64
	switch {
	case *bitsFlag != "":
		s := strings.TrimPrefix(strings.ToLower(*bitsFlag), "0x")
		bits, err = strconv.ParseUint(s, 16, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -bits %q: %w", *bitsFlag, err))
		}
		// Bits above the format's width are not part of the pattern:
		// describe what the decoder and the sweep see.
		if w := codec.Width(); w < 64 {
			bits &= 1<<uint(w) - 1
		}
	case *valueFlag != "":
		v, err := strconv.ParseFloat(*valueFlag, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -value %q: %w", *valueFlag, err))
		}
		bits = codec.Encode(v)
	default:
		fmt.Fprintln(os.Stderr, "need -value or -bits")
		flag.Usage()
		os.Exit(2)
	}

	describe(codec, bits)
	if *sweepFlag {
		fmt.Println()
		sweep(codec, bits)
	}
}

func describe(codec numfmt.Codec, bits uint64) {
	fmt.Printf("format:  %s (%d bits)\n", codec.Name(), codec.Width())
	fmt.Printf("bits:    %0*x\n", codec.Width()/4, bits)
	fmt.Printf("value:   %g\n", codec.Decode(bits))
	if pc, ok := codec.(*numfmt.PositCodec); ok {
		f := posit.DecodeFields(pc.Cfg, bits)
		fmt.Printf("fields:  %s  (sign|regime|exponent|fraction)\n", posit.BitString(pc.Cfg, bits))
		switch {
		case f.IsZero:
			fmt.Println("         zero pattern")
		case f.IsNaR:
			fmt.Println("         NaR (Not a Real)")
		default:
			fmt.Printf("         k=%d r=%d e=%d f=%d/%d (regime %d bits, exponent %d, fraction %d)\n",
				f.K, f.R, f.Exp, f.Frac, uint64(1)<<uint(f.FracLen),
				f.RegimeLen, f.ExpLen, f.FracLen)
		}
	} else if ic, ok := codec.(*numfmt.IEEECodec); ok {
		f := ic.Fmt.DecodeFields(bits)
		fmt.Printf("fields:  sign=%d exponent=%#x (unbiased %d) fraction=%#x\n",
			f.Sign, f.Exp, int(f.Exp)-ic.Fmt.Bias(), f.Frac)
		switch {
		case ic.Fmt.IsNaN(bits):
			fmt.Println("         NaN")
		case ic.Fmt.IsInf(bits):
			fmt.Println("         infinity")
		case ic.Fmt.IsSubnormal(bits):
			fmt.Println("         subnormal")
		}
	}
}

func sweep(codec numfmt.Codec, bits uint64) {
	t := &textplot.Table{Header: []string{
		"pos", "field", "class", "faulty bits", "faulty value", "abs err", "rel err",
	}}
	flips := analysis.Sweep(codec, bits)
	for pos := len(flips) - 1; pos >= 0; pos-- {
		f := flips[pos]
		t.AddRow(strconv.Itoa(pos), f.FieldName, string(f.Class),
			fmt.Sprintf("%0*x", codec.Width()/4, f.FaultyBits),
			fmtVal(f.FaultyVal), fmtVal(f.AbsErr), fmtVal(f.RelErr))
	}
	fmt.Print(t.Render())
}

func fmtVal(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return fmt.Sprintf("%.6g", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "positinspect:", err)
	os.Exit(1)
}
