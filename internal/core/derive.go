package core

import (
	"positres/internal/bitflip"
	"positres/internal/numfmt"
	"positres/internal/qcat"
)

// A trial's derived half — every column of paper Fig. 8's per-trial
// log except the chosen element's index and value — is a pure
// function of (format, bit, original value). Deriver is the one place
// it is computed: the campaign loop fills each trial through Fill, the
// store block decoder rebuilds its rows through Fill (a block stores
// only index and original value), and /v1/inject answers a pattern
// query through FromPattern.

// Flip is the pattern-derived half of one bit flip: everything a flip
// of an encoded pattern determines without the value it came from.
type Flip struct {
	ReprValue  float64 // decoded pattern: the value after rounding into the format
	FaultyBits uint64  // pattern with the bit inverted
	FaultyVal  float64 // decoded FaultyBits
	FieldName  string  // field owning the bit in the pattern: sign/regime/exponent/fraction
	RegimeK    int     // posit regime run length k of the pattern (0 for IEEE formats)
}

// Deriver computes derived halves for one codec. It resolves the
// codec's numfmt.RegimeSizer once, so a loop over many rows pays for
// the type assertion once, and takes a posit flip's field and regime
// run length k from the sizer's one FieldAndRegimeK call, which
// decomposes the pattern once for both. The zero value is not usable;
// construct with NewDeriver. A Deriver is a small value, safe for
// concurrent use because codecs are.
type Deriver struct {
	codec numfmt.Codec
	sizer numfmt.RegimeSizer // nil for formats without a regime
}

// NewDeriver returns the Deriver of codec.
func NewDeriver(codec numfmt.Codec) Deriver {
	sizer, _ := codec.(numfmt.RegimeSizer)
	return Deriver{codec: codec, sizer: sizer}
}

// FromPattern is the pattern entry: the flip of bit in an encoded
// pattern. bit must lie in [0, codec width).
func (d Deriver) FromPattern(pattern uint64, bit int) Flip {
	f := Flip{
		ReprValue:  d.codec.Decode(pattern),
		FaultyBits: bitflip.Flip(pattern, bit),
	}
	f.FaultyVal = d.codec.Decode(f.FaultyBits)
	if d.sizer != nil {
		f.FieldName, f.RegimeK = d.sizer.FieldAndRegimeK(pattern, bit)
	} else {
		f.FieldName = d.codec.FieldAt(pattern, bit)
	}
	return f
}

// Fill is the value entry: it sets every derived field of tr — the
// encoded pattern, the flip and the errors — from tr.Bit and
// tr.OrigValue, leaving the identity fields (Field, Codec, Bit, Seq,
// Index, OrigValue) as they are. The errors measure FaultyVal against
// OrigValue (qcat.Point).
func (d Deriver) Fill(tr *Trial) {
	tr.OrigBits = d.codec.Encode(tr.OrigValue)
	f := d.FromPattern(tr.OrigBits, tr.Bit)
	tr.ReprValue = f.ReprValue
	tr.FaultyBits = f.FaultyBits
	tr.FaultyVal = f.FaultyVal
	tr.FieldName = f.FieldName
	tr.RegimeK = f.RegimeK
	p := qcat.Point(tr.OrigValue, f.FaultyVal)
	tr.AbsErr = p.AbsErr
	tr.RelErr = p.RelErr
	tr.Catastrophic = p.Catastrophic
}
