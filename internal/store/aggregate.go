package store

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"positres/internal/artifact"
	"positres/internal/core"
)

// DocSchema tags the aggregate summary JSON document; readers verify
// it with artifact.CheckSchema before trusting any field.
const DocSchema = "positres-aggregate/v1"

// Float is a float64 that survives JSON round-trips when non-finite:
// NaN and ±Inf marshal as the strings "NaN", "+Inf" and "-Inf"
// (encoding/json rejects them as bare numbers). serve.JSONFloat is an
// alias of it, so aggregate documents and the service's payloads speak
// one dialect.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting both bare
// numbers and the three non-finite strings.
func (f *Float) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"NaN"`:
		*f = Float(math.NaN())
		return nil
	case `"+Inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("store: float: %w", err)
	}
	*f = Float(v)
	return nil
}

// BitSummary is one bit position's aggregate in the JSON document —
// core.BitAgg with JSON-safe floats, every value exactly what
// core.AggregateByBit computes over the bit's trials.
type BitSummary struct {
	// Bit is the flipped bit position, 0 = LSB.
	Bit int `json:"bit"`
	// Trials counts all trials at this position.
	Trials int `json:"trials"`
	// Catastrophic counts trials whose faulty value decoded to
	// NaN/Inf/NaR or turned a zero original nonzero.
	Catastrophic int `json:"catastrophic"`
	// The error aggregates below summarize the non-catastrophic
	// trials only, like core.BitAgg; the medians are exact.
	MeanRelErr   Float `json:"mean_rel_err"`   // arithmetic mean relative error
	MedianRelErr Float `json:"median_rel_err"` // median relative error
	GeoRelErr    Float `json:"geo_rel_err"`    // geometric mean relative error
	MaxRelErr    Float `json:"max_rel_err"`    // worst observed relative error
	MeanAbsErr   Float `json:"mean_abs_err"`   // arithmetic mean absolute error
	MedianAbsErr Float `json:"median_abs_err"` // median absolute error
	MaxAbsErr    Float `json:"max_abs_err"`    // worst observed absolute error
	// FieldShare is the fraction of trials whose flipped bit fell in
	// each named bit-field at this position.
	FieldShare map[string]Float `json:"field_share"`
}

// AggregateDoc is the positres-aggregate/v1 summary of one
// (field, codec) pair: what GET /v1/campaigns/{id}/results serves
// under Accept: application/json, and what /metrics embeds live per
// running campaign. Its size is O(bits), independent of trial count.
type AggregateDoc struct {
	// Schema is always DocSchema.
	Schema string `json:"schema"`
	// Field is the dataset field key (e.g. "hurricane/Uf48").
	Field string `json:"field"`
	// Codec is the number format the campaign encoded with.
	Codec string `json:"codec"`
	// Trials is the total rows aggregated across all bits.
	Trials uint64 `json:"trials"`
	// Sealed reports whether the document describes a completed
	// (sealed) store; false in live mid-campaign snapshots.
	Sealed bool `json:"sealed"`
	// Bits holds one summary per bit position, ascending.
	Bits []BitSummary `json:"bits"`
}

// bitSummary converts a finalized core.BitAgg into its JSON form.
func bitSummary(a core.BitAgg) BitSummary {
	share := make(map[string]Float, len(a.FieldShare))
	for name, v := range a.FieldShare {
		share[name] = Float(v)
	}
	return BitSummary{
		Bit:          a.Bit,
		Trials:       a.Trials,
		Catastrophic: a.Catastrophic,
		MeanRelErr:   Float(a.MeanRelErr),
		MedianRelErr: Float(a.MedianRelErr),
		GeoRelErr:    Float(a.GeoRelErr),
		MaxRelErr:    Float(a.MaxRelErr),
		MeanAbsErr:   Float(a.MeanAbsErr),
		MedianAbsErr: Float(a.MedianAbsErr),
		MaxAbsErr:    Float(a.MaxAbsErr),
		FieldShare:   share,
	}
}

// BitAgg converts a BitSummary back to the core aggregate shape the
// figure builders consume.
func (b BitSummary) BitAgg() core.BitAgg {
	share := make(map[string]float64, len(b.FieldShare))
	for name, v := range b.FieldShare {
		share[name] = float64(v)
	}
	return core.BitAgg{
		Bit:          b.Bit,
		Trials:       b.Trials,
		Catastrophic: b.Catastrophic,
		MeanRelErr:   float64(b.MeanRelErr),
		MedianRelErr: float64(b.MedianRelErr),
		GeoRelErr:    float64(b.GeoRelErr),
		MaxRelErr:    float64(b.MaxRelErr),
		MeanAbsErr:   float64(b.MeanAbsErr),
		MedianAbsErr: float64(b.MedianAbsErr),
		MaxAbsErr:    float64(b.MaxAbsErr),
		FieldShare:   share,
	}
}

// newDoc assembles a document from finalized aggregates.
func newDoc(field, codec string, sealed bool, aggs []core.BitAgg) *AggregateDoc {
	doc := &AggregateDoc{
		Schema: DocSchema,
		Field:  field,
		Codec:  codec,
		Sealed: sealed,
		Bits:   make([]BitSummary, 0, len(aggs)),
	}
	for _, a := range aggs {
		doc.Trials += uint64(a.Trials)
		doc.Bits = append(doc.Bits, bitSummary(a))
	}
	return doc
}

// BitAggs converts the document's summaries back to core.BitAggs, in
// document (ascending bit) order.
func (d *AggregateDoc) BitAggs() []core.BitAgg {
	out := make([]core.BitAgg, 0, len(d.Bits))
	for _, b := range d.Bits {
		out = append(out, b.BitAgg())
	}
	return out
}

// ReadDoc parses and schema-checks one aggregate document.
func ReadDoc(r io.Reader) (*AggregateDoc, error) {
	var doc AggregateDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("store: aggregate document: %w", err)
	}
	if err := artifact.CheckSchema(doc.Schema, DocSchema); err != nil {
		return nil, err
	}
	return &doc, nil
}
