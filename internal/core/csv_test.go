package core

import (
	"bytes"
	"encoding/csv"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// stdlibTrialsCSV is the reference implementation WriteTrialsCSV
// replaced: a csv.Writer fed FormatFloat strings. WriteTrialsCSV's
// manual row encoder must stay byte-identical to it — the final
// campaign CSVs are the repo's acceptance oracle.
func stdlibTrialsCSV(t *testing.T, trials []Trial) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(trialHeader); err != nil {
		t.Fatal(err)
	}
	row := make([]string, len(trialHeader))
	for i := range trials {
		tr := &trials[i]
		row[0] = tr.Field
		row[1] = tr.Codec
		row[2] = strconv.Itoa(tr.Bit)
		row[3] = strconv.Itoa(tr.Seq)
		row[4] = strconv.Itoa(tr.Index)
		row[5] = strconv.FormatFloat(tr.OrigValue, 'g', -1, 64)
		row[6] = strconv.FormatFloat(tr.ReprValue, 'g', -1, 64)
		row[7] = strconv.FormatUint(tr.OrigBits, 16)
		row[8] = strconv.FormatUint(tr.FaultyBits, 16)
		row[9] = strconv.FormatFloat(tr.FaultyVal, 'g', -1, 64)
		row[10] = tr.FieldName
		row[11] = strconv.Itoa(tr.RegimeK)
		row[12] = strconv.FormatFloat(tr.AbsErr, 'g', -1, 64)
		row[13] = strconv.FormatFloat(tr.RelErr, 'g', -1, 64)
		row[14] = strconv.FormatBool(tr.Catastrophic)
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteTrialsCSVMatchesStdlib pins the allocation-free row encoder
// byte-for-byte against encoding/csv, including every quoting edge the
// stdlib writer has: delimiter/quote/CR/LF in a field, leading
// (unicode) space, the SQL null sentinel `\.`, an empty field, and the
// float corner values.
func TestWriteTrialsCSVMatchesStdlib(t *testing.T) {
	trials := []Trial{
		{
			Field: "Hurricane/Vf30", Codec: "posit32", Bit: 17, Seq: 3, Index: 12345,
			OrigValue: 1.5, ReprValue: 1.5, OrigBits: 0x4030_0000, FaultyBits: 0x4030_0002,
			FaultyVal: 1.5000004768371582, FieldName: "fraction", RegimeK: 1,
			AbsErr: 4.76837158203125e-07, RelErr: 3.1789143880208336e-07,
		},
		{Field: "comma,field", Codec: `quo"te`, FieldName: "line\nbreak"},
		{Field: "cr\rreturn", Codec: " leadspace", FieldName: " nbsp"},
		{Field: `\.`, Codec: "", FieldName: "tab\tinside"},
		{
			Field: "edge/floats", Codec: "posit64", Bit: 63, Seq: -2, Index: 0,
			OrigValue: math.Inf(1), ReprValue: math.Inf(-1),
			OrigBits: math.MaxUint64, FaultyBits: 0,
			FaultyVal: math.NaN(), RegimeK: -31,
			AbsErr: math.SmallestNonzeroFloat64, RelErr: math.MaxFloat64,
			Catastrophic: true,
		},
	}
	want := stdlibTrialsCSV(t, trials)
	var got bytes.Buffer
	if err := WriteTrialsCSV(&got, trials); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteTrialsCSV diverges from encoding/csv:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestWriteTrialsCSVFlushBoundary crosses the csvFlushAt buffer
// boundary so the flush-and-reuse path is exercised, and verifies the
// split output still round-trips.
func TestWriteTrialsCSVFlushBoundary(t *testing.T) {
	n := csvFlushAt/40 + 100 // comfortably past one flush
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = Trial{
			Field: "flush/field", Codec: "posit16", Bit: i % 16, Seq: i, Index: i * 7,
			OrigValue: float64(i) * 0.25, ReprValue: float64(i) * 0.25,
			OrigBits: uint64(i), FaultyBits: uint64(i ^ 1),
			FaultyVal: float64(i)*0.25 + 1, FieldName: "fraction",
			RegimeK: i%8 - 4, AbsErr: 1, RelErr: 0.5, Catastrophic: i%3 == 0,
		}
	}
	want := stdlibTrialsCSV(t, trials)
	var got bytes.Buffer
	if err := WriteTrialsCSV(&got, trials); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("flush-boundary output diverges from encoding/csv")
	}
	back, err := ReadTrialsCSV(&got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != n {
		t.Fatalf("round-trip rows = %d, want %d", len(back), n)
	}
}

// TestTrialCSVCoversEveryField ties trialHeader, the row encoder and
// ReadTrialsCSV to core.Trial: the header has one column per field,
// and a trial with any single field set to a non-zero value comes back
// from WriteTrialsCSV and ReadTrialsCSV unchanged. A field added
// without a column, or dropped by either direction, fails here.
func TestTrialCSVCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Trial{})
	if len(trialHeader) != typ.NumField() {
		t.Fatalf("trialHeader has %d columns, Trial has %d fields", len(trialHeader), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var tr Trial
		switch f := reflect.ValueOf(&tr).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x,y")
		case reflect.Int:
			f.SetInt(-3)
		case reflect.Uint64:
			f.SetUint(0xbeef)
		case reflect.Float64:
			f.SetFloat(-1.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("field %s: no test value for kind %s", name, f.Kind())
		}
		var buf bytes.Buffer
		if err := WriteTrialsCSV(&buf, []Trial{tr}); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrialsCSV(&buf)
		if err != nil {
			t.Errorf("field %s: %v", name, err)
			continue
		}
		if len(back) != 1 || back[0] != tr {
			t.Errorf("field %s: read back %+v, want %+v", name, back, tr)
		}
	}
}
