package runner_test

// Runnable godoc examples for durable job submission. These compile
// and execute under `go test`, so the snippets embedded in
// docs/SERVICE.md and docs/RESILIENCE.md cannot rot.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/runner"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/store"
)

// ExampleRun submits a tiny durable campaign job: one canonical
// CampaignSpec expanded to a single (field, codec) pair, journaled
// under a state directory so an interrupted run could be resumed with
// Config.Resume, its trials streamed into a columnar store. The output
// is deterministic because every trial draws from a PRNG stream keyed
// by (seed, field, codec, bit, trial): the store renders the same CSV
// as the engine run directly over the whole bit range.
func ExampleRun() {
	dir, err := os.MkdirTemp("", "runner-example")
	if err != nil {
		fmt.Println("tempdir:", err)
		return
	}
	defer os.RemoveAll(dir)

	cs := &spec.CampaignSpec{
		Fields:       []string{"CESM/CLOUD"},
		Formats:      []string{"posit8"},
		N:            256,
		Seed:         1,
		TrialsPerBit: 2,
	}
	cw := store.NewCampaignWriter(dir) // one <field>_<codec>.pts per pair
	defer cw.Abort()
	cfg := runner.Config{
		Spec:    cs,
		Dir:     dir, // journal + manifest live here; "" would disable durability
		Workers: 2,
		Sink:    cw, // the only way trials leave the runner
	}

	rep, err := runner.Run(context.Background(), cfg)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Println("outcome:", rep.Outcome())
	fmt.Println("shards completed:", rep.Completed)

	// Publish the store and read it back.
	res := rep.Results[0]
	if err := cw.Seal(res.Field, res.Codec); err != nil {
		fmt.Println("seal:", err)
		return
	}
	rd, err := store.Open(filepath.Join(dir, store.FileName(res.Field, res.Codec)))
	if err != nil {
		fmt.Println("open:", err)
		return
	}
	defer rd.Close()
	fmt.Println("trials:", rd.Rows())
	var stored bytes.Buffer
	if err := rd.RenderCSV(&stored); err != nil {
		fmt.Println("render:", err)
		return
	}

	// The reference: the engine over the whole bit range, no runner.
	field, err := sdrbench.Lookup(res.Field)
	if err != nil {
		fmt.Println("field:", err)
		return
	}
	codec, err := numfmt.Lookup(res.Codec)
	if err != nil {
		fmt.Println("codec:", err)
		return
	}
	data := sdrbench.ToFloat64(field.Generate(cs.N, cs.Seed))
	trials, err := core.RunRange(context.Background(), core.ConfigFromSpec(cs), codec, res.Field, data, 0, codec.Width())
	if err != nil {
		fmt.Println("direct:", err)
		return
	}
	var direct bytes.Buffer
	if err := core.WriteTrialsCSV(&direct, trials); err != nil {
		fmt.Println("direct csv:", err)
		return
	}
	fmt.Println("store CSV equals direct CSV:", bytes.Equal(stored.Bytes(), direct.Bytes()))

	// The manifest a supervisor would poll:
	man, err := runner.ReadManifest(dir)
	if err != nil {
		fmt.Println("manifest:", err)
		return
	}
	fmt.Println("manifest state:", man.State)
	// Output:
	// outcome: complete
	// shards completed: 1
	// trials: 16
	// store CSV equals direct CSV: true
	// manifest state: complete
}
