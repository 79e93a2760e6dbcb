// Package positres is a pure-Go reproduction of "Evaluating the
// Resiliency of Posits for Scientific Computing" (Schlueter, Poulos,
// Calhoun — SC-W 2023). It bundles:
//
//   - a from-scratch posit arithmetic library implementing the 2022
//     posit standard (8/16/32/64-bit, es = 2, plus legacy es values),
//     with correctly rounded conversions and arithmetic, two's-
//     complement negation, NaR, and the quire accumulator — a drop-in
//     replacement for the SoftPosit C library the paper used;
//   - bit-level IEEE-754 tooling (binary16/bfloat16/binary32/binary64)
//     with the Elliott et al. closed-form flip error model;
//   - deterministic synthetic stand-ins for the paper's SDRBench
//     datasets (CESM, EXAFEL, HACC, Hurricane Isabel, Nyx — Table 1);
//   - QCAT-equivalent error metrics;
//   - the fault-injection campaign engine itself (deterministic,
//     worker-pool parallel), its aggregation and regime-bucketing
//     analysis, and text renderings of every figure in the paper.
//
// This file re-exports the library's primary API; the implementation
// lives under internal/ (one package per subsystem, see DESIGN.md).
package positres

import (
	"context"

	"positres/internal/analysis"
	"positres/internal/core"
	"positres/internal/figures"
	"positres/internal/ieee754"
	"positres/internal/numfmt"
	"positres/internal/posit"
	"positres/internal/runner"
	"positres/internal/sdrbench"
	"positres/internal/serve"
	"positres/internal/spec"
	"positres/internal/stats"
	"positres/internal/store"
	"positres/internal/telemetry"
	"positres/internal/textplot"
)

// Posit types and constructors (the SoftPosit-replacement substrate).
type (
	// Posit8 is an 8-bit standard posit (es = 2).
	Posit8 = posit.Posit8
	// Posit16 is a 16-bit standard posit (es = 2).
	Posit16 = posit.Posit16
	// Posit32 is a 32-bit standard posit (es = 2), the paper's format.
	Posit32 = posit.Posit32
	// Posit64 is a 64-bit standard posit (es = 2).
	Posit64 = posit.Posit64
	// PositConfig describes an arbitrary posit format (width, es).
	PositConfig = posit.Config
	// PositFields is a posit's field decomposition (sign, regime,
	// exponent, fraction).
	PositFields = posit.Fields
	// Quire is the exact fixed-point accumulator of the posit standard.
	Quire = posit.Quire
)

// Standard posit configurations (es = 2).
var (
	Std8  = posit.Std8
	Std16 = posit.Std16
	Std32 = posit.Std32
	Std64 = posit.Std64
)

// Posit constructors and helpers.
var (
	P8FromFloat64  = posit.P8FromFloat64
	P16FromFloat64 = posit.P16FromFloat64
	P32FromFloat64 = posit.P32FromFloat64
	P64FromFloat64 = posit.P64FromFloat64
	P8FromBits     = posit.P8FromBits
	P16FromBits    = posit.P16FromBits
	P32FromBits    = posit.P32FromBits
	P64FromBits    = posit.P64FromBits
	P32FromInt64   = posit.P32FromInt64
	P64FromInt64   = posit.P64FromInt64
	// NewQuire returns an exact accumulator for a posit configuration.
	NewQuire = posit.NewQuire
	// DotP32 / SumP32 / GemmP32 / MatVecP32 / Norm2P32 compute
	// quire-exact reductions (single rounding per result, order
	// independent).
	DotP32    = posit.DotP32
	SumP32    = posit.SumP32
	GemmP32   = posit.GemmP32
	MatVecP32 = posit.MatVecP32
	Norm2P32  = posit.Norm2P32
	// PositBitString renders a pattern with field separators
	// ("0|110|11|…"), the notation of the paper's worked examples.
	PositBitString = posit.BitString
	// DecodePositFields decomposes a raw pattern.
	DecodePositFields = posit.DecodeFields
)

// IEEE-754 formats.
type IEEEFormat = ieee754.Format

var (
	Binary16 = ieee754.Binary16
	BFloat16 = ieee754.BFloat16
	Binary32 = ieee754.Binary32
	Binary64 = ieee754.Binary64
)

// Codec is the number-format abstraction campaigns run over.
type Codec = numfmt.Codec

var (
	// LookupFormat finds a codec by name ("posit32", "ieee32", …).
	LookupFormat = numfmt.Lookup
	// FormatNames lists all registered codecs.
	FormatNames = numfmt.Names
)

// Campaign engine (the paper's contribution).
type (
	// CampaignConfig parameterizes a fault-injection campaign.
	CampaignConfig = core.Config
	// Trial is one recorded fault injection.
	Trial = core.Trial
	// CampaignResult is a completed (field, codec) campaign.
	CampaignResult = core.Result
	// BitAgg is a per-bit aggregate (a point on the error curves).
	BitAgg = core.BitAgg
)

var (
	// DefaultCampaignConfig mirrors the paper's parameters
	// (313 trials per bit).
	DefaultCampaignConfig = core.DefaultConfig
	// AggregateByBit reduces trials to per-bit error curves.
	AggregateByBit = core.AggregateByBit
	// WriteTrialsCSV / ReadTrialsCSV persist trial logs.
	WriteTrialsCSV = core.WriteTrialsCSV
	ReadTrialsCSV  = core.ReadTrialsCSV
)

// RunCampaign executes a campaign for one codec over one field's
// data.
func RunCampaign(cfg CampaignConfig, codec Codec, fieldKey string, data []float64) (*CampaignResult, error) {
	return core.Run(context.Background(), cfg, codec, fieldKey, data)
}

// RunCampaignContext is RunCampaign with cancellation: the worker pool
// drains at bit granularity when ctx is cancelled and the context's
// error is returned instead of a partial result.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig, codec Codec, fieldKey string, data []float64) (*CampaignResult, error) {
	return core.Run(ctx, cfg, codec, fieldKey, data)
}

// Datasets (synthetic SDRBench stand-ins).
type DatasetField = sdrbench.Field

var (
	// DatasetFields lists the paper's 16 evaluation fields (Table 1).
	DatasetFields = sdrbench.Fields
	// LookupField finds a field by "Dataset/Name".
	LookupField = sdrbench.Lookup
	// WidenFloat32 converts generated float32 data for the campaign.
	WidenFloat32 = sdrbench.ToFloat64
)

// Statistics.
type Summary = stats.Summary

// Summarize computes mean/median/min/max/std of a data array.
var Summarize = stats.Summarize

// Flip analysis (the injection-free prediction model).

// Flip is the analytical outcome of one bit flip in any format.
type Flip = analysis.Flip

var (
	// AnalyzeFlip analyzes the flip of one bit of a codec's pattern.
	AnalyzeFlip = analysis.Analyze
	// SweepFlips analyzes the flip of every bit of a pattern, LSB first.
	SweepFlips = analysis.Sweep
)

// Figures: regenerate the paper's tables and plots.
type (
	// Budget scales an experiment (dataset size, trials per bit).
	Budget = figures.Budget
	// LineChart / BoxPlot / TextTable are text renderings.
	LineChart = textplot.LineChart
	BoxPlot   = textplot.BoxPlot
	TextTable = textplot.Table
)

var (
	// PaperBudget uses the paper's 313 trials per bit.
	PaperBudget = figures.PaperBudget
	// QuickBudget runs every figure in well under a second.
	QuickBudget = figures.QuickBudget

	Table1 = figures.Table1
	Fig3   = figures.Fig3
	Fig7   = figures.Fig7
	Fig10  = figures.Fig10
	Fig11  = figures.Fig11
	Fig14  = figures.Fig14
	Fig16  = figures.Fig16
	Fig18  = figures.Fig18
	Fig20  = figures.Fig20

	// Extension experiments: mid-solve fault impact, SEC-DED
	// protection, Poisson soft-error rates, and the neural-network
	// weight-flip study of the paper's ref [8].
	SolverImpactTable = figures.SolverImpactTable
	ProtectionTable   = figures.ProtectionTable
	SoftErrorTable    = figures.SoftErrorTable
	MLFlipChart       = figures.MLFlipChart
	MLImpactTable     = figures.MLImpactTable
)

// Durable campaigns and the positserve service: the job-level surface
// of the engine. One canonical CampaignSpec describes a campaign
// everywhere — the positcampaign CLI, runner.Run, the positserve HTTP
// API and its Go client all consume the same struct with the same
// Validate() and the same stable error codes.
type (
	// CampaignSpec is the canonical campaign description (fields ×
	// formats plus sampling parameters). Its JSON form is the positserve
	// wire format.
	CampaignSpec = spec.CampaignSpec
	// SpecError is a validation failure with a stable machine-readable
	// code, shared between the CLI and the HTTP API.
	SpecError = spec.Error
	// RunnerConfig parameterizes a durable, resumable campaign run.
	RunnerConfig = runner.Config
	// RunnerReport is the outcome of a durable campaign run.
	RunnerReport = runner.Report
	// ServeClient is the typed HTTP client of a positserve instance.
	ServeClient = serve.Client
	// ServeAPIError is a positserve error envelope surfaced client-side.
	ServeAPIError = serve.APIError
	// ServeCampaignStatus is a campaign's job status document.
	ServeCampaignStatus = serve.CampaignStatus
	// TelemetrySnapshot is the positres-telemetry/v1 metrics document.
	TelemetrySnapshot = telemetry.Snapshot
)

var (
	// RunDurable executes a CampaignSpec durably under a state
	// directory: journaled shards, crash-safe resume, bounded retries
	// (and, under positserve coordinator mode, distributed fan-out).
	// Every completed shard streams into the required RunnerConfig.Sink,
	// typically a CampaignStoreWriter; the report carries no trials.
	RunDurable = runner.Run
	// ExpandSpecs expands a CampaignSpec into its (field, codec) matrix.
	ExpandSpecs = runner.SpecsOf
	// NewServeClient dials a positserve instance (coordinator or
	// worker).
	NewServeClient = serve.NewClient
)

// The columnar trial store and its aggregate documents: the durable,
// bounded-memory representation of campaign results (docs/STORE.md).
// A store renders its rows as CSV byte-identical to WriteTrialsCSV
// and carries each bit's AggregateByBit result in its footer, which
// is also what the results API serves as positres-aggregate/v1 JSON.
type (
	// TrialStoreWriter appends trial shards to one .pts column store,
	// aggregating each shard's bits for the footer as it goes.
	TrialStoreWriter = store.Writer
	// TrialStoreReader reads a sealed .pts store: rows (as CSV),
	// blocks, and the footer aggregates — without loading trials.
	TrialStoreReader = store.Reader
	// CampaignStoreWriter manages one TrialStoreWriter per
	// (field, format) pair of a campaign; it is the runner.Config.Sink
	// the service and CLI plug in.
	CampaignStoreWriter = store.CampaignWriter
	// AggregateDoc is the positres-aggregate/v1 summary document
	// served by GET /v1/campaigns/{id}/results under
	// Accept: application/json.
	AggregateDoc = store.AggregateDoc
	// AggregateBitSummary is one bit position's entry in an
	// AggregateDoc.
	AggregateBitSummary = store.BitSummary
)

var (
	// OpenTrialStore opens a sealed .pts store for reading.
	OpenTrialStore = store.Open
	// NewTrialStoreWriter creates a .pts store for one (field, codec).
	NewTrialStoreWriter = store.NewWriter
	// NewCampaignStoreWriter creates a per-campaign store directory
	// writer, suitable as a RunnerConfig.Sink.
	NewCampaignStoreWriter = store.NewCampaignWriter
	// TrialStoreFileName is the canonical .pts file name for a
	// (field, format) pair.
	TrialStoreFileName = store.FileName
	// ReadAggregateDoc parses and schema-checks a
	// positres-aggregate/v1 JSON document.
	ReadAggregateDoc = store.ReadDoc
)
