package serve

// GET /metrics — one JSON document combining the campaign engine's
// positres-telemetry/v1 snapshot (the same schema cmd/positcampaign
// writes with -telemetry-out, so existing tooling parses it
// unchanged), per-endpoint HTTP counters and latency histograms, job
// tallies by state, and inject-cache occupancy.

import (
	"net/http"

	"positres/internal/store"
	"positres/internal/telemetry"
)

// campaignAggregates pairs a running campaign with the live per-spec
// aggregate documents its trial store maintains at append time.
type campaignAggregates struct {
	// ID is the campaign id.
	ID string `json:"id"`
	// Aggregates holds one unsealed positres-aggregate/v1 document per
	// (field, format) spec the campaign has started writing.
	Aggregates []*store.AggregateDoc `json:"aggregates"`
}

// metricsResponse is the body of GET /metrics.
type metricsResponse struct {
	// Campaign is the engine snapshot; its "schema" field is
	// telemetry.SnapshotSchema.
	Campaign telemetry.Snapshot `json:"campaign"`
	// HTTP holds per-endpoint request/error counts and log₂ latency
	// histograms.
	HTTP telemetry.HTTPSnapshot `json:"http"`
	// Jobs tallies campaigns by state (queued, running, complete,
	// partial, cancelled, failed). Absent states are omitted.
	Jobs map[string]int `json:"jobs"`
	// InjectCache reports /v1/inject LRU occupancy and hit rates.
	InjectCache cacheStats `json:"inject_cache"`
	// Backpressure reports campaign-queue occupancy, the 429 rejection
	// count, and the Retry-After the next rejection would carry.
	Backpressure backpressure `json:"backpressure"`
	// Cluster holds per-worker dispatch tallies, heartbeat latency
	// histograms and the reassignment count. Omitted entirely in
	// single-node operation (no workers ever registered).
	Cluster *telemetry.ClusterSnapshot `json:"cluster,omitempty"`
	// CampaignAggregates holds the live per-bit aggregate summaries of
	// every running campaign, straight from the trial stores' per-bit
	// aggregates — O(specs×bits) per campaign, no trial scan. Omitted
	// when nothing is running.
	CampaignAggregates []campaignAggregates `json:"campaign_aggregates,omitempty"`
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := metricsResponse{
		Campaign:     s.metrics.Snapshot(),
		HTTP:         s.httpMetrics.Snapshot(),
		Jobs:         s.jobs.tallies(),
		InjectCache:  s.cache.stats(),
		Backpressure: s.jobs.pressure(),
	}
	if s.cluster.size() > 0 {
		snap := s.clusterMetrics.Snapshot()
		resp.Cluster = &snap
	}
	resp.CampaignAggregates = s.jobs.liveAggregates()
	writeJSON(w, http.StatusOK, resp)
}

// healthBody is the body of GET /healthz.
type healthBody struct {
	Status   string `json:"status"` // always "ok" while the listener is up
	Draining bool   `json:"draining"`
}

// handleHealthz serves GET /healthz, the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthBody{Status: "ok", Draining: s.jobs.draining()})
}
