package serve

// The worker protocol: POST /v1/shards computes one bit-range shard
// and answers with its trials as one store block (docs/STORE.md), while
// POST /v1/workers registers a worker with a coordinator and
// GET /v1/workers lists the registered fleet (coordinator side).
// Every positserve process serves all three — any instance can act as
// coordinator, worker, or both — so a cluster is just N identical
// binaries pointed at each other.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/store"
)

const (
	// shardMediaType is the Content-Type of a POST /v1/shards answer:
	// one store block, self-delimiting and CRC-guarded.
	shardMediaType = "application/x-positres-block"
	// headerShardDeadline is the request header carrying the
	// coordinator watchdog's remaining shard budget in milliseconds, so
	// a delayed worker abandons computation in step with the
	// coordinator timing it out.
	headerShardDeadline = "X-Positres-Deadline-Ms"
)

// ShardRequest is the body of POST /v1/shards: one bit-range work
// unit. Spec must name exactly one field and one format — the shard's
// (field, codec) pair — and carries the campaign parameters (n, seed,
// trials_per_bit, keep_zeros) that make the computation deterministic
// wherever it runs.
type ShardRequest struct {
	// Spec is the single-pair campaign spec of the shard.
	Spec spec.CampaignSpec `json:"spec"`
	// BitLo is the inclusive lower bound of the bit range.
	BitLo int `json:"bit_lo"`
	// BitHi is the exclusive upper bound of the bit range.
	BitHi int `json:"bit_hi"`
}

// workerRegistration is the body of POST /v1/workers.
type workerRegistration struct {
	// URL is the worker's base URL as the coordinator should dial it.
	URL string `json:"url"`
}

// workerInfo is one entry of GET /v1/workers.
type workerInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Busy    int    `json:"busy"`
	Fails   int    `json:"consecutive_failures"`
}

// workerList is the body of GET /v1/workers.
type workerList struct {
	Workers []workerInfo `json:"workers"`
}

// handleRunShard serves POST /v1/shards: validate the single-pair
// spec, take the field's dataset from the server's dataset cache
// (generated deterministically on first use, then shared by every
// shard of the same (field, n, seed) — the other formats and bit
// ranges of a campaign — while it stays among the GOMAXPROCS most
// recently used), compute the bit range through the same core engine
// a local run uses, and answer with the trials as one block. The
// block is byte-exact trial data, so the coordinator's journal — and
// therefore the final CSVs — cannot distinguish local from remote
// computation.
func (s *Server) handleRunShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Spec.Fields) != 1 || len(req.Spec.Formats) != 1 {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"shard spec must name exactly one field and one format, got %d and %d",
			len(req.Spec.Fields), len(req.Spec.Formats))
		return
	}
	if verr := req.Spec.Validate(); verr != nil {
		writeError(w, http.StatusBadRequest, verr.Code, "%s", verr.Message)
		return
	}
	codec, err := numfmt.Lookup(req.Spec.Formats[0])
	if err != nil { // unreachable after Validate, but keep the guard cheap
		writeError(w, http.StatusBadRequest, codeUnknownFormat, "%v", err)
		return
	}
	if req.BitLo < 0 || req.BitHi > codec.Width() || req.BitLo >= req.BitHi {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"bit range [%d, %d) is invalid for %d-bit format %s",
			req.BitLo, req.BitHi, codec.Width(), codec.Name())
		return
	}
	field, err := sdrbench.Lookup(req.Spec.Fields[0])
	if err != nil {
		writeError(w, http.StatusBadRequest, codeUnknownField, "%v", err)
		return
	}

	// Honor the coordinator's shard deadline: when the watchdog over
	// there has D ms left, computing past D here is wasted work — the
	// coordinator has already failed the attempt and re-dispatched.
	ctx := r.Context()
	if ms, err := strconv.ParseInt(r.Header.Get(headerShardDeadline), 10, 64); err == nil && ms > 0 {
		dctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
		ctx = dctx
	}

	data := s.datasets.Get(field, req.Spec.N, req.Spec.Seed)
	trials, err := core.RunRange(ctx, core.ConfigFromSpec(&req.Spec),
		codec, req.Spec.Fields[0], data, req.BitLo, req.BitHi)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "shard computation: %v", err)
		return
	}

	block, err := store.AppendBlock(nil, req.Spec.Fields[0], codec.Name(), req.BitLo, req.BitHi, trials)
	if err != nil { // unreachable for engine output; fail loud, not silent
		writeError(w, http.StatusInternalServerError, codeInternal, "shard block encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", shardMediaType)
	w.Header().Set("Content-Length", strconv.Itoa(len(block)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(block); err != nil {
		// The coordinator sees a truncated block and retries the shard
		// elsewhere.
		fmt.Fprintln(os.Stderr, "positserve: shard block stream:", err)
	}
}

// handleRegisterWorker serves POST /v1/workers: add (idempotently)
// one worker to the dispatch pool.
func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var reg workerRegistration
	if !decodeBody(w, r, &reg) {
		return
	}
	u, err := url.Parse(reg.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"worker url %q must be absolute (scheme + host)", reg.URL)
		return
	}
	s.cluster.add(reg.URL)
	writeJSON(w, http.StatusOK, s.cluster.list())
}

// handleListWorkers serves GET /v1/workers.
func (s *Server) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.list())
}
