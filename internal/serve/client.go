package serve

// Client is the typed HTTP client of the positserve API. It exists
// for three callers: the coordinator's dispatcher (shard fan-out and
// worker health probes), worker processes self-registering with their
// coordinator, and external Go programs driving a positserve instance
// (re-exported from the top-level positres package). Every non-2xx
// response is returned as *APIError carrying the service's stable
// error code.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/runner"
	"positres/internal/spec"
	"positres/internal/store"
)

// APIError is a positserve error envelope surfaced client-side.
type APIError struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the stable machine-readable error code ("queue_full",
	// "unknown_format", ...).
	Code string
	// Message is the human-readable error message.
	Message string
	// RetryAfter is the server's Retry-After hint (0 when absent); a
	// 429 submission carries the backpressure-derived wait the server
	// wants before the next attempt.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("positserve: %d %s: %s", e.Status, e.Code, e.Message)
}

// RetryPolicy configures client-side retries. The zero value disables
// them (every request is a single attempt), which keeps the
// dispatcher's failure accounting and the runner's shard retry loop in
// sole charge of shard re-dispatch. Load generators and interactive
// callers opt in with Client.WithRetry.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per request; values
	// below 2 mean a single attempt (no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff between attempts
	// (default 100ms). The delay doubles per attempt with bounded
	// deterministic jitter; a 429's Retry-After overrides it.
	BaseDelay time.Duration
	// Sleep replaces the context-aware pause in tests; nil uses a
	// timer that aborts when ctx is cancelled.
	Sleep func(ctx context.Context, d time.Duration) error
}

// maxRetryAfterHonor caps how long the client will obediently wait on
// a server's Retry-After before trying again — matching the runner's
// 30s backoff ceiling, and defending against a bogus huge hint.
const maxRetryAfterHonor = 30 * time.Second

// Client talks to one positserve instance. The zero value is not
// usable; construct with NewClient. Safe for concurrent use.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
}

// NewClient returns a Client for the server at baseURL (scheme +
// host, e.g. "http://127.0.0.1:8080"). A nil httpClient uses a
// dedicated client with a 2-minute timeout — long enough for shard
// computation, short enough to notice a hung worker. The client does
// not retry; see WithRetry.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 2 * time.Minute}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// WithRetry returns a copy of the client that retries idempotent
// requests (GETs, worker registration, inject queries) on transport
// errors and 5xx answers, and retries 429 rejections for any method —
// a queue_full submission creates no job, so resubmitting cannot
// duplicate work — honoring the server's Retry-After. RunShard is
// deliberately not retried here: the runner's watchdog-and-backoff
// loop owns shard retries, and double-retrying would stack budgets.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cp := *c
	cp.retry = p
	return &cp
}

// BaseURL returns the server address the client targets.
func (c *Client) BaseURL() string { return c.base }

// attempts returns the per-request attempt budget.
func (c *Client) attempts() int {
	if c.retry.MaxAttempts > 1 {
		return c.retry.MaxAttempts
	}
	return 1
}

// retryable reports whether err warrants another attempt. Transport
// errors and 5xx envelopes are retryable only for idempotent requests;
// 429 is retryable for every method (the request was rejected before
// any state changed).
func retryable(err error, idempotent bool) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Status == http.StatusTooManyRequests {
			return true
		}
		return idempotent && ae.Status >= 500
	}
	return idempotent // transport-level failure; nothing reached the server intact
}

// pause sleeps before the next attempt: the server's Retry-After when
// the error carries one (capped), else jittered exponential backoff
// keyed on the request so concurrent retriers spread out.
func (c *Client) pause(ctx context.Context, key string, attempt int, cause error) error {
	d := runner.JitteredBackoff(c.retry.BaseDelay, attempt, key)
	if c.retry.BaseDelay <= 0 {
		d = runner.JitteredBackoff(100*time.Millisecond, attempt, key)
	}
	var ae *APIError
	if errors.As(cause, &ae) && ae.RetryAfter > 0 {
		d = ae.RetryAfter
		if d > maxRetryAfterHonor {
			d = maxRetryAfterHonor
		}
	}
	if c.retry.Sleep != nil {
		return c.retry.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// withRetry runs try until it succeeds or fails for good: the attempt
// budget is spent, the error is not retryable for the request, or try
// reports its failure final. Between attempts it pauses, keyed on the
// request so concurrent retriers spread out.
func (c *Client) withRetry(ctx context.Context, key string, idempotent bool, try func() (final bool, err error)) error {
	attempts := c.attempts()
	for attempt := 1; ; attempt++ {
		final, err := try()
		if err == nil || final || attempt >= attempts || !retryable(err, idempotent) {
			return err
		}
		if serr := c.pause(ctx, key, attempt, err); serr != nil {
			return err // context died mid-backoff; the last real error explains more
		}
	}
}

// do issues one request — retrying per the client's policy — and
// decodes either the expected JSON body into out (when non-nil) or
// the error envelope into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}, idempotent bool) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return fmt.Errorf("positserve client: encode %s %s: %w", method, path, err)
		}
	}
	return c.withRetry(ctx, method+" "+path, idempotent, func() (bool, error) {
		return false, c.doOnce(ctx, method, path, raw, out)
	})
}

// doOnce issues exactly one attempt of a JSON request.
func (c *Client) doOnce(ctx context.Context, method, path string, raw []byte, out interface{}) error {
	var rd io.Reader
	if raw != nil {
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("positserve client: %s %s: %w", method, path, err)
	}
	if raw != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("positserve client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("positserve client: decode %s %s: %w", method, path, err)
	}
	return nil
}

// decodeAPIError turns a non-2xx response into an *APIError,
// degrading gracefully when the body is not the JSON envelope.
func decodeAPIError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	var env errorBody
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
		ae.Code = codeInternal
		ae.Message = strings.TrimSpace(string(raw))
		return ae
	}
	ae.Code = env.Error.Code
	ae.Message = env.Error.Message
	return ae
}

// SubmitCampaign submits a campaign (POST /v1/campaigns) and returns
// the queued job's status. When wait is true the call blocks until
// the campaign reaches a terminal state (?wait=1). Under a retry
// policy only 429 rejections are retried — a submission that reached
// the queue must not be duplicated.
func (c *Client) SubmitCampaign(ctx context.Context, cs *spec.CampaignSpec, wait bool) (*CampaignStatus, error) {
	path := "/v1/campaigns"
	if wait {
		path += "?wait=1"
	}
	var st CampaignStatus
	if err := c.do(ctx, http.MethodPost, path, cs, &st, false); err != nil {
		return nil, err
	}
	return &st, nil
}

// CampaignStatus polls one campaign (GET /v1/campaigns/{id}).
func (c *Client) CampaignStatus(ctx context.Context, id string) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// Inject runs one synchronous what-if flip (POST /v1/inject). The
// query is pure, so it retries like a GET under a retry policy.
func (c *Client) Inject(ctx context.Context, req InjectRequest) (*InjectResponse, error) {
	var resp InjectResponse
	if err := c.do(ctx, http.MethodPost, "/v1/inject", req, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CampaignResult streams one published result CSV
// (GET /v1/campaigns/{id}/results) into w. Failed attempts are
// retried (under a retry policy) only while nothing has been written
// to w; once the copy starts, a mid-stream error is final — the
// caller owns w and a blind rewrite could interleave two bodies.
func (c *Client) CampaignResult(ctx context.Context, id, field, format string, w io.Writer) error {
	path := resultURL(id, field, format)
	return c.withRetry(ctx, "GET "+path, true, func() (bool, error) {
		n, err := c.resultOnce(ctx, path, w)
		return n > 0, err
	})
}

// resultOnce is one attempt of CampaignResult, reporting how many
// body bytes reached w.
func (c *Client) resultOnce(ctx context.Context, path string, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, fmt.Errorf("positserve client: results: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("positserve client: results: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeAPIError(resp)
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, fmt.Errorf("positserve client: results: %w", err)
	}
	return n, nil
}

// FetchAggregate fetches one published result's per-bit aggregate
// summary (GET /v1/campaigns/{id}/results with Accept:
// application/json) as a validated positres-aggregate/v1 document.
// The transfer is O(bits) regardless of campaign size — the server
// answers from the store footer, never rescanning trials. Retries
// follow the client's policy, like any GET.
func (c *Client) FetchAggregate(ctx context.Context, id, field, format string) (*store.AggregateDoc, error) {
	path := resultURL(id, field, format)
	var doc *store.AggregateDoc
	err := c.withRetry(ctx, "GET "+path, true, func() (bool, error) {
		var err error
		doc, err = c.aggregateOnce(ctx, path)
		return false, err
	})
	return doc, err
}

// aggregateOnce is one attempt of FetchAggregate. Only a JSON answer
// is parsed as an aggregate document; anything else (an old server
// ignoring Accept and streaming CSV) is an explicit error, never
// misparsed data.
func (c *Client) aggregateOnce(ctx context.Context, path string) (*store.AggregateDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("positserve client: aggregate: %w", err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("positserve client: aggregate: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		return nil, fmt.Errorf("positserve client: aggregate: server answered %q, not application/json (pre-negotiation server?)", ct)
	}
	doc, err := store.ReadDoc(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("positserve client: aggregate: %w", err)
	}
	return doc, nil
}

// RegisterWorker announces a worker to a coordinator
// (POST /v1/workers). Registration is idempotent, so a retry policy
// applies in full.
func (c *Client) RegisterWorker(ctx context.Context, workerURL string) error {
	return c.do(ctx, http.MethodPost, "/v1/workers", workerRegistration{URL: workerURL}, nil, true)
}

// ShardWireStats describes how one shard response travelled — the
// observability sidecar of RunShardStats, feeding the coordinator's
// wire_frames / wire_bytes counters on /metrics.
type ShardWireStats struct {
	// BodyBytes is the response body size in bytes.
	BodyBytes int64
}

// RunShard executes one shard on a worker (POST /v1/shards). It is
// RunShardStats without the transport telemetry — the form external
// callers (the positres facade) use.
func (c *Client) RunShard(ctx context.Context, req ShardRequest) ([]core.Trial, error) {
	trials, _, err := c.RunShardStats(ctx, req)
	return trials, err
}

// RunShardStats executes one shard on a worker (POST /v1/shards) and
// decodes the store block it answers with (docs/STORE.md), reporting
// the body size. The block is lossless, so the trials are
// bit-identical to a local computation.
//
// Two hardening measures guard the hop. The caller's context deadline
// (the runner's shard watchdog) is forwarded in X-Positres-Deadline-Ms
// so the worker abandons computation when the coordinator has already
// given up. And the block is verified before any trial is returned —
// its length prefix and CRC-32, then its bit range and row count
// against the request's — so a truncated, corrupted or misrouted body
// is an error (and therefore a retryable shard failure at the runner),
// never silently merged data. RunShardStats itself never retries; the
// runner owns shard retry.
func (c *Client) RunShardStats(ctx context.Context, req ShardRequest) ([]core.Trial, ShardWireStats, error) {
	var stats ShardWireStats
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, stats, fmt.Errorf("positserve client: encode shard: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/shards", bytes.NewReader(raw))
	if err != nil {
		return nil, stats, fmt.Errorf("positserve client: shard: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			hreq.Header.Set(headerShardDeadline, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, stats, fmt.Errorf("positserve client: shard: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, stats, decodeAPIError(resp)
	}

	// The worker accepted the spec, so it validates here too; the
	// defaults and the canonical format name it applied name the
	// block's trials and fix their count.
	sp := req.Spec
	if verr := sp.Validate(); verr != nil || len(sp.Fields) != 1 || len(sp.Formats) != 1 {
		return nil, stats, fmt.Errorf("positserve client: shard spec is not a single valid (field, format) pair")
	}
	codec, err := numfmt.Lookup(sp.Formats[0])
	if err != nil {
		return nil, stats, fmt.Errorf("positserve client: shard: %w", err)
	}
	rows := (req.BitHi - req.BitLo) * sp.TrialsPerBit
	trials, n, err := store.ReadBlock(resp.Body, sp.Fields[0], codec.Name(), req.BitLo, req.BitHi, rows)
	stats.BodyBytes = n
	if err != nil {
		return nil, stats, fmt.Errorf("positserve client: shard block: %w", err)
	}
	return trials, stats, nil
}

// Health probes GET /healthz, returning the server's draining flag.
func (c *Client) Health(ctx context.Context) (draining bool, err error) {
	var h healthBody
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h, true); err != nil {
		return false, err
	}
	return h.Draining, nil
}
