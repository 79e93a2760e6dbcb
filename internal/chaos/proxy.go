package chaos

// The fault-injecting reverse proxy itself. It is deliberately
// hand-rolled rather than httputil.ReverseProxy so the body stream is
// ours to mangle: truncation must cut mid-body and slam the
// connection, corruption must flip a byte while keeping the length,
// and HTTP trailers (the shard CSV integrity CRC) must survive the
// hop when no fault fires.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// Proxy is a fault-injecting HTTP reverse proxy for one upstream
// target. Construct with New; safe for concurrent use. Mount it on an
// http.Server (or httptest.Server) like any handler.
type Proxy struct {
	target *url.URL
	faults Faults
	client *http.Client
	logf   func(format string, args ...interface{})
	seq    atomic.Uint64

	requests       atomic.Int64
	forwarded      atomic.Int64
	latencies      atomic.Int64
	resets         atomic.Int64
	synth5xx       atomic.Int64
	truncations    atomic.Int64
	corruptions    atomic.Int64
	upstreamErrors atomic.Int64
}

// New builds a Proxy forwarding to target (scheme + host, e.g.
// "http://127.0.0.1:8080") with the given fault schedule. logf, when
// non-nil, receives one line per injected fault tagged with the
// request sequence number — the replayable schedule made visible.
func New(target string, f Faults, logf func(format string, args ...interface{})) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("chaos: target %q must be an absolute URL (scheme + host)", target)
	}
	return &Proxy{
		target: u,
		faults: f,
		// Compression off so body offsets refer to the bytes the
		// client sees; no client timeout — campaign waits are long and
		// the request context bounds each hop.
		client: &http.Client{Transport: &http.Transport{DisableCompression: true}},
		logf:   logf,
	}, nil
}

// Stats returns the current fault tallies.
func (p *Proxy) Stats() StatsSnapshot {
	return StatsSnapshot{
		Requests:       p.requests.Load(),
		Forwarded:      p.forwarded.Load(),
		Latencies:      p.latencies.Load(),
		Resets:         p.resets.Load(),
		Synthetic5xx:   p.synth5xx.Load(),
		Truncations:    p.truncations.Load(),
		Corruptions:    p.corruptions.Load(),
		UpstreamErrors: p.upstreamErrors.Load(),
	}
}

// StatsSnapshot is the JSON view of a Proxy's fault tallies, embedded
// in the positres-load/v1 artifact so a load run records the hostility
// it survived.
type StatsSnapshot struct {
	// Requests counts every request that reached the proxy.
	Requests int64 `json:"requests"`
	// Forwarded counts requests that reached the upstream (including
	// ones whose response was then truncated or corrupted).
	Forwarded int64 `json:"forwarded"`
	// Latencies counts injected delays.
	Latencies int64 `json:"latencies"`
	// Resets counts injected TCP connection resets.
	Resets int64 `json:"resets"`
	// Synthetic5xx counts synthetic 5xx answers served without
	// contacting the upstream.
	Synthetic5xx int64 `json:"synthetic_5xx"`
	// Truncations counts response bodies cut short.
	Truncations int64 `json:"truncations"`
	// Corruptions counts response bodies with a byte flipped.
	Corruptions int64 `json:"corruptions"`
	// UpstreamErrors counts forwards that failed at the upstream hop
	// (connection refused, upstream reset) — real faults, not injected.
	UpstreamErrors int64 `json:"upstream_errors"`
}

// log emits one schedule line when a log sink is configured.
func (p *Proxy) log(seq uint64, format string, args ...interface{}) {
	if p.logf != nil {
		p.logf("chaos: #%d "+format, append([]interface{}{seq}, args...)...)
	}
}

// ServeHTTP implements http.Handler: decide the request's fault plan,
// apply the connection-level faults, then forward with any body-level
// fault applied to the response stream.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq := p.seq.Add(1)
	p.requests.Add(1)
	d := p.faults.decide(seq)

	if d.latency > 0 {
		p.latencies.Add(1)
		p.log(seq, "latency %v on %s %s", d.latency, r.Method, r.URL.Path)
		t := time.NewTimer(d.latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return // client gave up during the injected delay
		}
	}

	switch d.mode {
	case modeReset:
		p.resets.Add(1)
		p.log(seq, "reset on %s %s", r.Method, r.URL.Path)
		slam(w)
		return
	case mode5xx:
		p.synth5xx.Add(1)
		p.log(seq, "synthetic %d on %s %s", d.status, r.Method, r.URL.Path)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(d.status)
		if _, err := io.WriteString(w, "chaos: injected upstream failure\n"); err != nil {
			p.log(seq, "synthetic body write: %v", err)
		}
		return
	}

	out := r.Clone(r.Context())
	out.URL.Scheme = p.target.Scheme
	out.URL.Host = p.target.Host
	out.Host = p.target.Host
	out.RequestURI = "" // client requests must not set it
	resp, err := p.client.Do(out)
	if err != nil {
		p.upstreamErrors.Add(1)
		p.log(seq, "upstream error: %v", err)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, "chaos: upstream: %v\n", err)
		return
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			p.log(seq, "upstream body close: %v", err)
		}
	}()
	p.forwarded.Add(1)

	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)

	switch d.mode {
	case modeTruncate:
		p.truncations.Add(1)
		p.log(seq, "truncate after %d bytes on %s %s", d.cutAt, r.Method, r.URL.Path)
		_, _ = io.CopyN(w, resp.Body, d.cutAt)
		// Slam the connection mid-body: the client sees an unexpected
		// EOF (or a missing integrity trailer) exactly as it would if
		// the upstream died mid-stream. ErrAbortHandler is net/http's
		// sanctioned way to do that from a handler.
		panic(http.ErrAbortHandler)
	case modeCorrupt:
		p.corruptions.Add(1)
		p.log(seq, "corrupt byte at offset %d on %s %s", d.flipAt, r.Method, r.URL.Path)
		if _, err := io.Copy(&corruptWriter{w: w, at: d.flipAt}, resp.Body); err != nil {
			p.log(seq, "corrupt copy: %v", err)
			return // connection is broken; trailers are moot
		}
	default:
		if _, err := io.Copy(w, resp.Body); err != nil {
			p.log(seq, "copy: %v", err)
			return
		}
	}

	// The body has been fully read, so upstream trailers are populated
	// now; re-emit them. TrailerPrefix keys need no up-front
	// declaration.
	for k, vv := range resp.Trailer {
		for _, v := range vv {
			w.Header().Add(http.TrailerPrefix+k, v)
		}
	}
}

// hopHeaders are the hop-by-hop headers a proxy must not forward
// (RFC 9110 §7.6.1). Trailer is re-emitted via TrailerPrefix instead.
var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// copyHeader copies end-to-end headers from src to dst.
func copyHeader(dst, src http.Header) {
	for k, vv := range src {
		hop := false
		for _, h := range hopHeaders {
			if strings.EqualFold(k, h) {
				hop = true
				break
			}
		}
		if hop {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// slam terminates the client connection as abruptly as the platform
// allows: hijack, disable lingering so close sends RST instead of FIN,
// and close. Writers that cannot hijack (HTTP/2, tests) fall back to
// ErrAbortHandler, which still surfaces as a mid-request error.
func slam(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close() // the connection is being destroyed on purpose
}

// corruptWriter passes bytes through, XORing the single byte at
// stream offset `at` (if the stream is long enough to reach it).
type corruptWriter struct {
	w   io.Writer
	at  int64
	off int64
}

// Write implements io.Writer without mutating the caller's buffer.
func (c *corruptWriter) Write(p []byte) (int, error) {
	if c.off <= c.at && c.at < c.off+int64(len(p)) {
		b := append([]byte(nil), p...)
		b[c.at-c.off] ^= 0x20
		n, err := c.w.Write(b)
		c.off += int64(n)
		return n, err
	}
	n, err := c.w.Write(p)
	c.off += int64(n)
	return n, err
}
