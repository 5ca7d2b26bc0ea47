// Package cluster implements spangate: a scatter/gather front over N
// spand shards speaking the same /v1 wire contract as a single spand.
//
// The content-addressed registry makes routing stateless: every shard
// pre-warms an identical artifact set, so any shard can
// serve any pinned name@version or algebra query, and the gate only
// has to shard documents. Inline batch documents scatter across the
// healthy shards and the per-shard responses merge back in input
// order, spliced as raw bytes so the merged body is byte-identical to
// a single spand answering the whole batch. Stored documents are
// owned by the shard their ID hashes to — document CRUD and doc_id
// extractions route there.
//
// Availability is the gate's job, not the client's: shards are
// health-checked (periodic /v1/healthz probes, circuit-break after
// consecutive failures), failed scatter calls retry on the surviving
// shards with per-attempt timeouts and jittered backoff, identical
// in-flight (query, document) units coalesce single-flight, and an
// in-flight cap sheds load with Retry-After before the fan-out melts
// down. Everything is observable through the spand_gate_* Prometheus
// families on /v1/metrics.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"spanners/client"
	"spanners/internal/httpapi"
	"spanners/internal/obs"
)

// Defaults for Options fields left zero.
const (
	// DefaultProbeInterval is how often each shard's /v1/healthz is
	// probed in the background.
	DefaultProbeInterval = 2 * time.Second
	// DefaultFailThreshold is how many consecutive failures (probe or
	// request transport errors) open a shard's circuit.
	DefaultFailThreshold = 3
	// DefaultAttemptTimeout bounds one upstream attempt: a whole batch
	// call, or a stream's time to response headers.
	DefaultAttemptTimeout = 15 * time.Second
	// DefaultRetries is how many times a failed scatter call is
	// retried on the surviving shards (total attempts = 1 + retries).
	DefaultRetries = 2
	// DefaultBackoffBase seeds the jittered exponential backoff
	// between retry attempts.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultMaxInFlight caps concurrently admitted extraction
	// requests before the gate sheds with 503 + Retry-After.
	DefaultMaxInFlight = 256
	// DefaultRetryAfter is the hint sent with shed and all-shards-down
	// responses.
	DefaultRetryAfter = 1 * time.Second
)

// Options configures New.
type Options struct {
	// Shards are the spand base URLs ("http://host:port"), at least
	// one. Their order fixes document-ID ownership: doc hash % N picks
	// the owner, so the list must be identical (same order) on every
	// gate fronting the same cluster.
	Shards []string
	// HTTPClient is the transport used for every upstream call; nil
	// selects http.DefaultClient.
	HTTPClient *http.Client
	// ProbeInterval is the health-check period (0 selects the
	// default; negative disables background probing — circuits then
	// open and close on request outcomes only).
	ProbeInterval time.Duration
	// FailThreshold is the consecutive-failure count that opens a
	// shard's circuit (0 selects the default).
	FailThreshold int
	// AttemptTimeout bounds one upstream attempt (0 selects the
	// default, negative disables).
	AttemptTimeout time.Duration
	// Retries caps retry attempts per failed scatter call (negative
	// disables retrying; 0 selects the default).
	Retries int
	// BackoffBase seeds the jittered exponential backoff between
	// attempts (0 selects the default).
	BackoffBase time.Duration
	// MaxInFlight caps admitted extraction requests (0 selects the
	// default, negative disables admission control).
	MaxInFlight int
	// MaxBody caps request body bytes (0 selects
	// httpapi.DefaultMaxBody).
	MaxBody int64
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
}

// Gate is the scatter/gather front: an http.Handler serving the /v1
// surface over its shard set. Construct with New, release with Close.
type Gate struct {
	shards  []*shard
	mux     *http.ServeMux
	hc      *http.Client
	log     *slog.Logger
	maxBody int64

	failThreshold  int
	attemptTimeout time.Duration
	retries        int
	backoffBase    time.Duration
	maxInFlight    int64

	flights  flightGroup
	counters gateCounters
	fanout   *obs.Histogram
	ttfb     *obs.Histogram
	prom     *obs.Registry

	stopProbe context.CancelFunc
	probeDone chan struct{}
}

// New validates the shard list, wires the routes and metrics, and
// starts the background health probes.
func New(opt Options) (*Gate, error) {
	if len(opt.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard required")
	}
	if opt.HTTPClient == nil {
		opt.HTTPClient = http.DefaultClient
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = DefaultProbeInterval
	}
	if opt.FailThreshold <= 0 {
		opt.FailThreshold = DefaultFailThreshold
	}
	if opt.AttemptTimeout == 0 {
		opt.AttemptTimeout = DefaultAttemptTimeout
	}
	if opt.Retries == 0 {
		opt.Retries = DefaultRetries
	}
	if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = DefaultBackoffBase
	}
	if opt.MaxInFlight == 0 {
		opt.MaxInFlight = DefaultMaxInFlight
	}
	if opt.MaxBody <= 0 {
		opt.MaxBody = httpapi.DefaultMaxBody
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.DiscardHandler)
	}
	g := &Gate{
		mux:            http.NewServeMux(),
		hc:             opt.HTTPClient,
		log:            opt.Logger,
		maxBody:        opt.MaxBody,
		failThreshold:  opt.FailThreshold,
		attemptTimeout: opt.AttemptTimeout,
		retries:        opt.Retries,
		backoffBase:    opt.BackoffBase,
		maxInFlight:    int64(opt.MaxInFlight),
		fanout:         obs.NewHistogram(obs.DefaultBuckets()),
		ttfb:           obs.NewHistogram(obs.DefaultBuckets()),
	}
	g.flights.m = map[string]*flightCall{}
	for _, raw := range opt.Shards {
		c, err := client.New(raw, client.WithHTTPClient(opt.HTTPClient))
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %q: %w", raw, err)
		}
		g.shards = append(g.shards, newShard(c))
	}
	g.registerMetrics()

	g.mux.HandleFunc("POST /v1/extract", g.admit(g.handleExtract))
	g.mux.HandleFunc("POST /v1/extract/stream", g.admit(g.handleStream))
	g.mux.HandleFunc("PUT /v1/documents/{id}", g.handleDocument)
	g.mux.HandleFunc("GET /v1/documents/{id}", g.handleDocument)
	g.mux.HandleFunc("PATCH /v1/documents/{id}", g.handleDocument)
	g.mux.HandleFunc("DELETE /v1/documents/{id}", g.handleDocument)
	g.mux.HandleFunc("PUT /v1/registry/{name}", g.handleRegistryWrite)
	g.mux.HandleFunc("DELETE /v1/registry/{name}", g.handleRegistryWrite)
	g.mux.HandleFunc("GET /v1/registry", g.handleRegistryRead)
	g.mux.HandleFunc("GET /v1/registry/{$}", g.handleRegistryRead)
	g.mux.HandleFunc("GET /v1/registry/{name}", g.handleRegistryRead)
	g.mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /v1/metrics", g.handleMetrics)

	probeCtx, cancel := context.WithCancel(context.Background())
	g.stopProbe = cancel
	g.probeDone = make(chan struct{})
	if opt.ProbeInterval > 0 {
		go g.probeLoop(probeCtx, opt.ProbeInterval)
	} else {
		close(g.probeDone)
	}
	return g, nil
}

// Close stops the background health probes. In-flight requests are
// unaffected.
func (g *Gate) Close() {
	g.stopProbe()
	<-g.probeDone
}

// ServeHTTP echoes the request ID (the caller's X-Request-ID, or a
// fresh one), puts it on the request context so every shard call made
// for the request forwards it, and dispatches to the /v1 routes. A
// shard's trace for the request is then found under the same ID. A
// unit coalesced onto another request's in-flight call (single-flight)
// runs under the leader's ID: only the leader reaches the shard.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	g.mux.ServeHTTP(w, r.WithContext(client.WithRequestID(r.Context(), id)))
}

// admit is the admission-control middleware on the extraction routes:
// when the in-flight gauge saturates the request is shed immediately
// with 503, code "overloaded" and a Retry-After hint — a full gate
// queueing more fan-outs would only melt the shards down further.
func (g *Gate) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n := g.counters.inFlight.Add(1); g.maxInFlight > 0 && n > g.maxInFlight {
			g.counters.inFlight.Add(-1)
			g.counters.shed.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(DefaultRetryAfter))
			httpapi.WriteError(w, http.StatusServiceUnavailable, client.CodeOverloaded,
				fmt.Sprintf("gate saturated: %d extraction requests in flight", g.maxInFlight))
			return
		}
		defer g.counters.inFlight.Add(-1)
		h(w, r)
	}
}

// retryAfterSeconds renders a Retry-After hint in whole seconds,
// minimum 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// owner returns the shard owning a stored document ID: FNV-1a over
// the ID mod the configured shard count. Ownership depends only on
// the configured list, never on health — a down owner means the
// document is unavailable, not silently re-homed to a shard that has
// never seen it.
func (g *Gate) owner(docID string) *shard {
	h := fnv.New32a()
	h.Write([]byte(docID))
	return g.shards[h.Sum32()%uint32(len(g.shards))]
}

// healthy snapshots the shards whose circuits are closed.
func (g *Gate) healthy() []*shard {
	var out []*shard
	for _, sh := range g.shards {
		if !sh.open.Load() {
			out = append(out, sh)
		}
	}
	return out
}

// attemptCtx derives the per-attempt deadline.
func (g *Gate) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if g.attemptTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, g.attemptTimeout)
}

// backoff sleeps the jittered exponential delay before retry attempt
// n (0-based), honoring ctx.
func (g *Gate) backoff(ctx context.Context, attempt int) error {
	d := g.backoffBase << attempt
	// Full jitter in [d/2, 3d/2): retries from concurrent requests
	// against the same struggling shard set spread out instead of
	// stampeding in lockstep.
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// decodeBody decodes the request body into fields under the gate's
// size cap, with spand's decoder (httpapi.DecodeBody), so the gate
// accepts and refuses exactly the bodies spand does.
func (g *Gate) decodeBody(w http.ResponseWriter, r *http.Request, fields []httpapi.Field) bool {
	return httpapi.DecodeBody(w, r, g.maxBody, fields)
}

// writeUpstream relays an upstream failure to the caller. A decoded
// client.Error passes through verbatim — same status, same code, same
// message, Retry-After preserved — so the gate is transparent for
// query errors (syntax, unbound, document_not_found, ...). Transport
// errors become 502 upstream_error; an exhausted shard set becomes
// 503 unavailable with a Retry-After hint.
func writeUpstream(w http.ResponseWriter, err error) {
	var ce *client.Error
	switch {
	case errors.As(err, &ce):
		if ce.RetryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(ce.RetryAfter))
		}
		code := ce.Code
		if code == "" {
			code = client.CodeUpstream
		}
		httpapi.WriteError(w, ce.Status, code, ce.Message)
	case errors.Is(err, errNoShards):
		w.Header().Set("Retry-After", retryAfterSeconds(DefaultRetryAfter))
		httpapi.WriteError(w, http.StatusServiceUnavailable, client.CodeUnavailable, err.Error())
	case errors.Is(err, context.Canceled):
		httpapi.WriteError(w, http.StatusRequestTimeout, client.CodeCanceled, err.Error())
	default:
		httpapi.WriteError(w, http.StatusBadGateway, client.CodeUpstream, err.Error())
	}
}

// errNoShards reports an empty surviving shard set: every circuit is
// open (or every retry target failed). The response is 503
// "unavailable" with Retry-After — the cluster may heal.
var errNoShards = errors.New("no healthy shards")
