package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded pipeline stage of a request: a name from the
// stage taxonomy (cache-lookup, compile, registry-load,
// co-reach-sweep, enumerate, batch, stream, algebra:* …), its offset
// from the trace start, and its wall duration. Detail optionally
// carries a small free-form annotation (a document count, an operator
// arity) — never the document itself.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	DurNs  int64  `json:"duration_ns"`
	Detail string `json:"detail,omitempty"`
}

// Trace is the ordered span record of one request, identified by its
// request ID. Methods are safe for concurrent use (batch workers
// record stage samples concurrently) and safe on a nil receiver, so
// uninstrumented paths pay only a nil check.
type Trace struct {
	id    string
	begin time.Time

	mu      sync.Mutex
	spans   []Span
	totalNs int64
	done    bool

	// delays is the per-request inter-mapping emission-delay histogram
	// (Theorem 5.7 made measurable), allocated on first sample.
	delays *Histogram
}

// maxSpansPerTrace caps one trace's span list so a pathological
// request (a huge batch, a deep algebra tree) cannot grow a trace
// without bound; the drop count is visible as the capped length.
const maxSpansPerTrace = 256

// ID returns the trace's request ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a span at now and returns a closer that records it;
// call the closer when the stage finishes. On a nil trace the closer
// is a no-op.
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.AddSpan(name, start, time.Since(start), "") }
}

// AddSpan records one completed stage. start is the stage's absolute
// start time; the trace stores it as an offset from its own begin.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration, detail string) {
	if t == nil {
		return
	}
	sp := Span{Name: name, Start: start.Sub(t.begin).Nanoseconds(), DurNs: d.Nanoseconds(), Detail: detail}
	t.mu.Lock()
	if len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// ObserveDelay records one inter-mapping emission delay into the
// trace's per-request histogram.
func (t *Trace) ObserveDelay(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.delays == nil {
		t.delays = NewHistogram(nil)
	}
	h := t.delays
	t.mu.Unlock()
	h.Observe(d)
}

// Finish marks the trace complete with its total wall time. Later
// spans are still accepted (a straggling batch worker), but the total
// no longer moves.
func (t *Trace) Finish(total time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.totalNs = total.Nanoseconds()
	}
	t.mu.Unlock()
}

// DelaySummary is the per-request emission-delay digest carried on a
// trace snapshot: sample count, p50/p99 estimates and the maximum —
// the polynomial-delay SLO at request granularity.
type DelaySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
	MaxNs int64   `json:"max_ns"`
}

// TraceSnapshot is the JSON-ready copy of a trace.
type TraceSnapshot struct {
	ID      string        `json:"id"`
	Begin   time.Time     `json:"begin"`
	TotalNs int64         `json:"total_ns"`
	Done    bool          `json:"done"`
	Spans   []Span        `json:"spans"`
	Delays  *DelaySummary `json:"emission_delays,omitempty"`
}

// Snapshot copies the trace for serving; safe while spans are still
// being recorded.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	s := TraceSnapshot{
		ID:      t.id,
		Begin:   t.begin,
		TotalNs: t.totalNs,
		Done:    t.done,
		Spans:   append([]Span(nil), t.spans...),
	}
	delays := t.delays
	t.mu.Unlock()
	if delays != nil {
		hs := delays.Snapshot()
		s.Delays = &DelaySummary{
			Count: hs.Count,
			P50:   hs.Quantile(0.50),
			P99:   hs.Quantile(0.99),
			MaxNs: hs.MaxNs,
		}
	}
	return s
}

// Tracer retains the last N traces in a ring, indexed by request ID.
// Begin is O(1) under one short lock; retention is bounded so the
// recorder's memory is independent of uptime.
type Tracer struct {
	retain int
	mu     sync.Mutex
	ring   []*Trace
	next   int
	byID   map[string]*Trace
}

// DefaultTraceRetention is the ring size when none is configured.
const DefaultTraceRetention = 128

// NewTracer builds a tracer retaining the last retain traces
// (<=0 selects DefaultTraceRetention).
func NewTracer(retain int) *Tracer {
	if retain <= 0 {
		retain = DefaultTraceRetention
	}
	return &Tracer{retain: retain, ring: make([]*Trace, 0, retain), byID: make(map[string]*Trace, retain)}
}

// Begin starts (and retains) a new trace under the given request ID,
// generating a fresh ID when empty. A nil tracer returns a nil trace,
// which every recording method accepts.
func (tr *Tracer) Begin(id string) *Trace {
	if tr == nil {
		return nil
	}
	if id == "" {
		id = NewRequestID()
	}
	// Pre-size the span slice for a typical request (compile + a few
	// pipeline stages) so recording doesn't regrow it span by span.
	t := &Trace{id: id, begin: time.Now(), spans: make([]Span, 0, 8)}
	tr.mu.Lock()
	if len(tr.ring) < tr.retain {
		tr.ring = append(tr.ring, t)
	} else {
		old := tr.ring[tr.next]
		if tr.byID[old.id] == old {
			delete(tr.byID, old.id)
		}
		tr.ring[tr.next] = t
		tr.next = (tr.next + 1) % tr.retain
	}
	tr.byID[id] = t
	tr.mu.Unlock()
	return t
}

// Get returns the retained trace for a request ID.
func (tr *Tracer) Get(id string) (TraceSnapshot, bool) {
	if tr == nil {
		return TraceSnapshot{}, false
	}
	tr.mu.Lock()
	t := tr.byID[id]
	tr.mu.Unlock()
	if t == nil {
		return TraceSnapshot{}, false
	}
	return t.Snapshot(), true
}

// Last returns snapshots of up to n retained traces, most recent
// first. n may exceed the retention: it is capped at the number of
// traces held, so it never sizes an allocation by itself.
func (tr *Tracer) Last(n int) []TraceSnapshot {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	ts := make([]*Trace, 0, min(n, len(tr.ring)))
	// The ring is ordered oldest→newest starting at next (once full);
	// walk it backwards.
	for i := 0; i < len(tr.ring) && len(ts) < n; i++ {
		idx := (tr.next - 1 - i + 2*len(tr.ring)) % len(tr.ring)
		if len(tr.ring) < tr.retain {
			idx = len(tr.ring) - 1 - i
		}
		ts = append(ts, tr.ring[idx])
	}
	tr.mu.Unlock()
	out := make([]TraceSnapshot, len(ts))
	for i, t := range ts {
		out[i] = t.Snapshot()
	}
	return out
}

// Request-ID generation: a per-process random prefix plus a counter —
// unique, cheap, and ordered within one process.
var (
	idPrefix  = func() string { var b [4]byte; rand.Read(b[:]); return hex.EncodeToString(b[:]) }()
	idCounter atomic.Uint64
)

// NewRequestID returns a fresh process-unique request ID.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06x", idPrefix, idCounter.Add(1))
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// WithTrace attaches a trace to a context; extraction paths downstream
// record their stage spans into it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the context's trace, or nil — and nil is a valid
// no-op recorder, so callers never branch.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// StageObserver carries instrumentation callbacks into the evaluation
// engines: Stage fires once per completed pipeline stage with its wall
// time, Delay once per emitted mapping with the time since the
// previous emission (the first sample measures time-to-first-result).
// Either field may be nil; a nil observer disables instrumentation
// entirely and costs the engine one pointer test.
type StageObserver struct {
	Stage func(name string, d time.Duration)
	Delay func(d time.Duration)
}
