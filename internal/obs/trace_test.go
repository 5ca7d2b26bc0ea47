package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndFinish(t *testing.T) {
	tr := NewTracer(4)
	trace := tr.Begin("req-1")
	if trace.ID() != "req-1" {
		t.Fatalf("id = %q", trace.ID())
	}
	end := trace.StartSpan("compile")
	time.Sleep(time.Millisecond)
	end()
	trace.AddSpan("enumerate", time.Now(), 5*time.Millisecond, "3 docs")
	trace.Finish(10 * time.Millisecond)
	trace.Finish(99 * time.Millisecond) // second finish must not overwrite

	s, ok := tr.Get("req-1")
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(s.Spans) != 2 || s.Spans[0].Name != "compile" || s.Spans[1].Name != "enumerate" {
		t.Fatalf("spans = %+v", s.Spans)
	}
	if s.Spans[0].DurNs < int64(time.Millisecond) {
		t.Fatalf("compile span too short: %d ns", s.Spans[0].DurNs)
	}
	if s.Spans[1].Detail != "3 docs" {
		t.Fatalf("detail = %q", s.Spans[1].Detail)
	}
	if !s.Done || s.TotalNs != int64(10*time.Millisecond) {
		t.Fatalf("done=%v total=%d", s.Done, s.TotalNs)
	}
}

func TestTraceDelayHistogram(t *testing.T) {
	trace := NewTracer(1).Begin("")
	if trace.ID() == "" {
		t.Fatal("empty generated id")
	}
	for i := 0; i < 10; i++ {
		trace.ObserveDelay(time.Duration(i) * time.Microsecond)
	}
	s := trace.Snapshot()
	if s.Delays == nil || s.Delays.Count != 10 {
		t.Fatalf("delays = %+v", s.Delays)
	}
	if s.Delays.MaxNs != int64(9*time.Microsecond) {
		t.Fatalf("max = %d", s.Delays.MaxNs)
	}
	if s.Delays.P99 <= 0 {
		t.Fatalf("p99 = %v", s.Delays.P99)
	}
}

func TestTraceSpanCap(t *testing.T) {
	trace := NewTracer(1).Begin("cap")
	now := time.Now()
	for i := 0; i < maxSpansPerTrace+50; i++ {
		trace.AddSpan("s", now, time.Nanosecond, "")
	}
	if n := len(trace.Snapshot().Spans); n != maxSpansPerTrace {
		t.Fatalf("spans = %d, want cap %d", n, maxSpansPerTrace)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		tr.Begin(id)
	}
	if _, ok := tr.Get("a"); ok {
		t.Fatal("evicted trace a still resolvable")
	}
	if _, ok := tr.Get("b"); ok {
		t.Fatal("evicted trace b still resolvable")
	}
	for _, id := range []string{"c", "d", "e"} {
		if _, ok := tr.Get(id); !ok {
			t.Fatalf("retained trace %s not resolvable", id)
		}
	}
	last := tr.Last(10)
	if len(last) != 3 {
		t.Fatalf("last = %d traces, want 3", len(last))
	}
	if last[0].ID != "e" || last[1].ID != "d" || last[2].ID != "c" {
		t.Fatalf("order = %s,%s,%s want e,d,c", last[0].ID, last[1].ID, last[2].ID)
	}
	// Partially-filled ring keeps the same most-recent-first contract.
	tr2 := NewTracer(8)
	tr2.Begin("x")
	tr2.Begin("y")
	last2 := tr2.Last(2)
	if len(last2) != 2 || last2[0].ID != "y" || last2[1].ID != "x" {
		t.Fatalf("partial ring order wrong: %+v", last2)
	}
}

// TestTracerLastHugeN: a count far beyond the retention (as a
// ?n= query can ask) returns at most the retained traces instead of
// sizing an allocation by the count.
func TestTracerLastHugeN(t *testing.T) {
	tr := NewTracer(4)
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		tr.Begin(id)
	}
	last := tr.Last(1 << 62)
	if len(last) != 4 || last[0].ID != "f" || last[3].ID != "c" {
		t.Fatalf("Last(1<<62) = %d traces (%+v), want f..c", len(last), last)
	}
	if got := NewTracer(4).Last(1 << 62); len(got) != 0 {
		t.Fatalf("empty tracer: Last(1<<62) = %d traces, want 0", len(got))
	}
}

func TestNilTracerAndTrace(t *testing.T) {
	var tr *Tracer
	trace := tr.Begin("x")
	if trace != nil {
		t.Fatal("nil tracer produced a trace")
	}
	// All recording methods must be no-ops on nil.
	trace.StartSpan("s")()
	trace.AddSpan("s", time.Now(), 0, "")
	trace.ObserveDelay(time.Second)
	trace.Finish(time.Second)
	if trace.ID() != "" {
		t.Fatal("nil trace has an id")
	}
	if _, ok := tr.Get("x"); ok {
		t.Fatal("nil tracer resolved a trace")
	}
	if tr.Last(5) != nil {
		t.Fatal("nil tracer returned traces")
	}
}

func TestWithTraceRoundTrip(t *testing.T) {
	trace := NewTracer(1).Begin("ctx-1")
	ctx := WithTrace(context.Background(), trace)
	if got := TraceFrom(ctx); got != trace {
		t.Fatal("trace did not round-trip through context")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatal("empty context yielded a trace")
	}
	// Attaching nil leaves the context unchanged.
	if ctx2 := WithTrace(context.Background(), nil); TraceFrom(ctx2) != nil {
		t.Fatal("nil trace attached")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		if !strings.Contains(id, "-") {
			t.Fatalf("malformed id %s", id)
		}
		seen[id] = true
	}
}

// TestTraceConcurrent records spans and delays from parallel writers
// while snapshots are taken — the -race check for the trace recorder.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTracer(16)
	trace := tr.Begin("conc")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				trace.Snapshot()
				tr.Last(8)
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				end := trace.StartSpan("stage")
				trace.ObserveDelay(time.Duration(i) * time.Nanosecond)
				end()
				if i%50 == 0 {
					tr.Begin("") // churn the ring concurrently
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-snapDone
	s := trace.Snapshot()
	if s.Delays == nil || s.Delays.Count != 8*200 {
		t.Fatalf("delay samples = %+v, want %d", s.Delays, 8*200)
	}
	if len(s.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want cap %d", len(s.Spans), maxSpansPerTrace)
	}
}
