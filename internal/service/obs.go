package service

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"spanners/internal/algebra"
	"spanners/internal/obs"
)

// Observability is the service's instrumentation hub: the trace
// recorder, the pipeline-stage and emission-delay histograms, the
// per-operator algebra timings, and the Prometheus registry that
// exposes all of them (plus the counter families derived from Stats).
// A nil *Observability disables everything — each recording helper is
// nil-safe, so the instrumented paths pay one pointer test when the
// service is built with DisableObservability.
type Observability struct {
	// Tracer retains the last-N request traces for /v1/debug/trace.
	Tracer *obs.Tracer
	// StageDur is spand_extract_duration_seconds: per-stage pipeline
	// latency, labeled by the internal/obs stage taxonomy.
	StageDur *obs.HistogramVec
	// EmissionDelay is spand_stream_emission_delay_seconds: the
	// inter-mapping delay of streaming extractions — the paper's
	// polynomial-delay bound as a live distribution.
	EmissionDelay *obs.Histogram
	// AlgebraOpDur is spand_algebra_op_duration_seconds: composition
	// cost per algebra operator (leaf / union / join / project /
	// difference).
	AlgebraOpDur *obs.HistogramVec

	deadlineExpiries atomic.Uint64
	reg              *obs.Registry
}

// newObservability builds the hub and registers every metric family.
// svc is captured by the counter/gauge collectors, which snapshot
// Stats at scrape time.
func newObservability(svc *Service, traceRetention int) *Observability {
	o := &Observability{
		Tracer:        obs.NewTracer(traceRetention),
		StageDur:      obs.NewHistogramVec("stage", nil),
		EmissionDelay: obs.NewHistogram(nil),
		AlgebraOpDur:  obs.NewHistogramVec("op", nil),
		reg:           obs.NewRegistry(),
	}
	r := o.reg
	r.RegisterHistogramVec("spand_extract_duration_seconds",
		"Extraction pipeline latency per stage.", o.StageDur)
	r.RegisterHistogram("spand_stream_emission_delay_seconds",
		"Delay between consecutive streamed mappings (first sample is time-to-first-result).", o.EmissionDelay)
	r.RegisterHistogramVec("spand_algebra_op_duration_seconds",
		"Algebra plan composition cost per operator.", o.AlgebraOpDur)
	r.RegisterCounterFunc("spand_mappings_emitted_total",
		"Output mappings emitted across all extraction paths.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(svc.emitted.Load())}}
		})
	r.RegisterGaugeFunc("spand_in_flight_requests",
		"Extractions currently in flight.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(svc.inFlight.Load())}}
		})
	r.RegisterCounterFunc("spand_deadline_expiries_total",
		"Requests that hit the server-imposed deadline.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(o.deadlineExpiries.Load())}}
		})
	r.RegisterCounterFunc("spand_panics_total",
		"Extraction panics recovered in service goroutines (answered as internal errors).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(svc.panics.Load())}}
		})
	r.RegisterCounterFunc("spand_cache_events_total",
		"Compile-cache traffic by cache and event.", func() []obs.Sample {
			st := svc.Stats()
			out := make([]obs.Sample, 0, 6)
			for _, c := range []struct {
				name  string
				stats CacheStats
			}{{"spanner", st.Spanners}, {"rule", st.Rules}} {
				out = append(out,
					obs.Sample{Labels: []string{obs.L("cache", c.name), obs.L("event", "hit")}, Value: float64(c.stats.Hits)},
					obs.Sample{Labels: []string{obs.L("cache", c.name), obs.L("event", "miss")}, Value: float64(c.stats.Misses)},
					obs.Sample{Labels: []string{obs.L("cache", c.name), obs.L("event", "eviction")}, Value: float64(c.stats.Evictions)},
				)
			}
			return out
		})
	r.RegisterCounterFunc("spand_spanners_compiled_total",
		"Spanners compiled, by selected evaluation engine.", func() []obs.Sample {
			st := svc.Stats().Engine
			return []obs.Sample{
				{Labels: []string{obs.L("engine", "sequential")}, Value: float64(st.SequentialSpanners)},
				{Labels: []string{obs.L("engine", "fpt")}, Value: float64(st.FPTSpanners)},
			}
		})
	r.RegisterCounterFunc("spand_compile_seconds_total",
		"Cumulative spanner compilation wall time.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(svc.compileNanos.Load()) / 1e9}}
		})
	r.RegisterGaugeFunc("spand_dfa_states",
		"Resident determinized states across all lazy-DFA caches.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(svc.dfaStats().States)}}
		})
	r.RegisterCounterFunc("spand_dfa_transitions_total",
		"Lazy-DFA transition lookups by outcome.", func() []obs.Sample {
			st := svc.dfaStats()
			return []obs.Sample{
				{Labels: []string{obs.L("outcome", "hit")}, Value: float64(st.Hits)},
				{Labels: []string{obs.L("outcome", "miss")}, Value: float64(st.Misses)},
			}
		})
	r.RegisterGaugeFunc("spand_docstore_bytes",
		"Bytes held by the document store (documents, journals, attached sessions).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(svc.docs.Stats().Bytes)}}
		})
	r.RegisterGaugeFunc("spand_docstore_documents",
		"Documents resident in the store.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(svc.docs.Stats().Documents)}}
		})
	r.RegisterCounterFunc("spand_docstore_events_total",
		"Document store traffic by event.", func() []obs.Sample {
			st := svc.docs.Stats()
			return []obs.Sample{
				{Labels: []string{obs.L("event", "put")}, Value: float64(st.Puts)},
				{Labels: []string{obs.L("event", "splice")}, Value: float64(st.Splices)},
				{Labels: []string{obs.L("event", "hit")}, Value: float64(st.Hits)},
				{Labels: []string{obs.L("event", "miss")}, Value: float64(st.Misses)},
				{Labels: []string{obs.L("event", "eviction")}, Value: float64(st.Evictions)},
			}
		})
	r.RegisterCounterFunc("spand_incremental_extractions_total",
		"By-reference extractions by serving path (hit: cached result set; replay: journal catch-up; rebuild: full re-seed; full: non-incremental fallback).", func() []obs.Sample {
			st := svc.documentStats()
			return []obs.Sample{
				{Labels: []string{obs.L("path", "hit")}, Value: float64(st.IncrementalHits)},
				{Labels: []string{obs.L("path", "replay")}, Value: float64(st.IncrementalReplays)},
				{Labels: []string{obs.L("path", "rebuild")}, Value: float64(st.IncrementalRebuilds)},
				{Labels: []string{obs.L("path", "full")}, Value: float64(st.FullExtractions)},
			}
		})
	r.RegisterCounterFunc("spand_algebra_planner_rewrites_total",
		"Planner rewrite rule firings across fresh algebra compositions, by rule.", func() []obs.Sample {
			rules := algebra.RuleNames()
			out := make([]obs.Sample, 0, len(rules))
			for _, rule := range rules {
				out = append(out, obs.Sample{
					Labels: []string{obs.L("rule", rule)},
					Value:  float64(svc.algebraRuleFires[rule].Load()),
				})
			}
			return out
		})
	r.RegisterCounterFunc("spand_registry_loads_total",
		"Named-spanner resolutions by path.", func() []obs.Sample {
			st := svc.Stats().Registry
			return []obs.Sample{
				{Labels: []string{obs.L("path", "hit")}, Value: float64(st.NamedHits)},
				{Labels: []string{obs.L("path", "artifact")}, Value: float64(st.ArtifactLoads)},
				{Labels: []string{obs.L("path", "source-fallback")}, Value: float64(st.SourceFallbacks)},
			}
		})
	return o
}

// stage records one completed pipeline stage into the stage histogram.
func (o *Observability) stage(name string, d time.Duration) {
	if o != nil {
		o.StageDur.Observe(name, d)
	}
}

// NoteDeadlineExpiry counts one request that hit the server-imposed
// deadline (surfaced as spand_deadline_expiries_total).
func (o *Observability) NoteDeadlineExpiry() {
	if o != nil {
		o.deadlineExpiries.Add(1)
	}
}

// DeadlineExpiries returns the running deadline-expiry count.
func (o *Observability) DeadlineExpiries() uint64 {
	if o == nil {
		return 0
	}
	return o.deadlineExpiries.Load()
}

// WritePrometheus renders every registered metric family in the
// Prometheus text exposition format. A nil hub writes nothing.
func (o *Observability) WritePrometheus(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.reg.WritePrometheus(w)
}

// Observability returns the service's instrumentation hub, nil when
// the service was built with DisableObservability.
func (s *Service) Observability() *Observability { return s.obs }

// observerFor builds the StageObserver the engines report through:
// stage timings land in the service-wide histogram and (when t is
// non-nil) as spans on the request trace; emission delays land in the
// stream-delay histogram and the trace's per-request digest. Returns
// nil — disabling engine instrumentation entirely — when observability
// is off.
func (s *Service) observerFor(t *obs.Trace) *obs.StageObserver {
	o := s.obs
	if o == nil {
		return nil
	}
	return &obs.StageObserver{
		Stage: func(name string, d time.Duration) {
			o.StageDur.Observe(name, d)
			t.AddSpan(name, time.Now().Add(-d), d, "")
		},
		Delay: func(d time.Duration) {
			o.EmissionDelay.Observe(d)
			t.ObserveDelay(d)
		},
	}
}

// batchObserver is observerFor for one batch worker: no per-trace
// span recording or delay digest (a large batch would flood the trace
// with per-document spans — the batch itself gets one span). When the
// batch runs multiple workers the stage samples land in a
// goroutine-local histogram family that the caller absorbs into
// StageDur when the worker drains — per-document recording stays on
// core-local cache lines instead of ping-ponging the shared counters
// across the pool. A lone worker cannot contend, so it records
// straight into the shared family and skips the local allocation
// (nil vec). Returns nils when observability is off.
func (s *Service) batchObserver(workers int) (*obs.StageObserver, *obs.HistogramVec) {
	o := s.obs
	if o == nil {
		return nil, nil
	}
	if workers <= 1 {
		return &obs.StageObserver{Stage: o.StageDur.Observe}, nil
	}
	local := obs.NewHistogramVec("stage", nil)
	return &obs.StageObserver{Stage: local.Observe}, local
}

// recordOpCosts feeds a fresh algebra plan's per-operator timings into
// the operator histogram and, when a trace is active, onto the request
// trace as "algebra:<op>" spans.
func (s *Service) recordOpCosts(t *obs.Trace, costs []algebra.OpCost) {
	o := s.obs
	if o == nil {
		return
	}
	now := time.Now()
	for _, c := range costs {
		d := time.Duration(c.DurNs)
		o.AlgebraOpDur.Observe(c.Op, d)
		t.AddSpan(obs.AlgebraStage(c.Op), now.Add(-d), d, "")
	}
}

// traceDetail renders a small numeric annotation for a span.
func traceDetail(n int, unit string) string {
	return strconv.Itoa(n) + " " + unit
}
