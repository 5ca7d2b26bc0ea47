package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
	"weak"

	"spanners"
	"spanners/internal/algebra"
	"spanners/internal/docstore"
	"spanners/internal/eval"
	"spanners/internal/obs"
	"spanners/internal/registry"
	"spanners/internal/span"
)

// Config sizes a Service. Zero values select sensible defaults.
type Config struct {
	// SpannerCacheSize bounds the compiled-spanner LRU (default 256).
	SpannerCacheSize int
	// RuleCacheSize bounds the compiled-rule LRU (default 64).
	RuleCacheSize int
	// Workers bounds batch-extraction concurrency (default 4).
	Workers int
	// Registry optionally backs the service with a persistent spanner
	// registry: queries may then reference stored spanners by
	// "name@version", and Prewarm loads every registered artifact into
	// the caches at startup. Nil disables registry features.
	Registry *registry.Registry
	// DocStoreBytes bounds the document store backing /v1/documents
	// (default 64 MiB). Documents, their splice journals and their
	// attached incremental sessions all count against it; least
	// recently used documents are evicted when it overflows.
	DocStoreBytes int64
	// DifferenceBudget bounds the determinization state budget behind
	// each algebra difference composition; <= 0 selects
	// spanners.DefaultDifferenceBudget. Exhaustion fails the query with
	// algebra.ErrBudget (a client error), never unbounded memory.
	DifferenceBudget int
	// TraceRetention bounds the ring of retained request traces
	// (default obs.DefaultTraceRetention).
	TraceRetention int
	// DisableObservability turns off the tracing/histogram layer
	// entirely: no tracer, no stage or delay histograms, no Prometheus
	// registry. Exists for the instrumentation-overhead benchmarks;
	// production services leave it false.
	DisableObservability bool
}

// DefaultConfig returns the defaults used for zero-valued fields.
func DefaultConfig() Config {
	return Config{SpannerCacheSize: 256, RuleCacheSize: 64, Workers: 4, DocStoreBytes: 64 << 20}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SpannerCacheSize <= 0 {
		c.SpannerCacheSize = d.SpannerCacheSize
	}
	if c.RuleCacheSize <= 0 {
		c.RuleCacheSize = d.RuleCacheSize
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.DocStoreBytes <= 0 {
		c.DocStoreBytes = d.DocStoreBytes
	}
	return c
}

// Service is a long-lived extraction service: it caches compiled
// spanners and extraction rules by source text and evaluates them over
// documents in batches or as streams. All methods are safe for
// concurrent use.
type Service struct {
	cfg      Config
	spanners *lru[*spanners.Spanner]
	rules    *lru[*spanners.Rule]

	// Registry-backed named spanners: named maps "name@version" to the
	// decoded artifact (or its recompiled fallback), latest caches each
	// name's current version so unpinned lookups skip the disk, and
	// leaves holds the automaton-bearing spanners the algebra planner
	// rebuilt from manifest sources (decoded artifacts carry no
	// automaton and cannot be composed).
	reg     *registry.Registry
	namedMu sync.Mutex
	named   map[string]*spanners.Spanner
	latest  map[string]string
	loading map[string]*namedCall
	leaves  map[string]*spanners.Spanner

	prewarmed     atomic.Uint64
	namedHits     atomic.Uint64
	artifactLoads atomic.Uint64
	fallbacks     atomic.Uint64

	algebraQueries      atomic.Uint64
	algebraCacheHits    atomic.Uint64
	algebraCompositions atomic.Uint64
	algebraLeafBuilds   atomic.Uint64
	algebraLeafHits     atomic.Uint64
	algebraRegistered   atomic.Uint64
	algebraRewrites     atomic.Uint64
	algebraCSEHits      atomic.Uint64
	algebraPrecomposed  atomic.Uint64

	// algebraRuleFires counts planner rule firings per rule name. The
	// map is built once in New from algebra.RuleNames() and never
	// mutated afterwards, so reads need no lock; only the values are
	// atomic.
	algebraRuleFires map[string]*atomic.Uint64

	// Lazy-DFA observability: dfaSpanners indexes one spanner per
	// distinct DFA cache the service has compiled or loaded (caches
	// are per-program and shared, so the index deduplicates by cache
	// id); Stats sums their live counters. References are weak so the
	// index never pins a spanner the LRU has evicted — collected
	// entries drop out of the aggregate (and the map) at the next
	// snapshot. The index is also capped; a service churning through
	// more distinct programs than the cap reports a lower bound, which
	// the snapshot flags.
	dfaMu       sync.Mutex
	dfaSpanners map[uint64]weak.Pointer[spanners.Spanner]

	inFlight atomic.Int64
	emitted  atomic.Uint64
	panics   atomic.Uint64 // recovered extraction panics (ErrInternal)

	// docs backs the /v1/documents API; the inc* counters classify
	// by-reference extractions by how they were served (see
	// DocumentStats).
	docs        *docstore.Store
	incHits     atomic.Uint64
	incReplays  atomic.Uint64
	incRebuilds atomic.Uint64
	incFull     atomic.Uint64

	// Engine-selection and compile-cost counters, incremented once per
	// spanner compilation (cache misses only, so the counters measure
	// the artifacts the cache holds rather than request traffic).
	seqSpanners     atomic.Uint64
	fptSpanners     atomic.Uint64
	compiledProgs   atomic.Uint64
	interpFallbacks atomic.Uint64
	compileNanos    atomic.Int64

	// obs is the instrumentation hub (tracer, stage/delay histograms,
	// Prometheus registry); nil when Config.DisableObservability.
	obs *Observability
}

// New builds a service from cfg (zero fields take defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:         cfg,
		spanners:    newLRU[*spanners.Spanner](cfg.SpannerCacheSize),
		rules:       newLRU[*spanners.Rule](cfg.RuleCacheSize),
		reg:         cfg.Registry,
		named:       map[string]*spanners.Spanner{},
		latest:      map[string]string{},
		loading:     map[string]*namedCall{},
		leaves:      map[string]*spanners.Spanner{},
		dfaSpanners: map[uint64]weak.Pointer[spanners.Spanner]{},
		docs:        docstore.New(cfg.DocStoreBytes),
	}
	s.algebraRuleFires = map[string]*atomic.Uint64{}
	for _, rule := range algebra.RuleNames() {
		s.algebraRuleFires[rule] = &atomic.Uint64{}
	}
	if !cfg.DisableObservability {
		s.obs = newObservability(s, cfg.TraceRetention)
	}
	return s
}

// maxTrackedDFAs caps the DFA-observability index: beyond it new
// caches still serve, they just stop being aggregated (Truncated is
// set on the snapshot).
const maxTrackedDFAs = 1024

// trackDFA records sp's DFA cache in the observability index, once
// per distinct cache (refreshing entries whose spanner has been
// collected).
func (s *Service) trackDFA(sp *spanners.Spanner) {
	st := sp.DFAStats()
	if !st.Enabled {
		return
	}
	s.dfaMu.Lock()
	if prev, ok := s.dfaSpanners[st.CacheID]; (!ok || prev.Value() == nil) && len(s.dfaSpanners) < maxTrackedDFAs {
		s.dfaSpanners[st.CacheID] = weak.Make(sp)
	}
	s.dfaMu.Unlock()
}

// DFAStats aggregates the lazy-DFA transition caches behind every
// compiled spanner the service has produced or loaded: resident
// determinized states, transition hit/miss traffic, budget flushes
// with their evictions, and sweeps that fell back to bitset stepping.
type DFAStats struct {
	Caches    int    `json:"caches"`
	States    int    `json:"states"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Flushes   uint64 `json:"flushes"`
	Fallbacks uint64 `json:"fallbacks"`
	// Truncated reports that the observability index hit its cap and
	// the sums above are a lower bound.
	Truncated bool `json:"truncated,omitempty"`
}

// dfaStats sums the live counters of every tracked cache, pruning
// entries whose spanner has been collected.
func (s *Service) dfaStats() DFAStats {
	s.dfaMu.Lock()
	tracked := make([]*spanners.Spanner, 0, len(s.dfaSpanners))
	for id, ref := range s.dfaSpanners {
		if sp := ref.Value(); sp != nil {
			tracked = append(tracked, sp)
		} else {
			delete(s.dfaSpanners, id)
		}
	}
	truncated := len(s.dfaSpanners) >= maxTrackedDFAs
	s.dfaMu.Unlock()
	out := DFAStats{
		Caches:    len(tracked),
		Truncated: truncated,
	}
	for _, sp := range tracked {
		st := sp.DFAStats()
		out.States += st.States
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Flushes += st.Flushes
		out.Fallbacks += st.Fallbacks
	}
	return out
}

// EngineStats summarizes engine selection and compile cost across the
// spanners the service has compiled: how many run the sequential
// PTIME engine (Theorem 5.7) vs the FPT fallback (Theorem 5.10), how
// many execute a compiled program vs the interpreted fallback, and
// the cumulative compilation time the cache amortizes.
type EngineStats struct {
	SequentialSpanners   uint64 `json:"sequential_spanners"`
	FPTSpanners          uint64 `json:"fpt_spanners"`
	CompiledPrograms     uint64 `json:"compiled_programs"`
	InterpretedFallbacks uint64 `json:"interpreted_fallbacks"`
	CompileNanos         int64  `json:"compile_ns_total"`
}

// RegistryStats summarizes the persistent-registry integration: how
// many artifacts the startup pre-warm decoded, how the named-spanner
// index is serving ("hits" never touched disk, "artifact_loads"
// decoded a stored program without recompiling, "source_fallbacks"
// had to recompile from the manifest source because the artifact was
// unusable), and how many named spanners are resident.
type RegistryStats struct {
	Enabled         bool   `json:"enabled"`
	Prewarmed       uint64 `json:"prewarmed"`
	NamedHits       uint64 `json:"named_hits"`
	ArtifactLoads   uint64 `json:"artifact_loads"`
	SourceFallbacks uint64 `json:"source_fallbacks"`
	Resident        int    `json:"resident"`
}

// Stats is the service-level metrics snapshot: the two compile caches
// plus request-path, engine-selection, registry and algebra counters.
type Stats struct {
	Spanners  CacheStats    `json:"spanner_cache"`
	Rules     CacheStats    `json:"rule_cache"`
	Engine    EngineStats   `json:"engine"`
	DFA       DFAStats      `json:"dfa"`
	Registry  RegistryStats `json:"registry"`
	Algebra   AlgebraStats  `json:"algebra"`
	Documents DocumentStats `json:"documents"`
	InFlight  int64         `json:"in_flight"`
	Emitted   uint64        `json:"mappings_emitted"`
}

// Stats returns a point-in-time snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.namedMu.Lock()
	resident := len(s.named)
	s.namedMu.Unlock()
	return Stats{
		Spanners: s.spanners.stats(),
		Rules:    s.rules.stats(),
		DFA:      s.dfaStats(),
		Engine: EngineStats{
			SequentialSpanners:   s.seqSpanners.Load(),
			FPTSpanners:          s.fptSpanners.Load(),
			CompiledPrograms:     s.compiledProgs.Load(),
			InterpretedFallbacks: s.interpFallbacks.Load(),
			CompileNanos:         s.compileNanos.Load(),
		},
		Registry: RegistryStats{
			Enabled:         s.reg != nil,
			Prewarmed:       s.prewarmed.Load(),
			NamedHits:       s.namedHits.Load(),
			ArtifactLoads:   s.artifactLoads.Load(),
			SourceFallbacks: s.fallbacks.Load(),
			Resident:        resident,
		},
		Algebra: AlgebraStats{
			Queries:      s.algebraQueries.Load(),
			CacheHits:    s.algebraCacheHits.Load(),
			Compositions: s.algebraCompositions.Load(),
			LeafBuilds:   s.algebraLeafBuilds.Load(),
			LeafHits:     s.algebraLeafHits.Load(),
			Registered:   s.algebraRegistered.Load(),
			Rewrites:     s.algebraRewrites.Load(),
			CSEHits:      s.algebraCSEHits.Load(),
			Precomposed:  s.algebraPrecomposed.Load(),
		},
		Documents: s.documentStats(),
		InFlight:  s.inFlight.Load(),
		Emitted:   s.emitted.Load(),
	}
}

// Spanner returns the compiled spanner for expr, compiling on a cache
// miss.
func (s *Service) Spanner(expr string) (*spanners.Spanner, error) {
	sp, _, err := s.spannerTracked(expr)
	return sp, err
}

// spannerTracked is Spanner reporting whether this call performed the
// compilation (false: served from cache or joined another caller's
// in-flight compile) — the signal the observed compile path uses to
// label its span "compile" vs "cache-lookup".
func (s *Service) spannerTracked(expr string) (*spanners.Spanner, bool, error) {
	compiled := false
	sp, err := s.spanners.get(exprKeyPrefix+expr, func() (*spanners.Spanner, error) {
		compiled = true
		start := time.Now()
		sp, err := spanners.Compile(expr)
		if err != nil {
			return nil, err
		}
		s.compileNanos.Add(time.Since(start).Nanoseconds())
		s.recordEngine(sp)
		return sp, nil
	})
	return sp, compiled, err
}

// recordEngine counts sp into the engine-selection counters, once per
// spanner entering a cache (inline compile or algebra composition).
func (s *Service) recordEngine(sp *spanners.Spanner) {
	s.trackDFA(sp)
	if sp.Sequential() {
		s.seqSpanners.Add(1)
	} else {
		s.fptSpanners.Add(1)
	}
	if sp.Compiled() {
		s.compiledProgs.Add(1)
	} else {
		s.interpFallbacks.Add(1)
	}
}

// Rule returns the compiled extraction rule for input, compiling on a
// cache miss.
func (s *Service) Rule(input string) (*spanners.Rule, error) {
	r, _, err := s.ruleTracked(input)
	return r, err
}

// ruleTracked is Rule reporting whether this call performed the parse.
func (s *Service) ruleTracked(input string) (*spanners.Rule, bool, error) {
	compiled := false
	r, err := s.rules.get(input, func() (*spanners.Rule, error) {
		compiled = true
		return spanners.ParseRule(input)
	})
	return r, compiled, err
}

// Query names what to extract with: exactly one of Expr (an RGX
// expression), Rule (an extraction rule, docExpr && x.(…) syntax),
// Spanner (a registry reference, "name" or "name@version") or Algebra
// (a spanner-algebra expression composing registry entries, e.g.
// "join(project(invoices@v, buyer), union(sellers, sellers-eu))")
// must be set. Limit, when positive, caps the number of mappings per
// document.
type Query struct {
	Expr    string `json:"expr,omitempty"`
	Rule    string `json:"rule,omitempty"`
	Spanner string `json:"spanner,omitempty"`
	Algebra string `json:"algebra,omitempty"`
	Limit   int    `json:"limit,omitempty"`
}

// ErrBadQuery is returned when a query does not set exactly one of
// Expr/Rule/Spanner/Algebra.
var ErrBadQuery = errors.New("service: query must set exactly one of expr, rule, spanner or algebra")

// enumerator abstracts the two compiled forms behind a common
// streaming interface: it calls yield once per output mapping of d
// with the tuple t over cols that holds it (cols sorted by name, the
// zero Span as ⊥; both borrowed for the call). Spanners stream with
// polynomial delay, observe ctx between outputs and report stages and
// delays to o when it is non-nil; rules materialize first (rule
// evaluation is NP-hard in general, Theorem 5.8) and then replay
// through the Mapping adapter, ignoring o, so ctx is consulted before
// evaluation starts and between replayed outputs, but a rule
// evaluation already in progress runs to completion — cancellation
// cannot reach inside ExtractAll today.
type enumerator func(ctx context.Context, d *span.Document, o *obs.StageObserver, yield func(cols []span.Var, t []span.Span) bool) error

// ruleEnumerator replays r's materialized mappings.
func ruleEnumerator(r *spanners.Rule) enumerator {
	return func(ctx context.Context, d *span.Document, _ *obs.StageObserver, yield func([]span.Var, []span.Span) bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, m := range r.ExtractAll(d) {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !yield(mappingTuple(m)) {
				return nil
			}
		}
		return nil
	}
}

// resolved is the outcome of query resolution: the enumerator, the
// engine behind it (nil for rule queries, whose evaluation cannot
// stream), the stage label describing how the query was resolved
// (cache-lookup / compile / registry-load), and — for a fresh algebra
// composition — the plan carrying per-operator timings.
type resolved struct {
	enum  enumerator
	eng   *eval.Engine
	stage string
	plan  *algebra.Plan
}

// spannerResolved resolves a query to the spanner sp, whose
// enumerator stops as soon as ctx is done.
func spannerResolved(sp *spanners.Spanner, stage string, plan *algebra.Plan) resolved {
	e := eval.SpannerEngine(sp)
	cols := e.Columns()
	enum := func(ctx context.Context, d *span.Document, o *obs.StageObserver, yield func([]span.Var, []span.Span) bool) error {
		var err error
		e.EnumerateTuples(d, o, func(t []span.Span) bool {
			if err = ctx.Err(); err != nil {
				return false
			}
			return yield(cols, t)
		})
		return err
	}
	return resolved{enum: enum, eng: e, stage: stage, plan: plan}
}

func stageFor(fresh bool, freshStage string) string {
	if fresh {
		return freshStage
	}
	return obs.StageCacheLookup
}

func (s *Service) compile(q Query) (resolved, error) {
	set := 0
	for _, f := range []string{q.Expr, q.Rule, q.Spanner, q.Algebra} {
		if f != "" {
			set++
		}
	}
	if set > 1 {
		return resolved{}, ErrBadQuery
	}
	switch {
	case q.Spanner != "":
		sp, cold, err := s.namedSpannerTracked(q.Spanner)
		if err != nil {
			return resolved{}, fmt.Errorf("resolve spanner: %w", err)
		}
		return spannerResolved(sp, stageFor(cold, obs.StageRegistryLoad), nil), nil
	case q.Algebra != "":
		// Not re-wrapped: algebra and registry errors already carry
		// their own "algebra:" / "leaf name@version:" context.
		sp, plan, fresh, err := s.algebraSpannerTracked(q.Algebra)
		if err != nil {
			return resolved{}, err
		}
		return spannerResolved(sp, stageFor(fresh, obs.StageCompile), plan), nil
	case q.Expr != "":
		sp, fresh, err := s.spannerTracked(q.Expr)
		if err != nil {
			return resolved{}, fmt.Errorf("compile expr: %w", err)
		}
		return spannerResolved(sp, stageFor(fresh, obs.StageCompile), nil), nil
	case q.Rule != "":
		r, fresh, err := s.ruleTracked(q.Rule)
		if err != nil {
			return resolved{}, fmt.Errorf("compile rule: %w", err)
		}
		return resolved{enum: ruleEnumerator(r), stage: stageFor(fresh, obs.StageCompile)}, nil
	default:
		return resolved{}, ErrBadQuery
	}
}

// Compiled is a query resolved against the compile caches, ready to
// evaluate without further cache traffic. It lets callers validate a
// query (and pay the cache lookup) exactly once before committing to
// a response format, keeping the hit/miss counters an honest measure
// of per-request amortization.
type Compiled struct {
	svc   *Service
	limit int
	enum  enumerator
	// eng is the engine behind enum, nil for rule queries; the observed
	// extraction paths and incremental sessions need it.
	eng *eval.Engine
}

// CompileQuery resolves q against the compile caches.
func (s *Service) CompileQuery(q Query) (*Compiled, error) {
	return s.CompileQueryCtx(context.Background(), q)
}

// CompileQueryCtx is CompileQuery recording the resolution into the
// observability layer: the stage histogram always (labeled
// cache-lookup, compile or registry-load by what resolution actually
// did), plus a span on the request trace when ctx carries one. A
// fresh algebra composition additionally lands its per-operator
// timings in the operator histogram and as "algebra:<op>" spans.
func (s *Service) CompileQueryCtx(ctx context.Context, q Query) (*Compiled, error) {
	start := time.Now()
	r, err := s.compile(q)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	t := obs.TraceFrom(ctx)
	s.obs.stage(r.stage, d)
	t.AddSpan(r.stage, start, d, "")
	if r.plan != nil {
		s.recordOpCosts(t, r.plan.OpCosts)
	}
	return &Compiled{svc: s, limit: q.Limit, enum: r.enum, eng: r.eng}, nil
}

// ErrUnaffordable is returned when a query served uncompiled (by the
// interpreted enumerator) would need more memory for one document than
// maxReachBytes; the HTTP layer answers 413 with code "too_large".
var ErrUnaffordable = errors.New("service: query too costly for the document")

// maxReachBytes is the most reach footprint an uncompiled query may
// need for any one document of a request. The interpreted enumerator
// keeps one []bool of VA states per boundary, VA states × (runes + 2)
// bytes; the compiled walk keeps 8 B per boundary whatever the query.
// The bound admits the 1 000-word gazetteer (9 010 VA states) over a
// 4 KB document.
const maxReachBytes = 64 << 20

// Affordable reports ErrUnaffordable when the query is served
// uncompiled and its reach footprint over text passes maxReachBytes;
// nil otherwise, and always for a compiled query or a rule. Callers
// name the document in the error.
func (c *Compiled) Affordable(text string) error {
	if c.eng == nil || c.eng.Compiled() {
		return nil
	}
	states, runes := c.eng.Automaton().NumStates, utf8.RuneCountInString(text)
	if need := int64(states) * int64(runes+2); need > maxReachBytes {
		return fmt.Errorf("%w: the query is served uncompiled, and its reach over %d runes with %d VA states needs %d bytes, more than the %d one document may take",
			ErrUnaffordable, runes, states, need, maxReachBytes)
	}
	return nil
}

// admit applies the per-mapping semantics shared by every extraction
// path to a document's n-th mapping: it counts the emission and reports
// whether the limit lets the document yield another.
func (c *Compiled) admit(n int) bool {
	c.svc.emitted.Add(1)
	return c.limit <= 0 || n < c.limit
}

// Stream evaluates the compiled query over doc, invoking yield once
// per output mapping as enumeration produces it; see
// Service.ExtractStream for the delivery and cancellation contract.
func (c *Compiled) Stream(ctx context.Context, doc string, yield func(Result) bool) error {
	if err := c.Affordable(doc); err != nil {
		return err
	}
	c.svc.inFlight.Add(1)
	defer c.svc.inFlight.Add(-1)

	d := spanners.NewDocument(doc)
	var buf []byte
	n := 0
	emit := func(cols []span.Var, t []span.Span) bool {
		n++
		more := c.admit(n)
		buf = appendResult(buf[:0], d, cols, t)
		return yield(buf) && more
	}
	t := obs.TraceFrom(ctx)
	if o := c.svc.observerFor(t); o != nil && c.eng != nil {
		start := time.Now()
		err := c.enum(ctx, d, o, emit)
		total := time.Since(start)
		c.svc.obs.stage(obs.StageStream, total)
		t.AddSpan(obs.StageStream, start, total, traceDetail(d.Len(), "runes"))
		return err
	}
	return c.enum(ctx, d, nil, emit)
}

// encoder writes the results of one document after another into one
// buffer of a Batch. A batch worker or a stored-document extraction
// builds one, so its yield is built once, not once per document.
type encoder struct {
	c     *Compiled
	rb    *resultBuf
	d     *span.Document
	n, lo int
	yield func([]span.Var, []span.Span) bool
}

// newEncoder returns an encoder writing into rb.
func (c *Compiled) newEncoder(rb *resultBuf) *encoder {
	e := &encoder{c: c, rb: rb}
	e.yield = e.add
	return e
}

func (e *encoder) add(cols []span.Var, t []span.Span) bool {
	e.n++
	e.rb.add(e.d, cols, t)
	return e.c.admit(e.n)
}

// begin starts the results of d.
func (e *encoder) begin(d *span.Document) { e.d, e.n, e.lo = d, 0, len(e.rb.ends) }

// end locates the results written since begin.
func (e *encoder) end() docSpan { return docSpan{rb: e.rb, lo: e.lo, hi: len(e.rb.ends)} }

// extract encodes the full (limit-capped) result set of text. o, when
// non-nil, receives the per-stage timings — the batch workers pass
// goroutine-local observers (see batchObserver) so per-document
// recording never contends.
func (e *encoder) extract(ctx context.Context, text string, o *obs.StageObserver) error {
	e.begin(spanners.NewDocument(text))
	return e.c.enum(ctx, e.d, o, e.yield)
}

// Extract runs q over a single document and returns its results,
// encoded with span contents. It is ExtractBatch for one document.
func (s *Service) Extract(ctx context.Context, q Query, doc string) ([]Result, error) {
	batch, err := s.ExtractBatch(ctx, q, []string{doc})
	if err != nil {
		return nil, err
	}
	return batch[0], nil
}

// ExtractBatch is ExtractBatchInto for callers that keep the results:
// it returns one result slice per document, copied out of the Batch.
func (s *Service) ExtractBatch(ctx context.Context, q Query, docs []string) ([][]Result, error) {
	b := NewBatch()
	if err := s.ExtractBatchInto(ctx, q, docs, b); err != nil {
		b.Release()
		return nil, err
	}
	return b.detach(), nil
}

// ExtractBatchInto fans docs across a bounded worker pool and appends
// one result slice per document to b.Docs, in input order regardless
// of completion order. The query is compiled once (or served from
// cache) before any worker starts. Cancellation via ctx stops all
// workers; the first error wins and appends nothing. A panic in a
// worker is recovered and fails the batch with ErrInternal.
func (s *Service) ExtractBatchInto(ctx context.Context, q Query, docs []string, b *Batch) error {
	compiled, err := s.CompileQueryCtx(ctx, q)
	if err != nil {
		return err
	}
	return compiled.batch(ctx, docs, b)
}

// batch is ExtractBatchInto after compilation. Each worker encodes into
// a buffer of its own, so the views are taken once all have finished.
func (c *Compiled) batch(ctx context.Context, docs []string, b *Batch) error {
	for i, doc := range docs {
		if err := c.Affordable(doc); err != nil {
			return fmt.Errorf("document %d: %w", i, err)
		}
	}
	s := c.svc
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	batchStart := time.Now()
	defer func() {
		total := time.Since(batchStart)
		s.obs.stage(obs.StageBatch, total)
		obs.TraceFrom(ctx).AddSpan(obs.StageBatch, batchStart, total, traceDetail(len(docs), "docs"))
	}()

	workers := s.cfg.Workers
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers < 1 {
		workers = 1
	}
	spans := slices.Grow(b.spans[:0], len(docs))[:len(docs)]
	b.spans = spans

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err; cancel() }) }
	for w := 0; w < workers; w++ {
		e := c.newEncoder(b.newBuf())
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					fail(s.recovered(v))
				}
			}()
			// Each worker records stages into a private histogram
			// family, merged into the shared one when it drains.
			o, local := s.batchObserver(workers)
			if local != nil {
				defer s.obs.StageDur.Absorb(local)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) || ctx.Err() != nil {
					return
				}
				if err := e.extract(ctx, docs[i], o); err != nil {
					fail(err)
					return
				}
				spans[i] = e.end()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.view(spans)
	return nil
}

// ExtractStream runs q over one document, invoking yield once per
// output mapping as enumeration produces it. For spanner queries the
// delay between calls is polynomial when the spanner is sequential
// (Theorem 5.7), so the first results arrive long before the output
// set is complete. The Result passed to yield is borrowed: its bytes
// are reused for the next mapping, so a yield that keeps one must copy
// it. yield returning false stops the stream early with a nil error; a
// cancelled ctx stops it with the context's error.
func (s *Service) ExtractStream(ctx context.Context, q Query, doc string, yield func(Result) bool) error {
	c, err := s.CompileQueryCtx(ctx, q)
	if err != nil {
		return err
	}
	return c.Stream(ctx, doc, yield)
}

// StreamChan is ExtractStream as a channel: results arrive on the
// returned channel, each one the receiver's own copy, which is closed
// when the stream ends. A non-nil terminal error (compile failure,
// cancellation, or ErrInternal after a recovered panic) is delivered
// on the error channel, which always receives exactly one value.
// Callers that stop receiving before the result channel closes must
// cancel ctx, or the producer goroutine blocks forever on the
// abandoned channel and the terminal error is never delivered.
func (s *Service) StreamChan(ctx context.Context, q Query, doc string) (<-chan Result, <-chan error) {
	return s.streamChan(ctx, func(yield func(Result) bool) error {
		return s.ExtractStream(ctx, q, doc, yield)
	})
}

// streamChan runs stream on a producer goroutine feeding the channels
// StreamChan returns.
func (s *Service) streamChan(ctx context.Context, stream func(yield func(Result) bool) error) (<-chan Result, <-chan error) {
	out := make(chan Result)
	errc := make(chan error, 1)
	go func() {
		defer close(out)
		var err error
		defer func() {
			if v := recover(); v != nil {
				err = s.recovered(v)
			}
			errc <- err
		}()
		interrupted := false
		err = stream(func(r Result) bool {
			select {
			case out <- slices.Clone(r):
				return true
			case <-ctx.Done():
				interrupted = true
				return false
			}
		})
		if err == nil && interrupted {
			err = ctx.Err()
		}
	}()
	return out, errc
}

// ErrInternal is returned when extraction panicked in a service
// goroutine — a batch worker or a StreamChan producer. The panic is
// recovered and counted (spand_panics_total) instead of killing the
// process; the HTTP layer answers 500 with code "internal".
var ErrInternal = errors.New("service: internal error")

// recovered counts one recovered panic and returns the typed error
// reporting it.
func (s *Service) recovered(v any) error {
	s.panics.Add(1)
	return fmt.Errorf("%w: extraction panicked: %v", ErrInternal, v)
}
