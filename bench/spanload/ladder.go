package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spanners"
	"spanners/client"
	"spanners/internal/cluster"
	"spanners/internal/docstore"
	"spanners/internal/httpapi"
	"spanners/internal/program"
	"spanners/internal/registry"
	"spanners/internal/rgx"
	"spanners/internal/service"
	"spanners/internal/va"
)

// The layer ladder measures the program's layers from outside. The
// first requests of a workload are pushed, in this process and on one
// goroutine, through successively deeper public entry points:
//
//	spanners.NewDocument → Spanner.Matches → Spanner.EnumerateContext →
//	Service.ExtractBatch | ExtractStream | ExtractDocument →
//	the httpapi handler on a recorder → client.ExtractRaw over loopback →
//	client.Extract → the same through a cluster.Gate over two shards
//
// and a layer's self time is its rung minus the rung below. Every call
// is wrapped in a span; the spans go to trace-<workload>.json.

// traceSpan is one traced call. Parent is the index of the span that caused
// it, -1 for a root; spans of one request share Request.
type traceSpan struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the ladder began
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the ladder ends. A nil tracer
// records nothing, which is how the untraced comparison run is made.
type tracer struct {
	t0    time.Time
	spans []traceSpan
}

func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, traceSpan{Name: name, StartNS: time.Since(t.t0).Nanoseconds(), Parent: parent, Request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// time runs fn inside a span and returns how long it took.
func (t *tracer) time(name string, parent, request int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, request)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// step is one entry point of the ladder: run pushes request i through
// it, check (optional) inspects what came back once the clock stopped.
type step struct {
	name  string
	run   func(i int) error
	check func(i int) error
	best  []time.Duration // per request, least over the repetitions
}

// mean is the step's cost per request.
func (s *step) mean() time.Duration { return sum(s.best) / time.Duration(len(s.best)) }

// ladderEnv is the in-process system under measurement and the inputs
// pushed through it.
type ladderEnv struct {
	ctx  context.Context
	w    *workloadSpec
	reqs []request
	docs [][]string // the texts each request's extraction answers
	want [][]int    // expected mappings per answered document

	sp      *spanners.Spanner
	built   [][]*spanners.Document
	svc     *service.Service
	handler http.Handler
	api     *client.Client // loopback to handler
	gate    *client.Client // loopback to a gate over two more shards
	ref     string         // pinned query reference on api; gateRef on the gate
	gateRef string

	gaps     []time.Duration // delays between yields in the enumerate step
	got      []int           // mappings the last step returned, per document of the request
	respSize int             // body bytes of the last handler answer
	rawSum   []uint32        // CRC of the raw results each request got over loopback
	lastSum  uint32
}

// runLadder measures the per-layer metrics of w.
func runLadder(ctx context.Context, cfg config, w *workloadSpec) (map[string]metric, error) {
	k := min(cfg.sz.ladderReqs, len(w.reqs))
	if w.kind == kindEdit {
		k = min((k+3)/4*4, len(w.reqs)) // whole cycles, so documents end where they began
	}
	e := &ladderEnv{ctx: ctx, w: w, reqs: w.reqs[:k], rawSum: make([]uint32, k)}
	state := w.baseState()
	for _, r := range e.reqs {
		docs := w.answered(state, r)
		var want []int
		var built []*spanners.Document
		for _, d := range docs {
			want = append(want, len(w.truth(d)))
			built = append(built, spanners.NewDocument(d))
		}
		e.docs, e.want, e.built = append(e.docs, docs), append(e.want, want), append(e.built, built)
	}
	dir := filepath.Join(cfg.outDir, w.name)
	closeAll, err := e.boot(dir)
	if err != nil {
		return nil, err
	}
	defer closeAll()

	out := map[string]metric{}
	cold, err := coldSteps(w.expr, cfg.sz.ladderReps)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, cold)

	tr := &tracer{t0: time.Now()}
	steps := e.steps()
	if err := e.timeSteps(tr, steps, cfg.sz.ladderReps); err != nil {
		return nil, err
	}
	byName := map[string]*step{}
	for _, s := range steps {
		byName[s.name] = s
	}
	inc, err := e.incSteps(tr, cfg.sz.ladderReps)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, inc.metrics)

	// The top step once more without spans: the difference is what
	// tracing costs.
	top := byName["client.extract"]
	bare := &step{name: top.name, run: top.run, check: top.check}
	if err := e.timeSteps(nil, []*step{bare}, cfg.sz.ladderReps); err != nil {
		return nil, err
	}
	out["harness.trace_overhead_pct"] = metric{100 * float64(top.mean()-bare.mean()) / float64(bare.mean()), "%"}

	acct, err := e.account(byName)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, acct)

	// Self times: each rung of the cumulative ladder minus the rung
	// below. A stored-document edit never re-enumerates, so its eval
	// rung is the session's splice and re-read, on top of the store's
	// own splice; the other workloads build a document and enumerate it.
	doc, match, enum := byName["span.document"].mean(), byName["program.match"].mean(), byName["eval.enumerate"].mean()
	ladder := []rung{{"span", doc}, {"program", doc + match}, {"eval", doc + enum}}
	if w.kind == kindEdit {
		ladder = []rung{{"docstore", inc.storeSplice}, {"eval", inc.storeSplice + inc.splice + inc.each}}
	}
	ladder = append(ladder,
		rung{"service", byName["service.extract"].mean()},
		rung{"httpapi", byName["httpapi.serve"].mean()},
		rung{"http", byName["http.roundtrip"].mean()},
		rung{"client", byName["client.extract"].mean()})
	self := selfTimes(ladder)
	gate, rt := byName["cluster.gate"].mean(), byName["http.roundtrip"].mean()
	maps.Copy(out, map[string]metric{
		"span.document_us":   {us(doc), "us"},
		"program.match_us":   {us(match), "us"},
		"eval.first_ms":      {ms(byName["eval.first"].mean()), "ms"},
		"eval.count_ms":      {ms(byName["eval.count"].mean()), "ms"},
		"eval.enumerate_ms":  {ms(enum), "ms"},
		"eval.self_ms":       {ms(self["eval"]), "ms"},
		"eval.delay_p50_us":  {us(percentile(e.gaps, 0.50)), "us"},
		"eval.delay_p90_us":  {us(percentile(e.gaps, 0.90)), "us"},
		"service.extract_ms": {ms(byName["service.extract"].mean()), "ms"},
		"service.self_ms":    {ms(self["service"]), "ms"},
		"httpapi.serve_ms":   {ms(byName["httpapi.serve"].mean()), "ms"},
		"httpapi.self_ms":    {ms(self["httpapi"]), "ms"},
		"http.roundtrip_ms":  {ms(rt), "ms"},
		"http.self_ms":       {ms(self["http"]), "ms"},
		"client.extract_ms":  {ms(byName["client.extract"].mean()), "ms"},
		"client.self_ms":     {ms(self["client"]), "ms"},
		"cluster.gate_ms":    {ms(gate), "ms"},
		"cluster.self_ms":    {ms(gate - rt), "ms"},
		"cluster.self_pct":   {100 * float64(gate-rt) / float64(gate), "%"},
	})

	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	return out, os.WriteFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), raw, 0o644)
}

// boot starts the in-process system: one service behind one handler on
// a loopback listener, and a gate over two further shards, each with
// the workload's query and documents installed exactly as set-up
// installs them on the real server.
func (e *ladderEnv) boot(dir string) (closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	shard := func(name string) (*service.Service, http.Handler, *httptest.Server, error) {
		rdir := filepath.Join(dir, name)
		if err := os.RemoveAll(rdir); err != nil {
			return nil, nil, nil, err
		}
		reg, err := registry.Open(rdir)
		if err != nil {
			return nil, nil, nil, err
		}
		svc := service.New(service.Config{Workers: 2, Registry: reg})
		h := httpapi.New(svc, httpapi.Options{})
		ts := httptest.NewServer(h)
		closers = append(closers, ts.Close)
		return svc, h, ts, nil
	}
	var ts *httptest.Server
	if e.svc, e.handler, ts, err = shard("ladder-registry"); err != nil {
		return closeAll, err
	}
	hc := newHTTPClient()
	if e.api, err = client.New(ts.URL, client.WithHTTPClient(hc)); err != nil {
		return closeAll, err
	}
	if e.ref, err = install(e.ctx, e.api, e.w); err != nil {
		return closeAll, err
	}
	var urls []string
	for _, name := range []string{"ladder-shard-0", "ladder-shard-1"} {
		_, _, s, err := shard(name)
		if err != nil {
			return closeAll, err
		}
		urls = append(urls, s.URL)
	}
	// No background probing: the shards live in this process and a
	// probe during a timed call would be noise.
	g, err := cluster.New(cluster.Options{Shards: urls, ProbeInterval: -1})
	if err != nil {
		return closeAll, err
	}
	closers = append(closers, g.Close)
	gs := httptest.NewServer(g)
	closers = append(closers, gs.Close)
	if e.gate, err = client.New(gs.URL, client.WithHTTPClient(hc)); err != nil {
		return closeAll, err
	}
	if e.gateRef, err = install(e.ctx, e.gate, e.w); err != nil {
		return closeAll, err
	}
	if e.sp, err = spanners.Compile(e.w.expr); err != nil {
		return closeAll, err
	}
	return closeAll, nil
}

// timeSteps runs every step over every request reps times, keeping each
// request's best time per step. Steps run one after another over the
// whole request list, not interleaved per request, because an editing
// workload only returns its documents to base after whole cycles.
func (e *ladderEnv) timeSteps(tr *tracer, steps []*step, reps int) error {
	for _, s := range steps {
		s.best = make([]time.Duration, len(e.reqs))
		for i := range s.best {
			s.best[i] = failedLatency
		}
	}
	for rep := 0; rep < reps; rep++ {
		root := tr.begin("repetition", -1, -1)
		for _, s := range steps {
			for i := range e.reqs {
				d, err := tr.time(s.name, root, i, func() error { return s.run(i) })
				if err == nil && s.check != nil {
					err = s.check(i)
				}
				if err != nil {
					return fmt.Errorf("ladder %s, request %d: %w", s.name, i, err)
				}
				s.best[i] = min(s.best[i], d)
			}
		}
		tr.end(root)
	}
	return nil
}

// counts checks the mappings the last step returned against the truth.
func (e *ladderEnv) counts(i int) error {
	if len(e.got) != len(e.want[i]) {
		return fmt.Errorf("%d result arrays for %d documents", len(e.got), len(e.want[i]))
	}
	for d, n := range e.got {
		if n != e.want[i][d] {
			return fmt.Errorf("document %d: %d mappings, want %d", d, n, e.want[i][d])
		}
	}
	return nil
}

func (e *ladderEnv) steps() []*step {
	w := e.w
	sq := service.Query{Expr: w.expr}
	if w.pinned {
		sq = service.Query{Spanner: e.ref}
	}
	eachDoc := func(i int, fn func(d *spanners.Document) int) {
		e.got = e.got[:0]
		for _, d := range e.built[i] {
			e.got = append(e.got, fn(d))
		}
	}
	present := func(i int) error { // Matches and First say only whether there is a mapping
		for d, n := range e.got {
			if (n > 0) != (e.want[i][d] > 0) {
				return fmt.Errorf("document %d: found=%v, want %d mappings", d, n > 0, e.want[i][d])
			}
		}
		return nil
	}
	// over sends request i through a client, raw or typed, the way a Go
	// caller would.
	over := func(api *client.Client, ref string, typed bool) func(i int) error {
		return func(i int) error {
			r := e.reqs[i]
			e.got = e.got[:0]
			switch w.kind {
			case kindStream:
				st, err := api.ExtractStream(e.ctx, client.StreamRequest{Query: w.query(ref), Doc: r.docs[0]})
				if err != nil {
					return err
				}
				defer st.Close()
				n, crc := 0, uint32(0)
				for {
					var err error
					if typed {
						_, err = st.Next()
					} else {
						var line []byte
						line, err = st.NextRaw()
						crc = crc32.Update(crc, castagnoli, line)
					}
					if err == io.EOF {
						break
					}
					if err != nil {
						return err
					}
					n++
				}
				e.got, e.lastSum = append(e.got, n), crc
				return nil
			case kindEdit:
				if _, err := api.PatchDocument(e.ctx, r.docID, r.splice); err != nil {
					return err
				}
			}
			req := client.ExtractRequest{Query: w.query(ref), Docs: r.docs}
			if w.kind == kindEdit {
				req.DocIDs = []string{r.docID}
			}
			if typed {
				res, err := api.Extract(e.ctx, req)
				if err != nil {
					return err
				}
				for _, rs := range res.Results {
					e.got = append(e.got, len(rs))
				}
				return nil
			}
			res, err := api.ExtractRaw(e.ctx, req)
			if err != nil {
				return err
			}
			e.lastSum = 0
			for _, rs := range res.Results {
				e.lastSum = crc32.Update(e.lastSum, castagnoli, rs)
			}
			return nil
		}
	}
	return []*step{
		{name: "span.document", run: func(i int) error {
			for _, d := range e.docs[i] {
				spanners.NewDocument(d)
			}
			return nil
		}},
		{name: "program.match", check: present, run: func(i int) error {
			eachDoc(i, func(d *spanners.Document) int {
				if e.sp.Matches(d) {
					return 1
				}
				return 0
			})
			return nil
		}},
		{name: "eval.first", check: present, run: func(i int) error {
			eachDoc(i, func(d *spanners.Document) int {
				if _, ok := e.sp.First(d); ok {
					return 1
				}
				return 0
			})
			return nil
		}},
		{name: "eval.count", check: e.counts, run: func(i int) error {
			eachDoc(i, e.sp.Count)
			return nil
		}},
		{name: "eval.enumerate", check: e.counts, run: func(i int) error {
			var err error
			eachDoc(i, func(d *spanners.Document) int {
				n, last := 0, time.Now()
				if eerr := e.sp.EnumerateContext(e.ctx, d, func(spanners.Mapping) bool {
					now := time.Now()
					e.gaps = append(e.gaps, now.Sub(last))
					n, last = n+1, now
					return true
				}); eerr != nil {
					err = eerr
				}
				return n
			})
			return err
		}},
		{name: "service.extract", check: e.counts, run: func(i int) error {
			r := e.reqs[i]
			e.got = e.got[:0]
			switch w.kind {
			case kindStream:
				n := 0
				err := e.svc.ExtractStream(e.ctx, sq, r.docs[0], func(service.Result) bool { n++; return true })
				e.got = append(e.got, n)
				return err
			case kindEdit:
				if _, err := e.svc.Documents().ApplySplice(r.docID, docstore.Splice(r.splice)); err != nil {
					return err
				}
				res, err := e.svc.ExtractDocument(e.ctx, sq, r.docID)
				e.got = append(e.got, len(res))
				return err
			}
			res, err := e.svc.ExtractBatch(e.ctx, sq, r.docs)
			for _, rs := range res {
				e.got = append(e.got, len(rs))
			}
			return err
		}},
		{name: "httpapi.serve", run: func(i int) error {
			patch, extract := w.encode(e.reqs[i], e.ref)
			serve := func(method, path string, body []byte) error {
				rec := httptest.NewRecorder()
				e.handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
				e.respSize = rec.Body.Len()
				if rec.Code != http.StatusOK {
					return fmt.Errorf("%s %s: status %d: %.200s", method, path, rec.Code, rec.Body)
				}
				return nil
			}
			if patch != nil {
				if err := serve(http.MethodPatch, "/v1/documents/"+e.reqs[i].docID, patch); err != nil {
					return err
				}
			}
			path := "/v1/extract"
			if w.kind == kindStream {
				path += "/stream"
			}
			return serve(http.MethodPost, path, extract)
		}},
		{name: "http.roundtrip", run: over(e.api, e.ref, false), check: func(i int) error {
			e.rawSum[i] = e.lastSum
			return nil
		}},
		{name: "client.extract", run: over(e.api, e.ref, true), check: e.counts},
		{name: "cluster.gate", run: over(e.gate, e.gateRef, false), check: func(i int) error {
			// The gate's merge is byte-identical to one server answering.
			if e.lastSum != e.rawSum[i] {
				return fmt.Errorf("gate answer differs from the single server's")
			}
			return nil
		}},
	}
}

// memDelta runs fn and returns the heap objects and bytes it allocated.
func memDelta(fn func() error) (mallocs, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// account makes one more pass over the steps that allocate or count,
// reading allocation and cache counters around each.
func (e *ladderEnv) account(byName map[string]*step) (map[string]metric, error) {
	pass := func(name string) func() error {
		return func() error {
			s := byName[name]
			for i := range e.reqs {
				if err := s.run(i); err != nil {
					return fmt.Errorf("ladder %s, request %d: %w", name, i, err)
				}
			}
			return nil
		}
	}
	var docBytes, mappings uint64
	for i := range e.docs {
		for d, text := range e.docs[i] {
			docBytes += uint64(len(text))
			mappings += uint64(e.want[i][d])
		}
	}
	_, docAlloc, err := memDelta(pass("span.document"))
	if err != nil {
		return nil, err
	}
	dfa0 := e.sp.DFAStats()
	if err := pass("program.match")(); err != nil {
		return nil, err
	}
	dfa1 := e.sp.DFAStats()
	memo0 := e.sp.BoundaryMemoStats()
	enumMallocs, enumAlloc, err := memDelta(pass("eval.enumerate"))
	if err != nil {
		return nil, err
	}
	memo1 := e.sp.BoundaryMemoStats()
	st0 := e.svc.Stats()
	svcMallocs, _, err := memDelta(pass("service.extract"))
	if err != nil {
		return nil, err
	}
	st1 := e.svc.Stats()
	if err := pass("httpapi.serve")(); err != nil {
		return nil, err
	}
	hits := (st1.Spanners.Hits - st0.Spanners.Hits) + (st1.Registry.NamedHits - st0.Registry.NamedHits)
	misses := (st1.Spanners.Misses - st0.Spanners.Misses) + (st1.Registry.ArtifactLoads - st0.Registry.ArtifactLoads) +
		(st1.Registry.SourceFallbacks - st0.Registry.SourceFallbacks)
	d0, d1 := st0.Documents, st1.Documents
	dfaLookups := (dfa1.Hits - dfa0.Hits) + (dfa1.Misses - dfa0.Misses)
	memoLookups := (memo1.Hits - memo0.Hits) + (memo1.Misses - memo0.Misses)
	last := e.want[len(e.want)-1]
	lastMappings := 0
	for _, n := range last {
		lastMappings += n
	}
	return map[string]metric{
		"span.bytes_per_doc_byte":        {ratio(docAlloc, docBytes), "count"},
		"program.dfa_states":             {float64(dfa1.States), "count"},
		"program.dfa_hit_ratio":          {ratio(dfa1.Hits-dfa0.Hits, dfaLookups), "count"},
		"program.dfa_flushes":            {float64(dfa1.Flushes), "count"},
		"program.prefilter_prunes":       {float64(dfa1.PrefilterPrunes), "count"},
		"eval.allocs_per_mapping":        {ratio(enumMallocs, mappings), "count"},
		"eval.bytes_per_doc_byte":        {ratio(enumAlloc, docBytes), "count"},
		"eval.memo_hit_ratio":            {ratio(memo1.Hits-memo0.Hits, memoLookups), "count"},
		"service.allocs_per_mapping":     {ratio(svcMallocs, mappings), "count"},
		"service.cache_hit_ratio":        {ratio(hits, hits+misses), "count"},
		"service.inc_hit":                {float64(d1.IncrementalHits - d0.IncrementalHits), "count"},
		"service.inc_replay":             {float64(d1.IncrementalReplays - d0.IncrementalReplays), "count"},
		"service.inc_rebuild":            {float64(d1.IncrementalRebuilds - d0.IncrementalRebuilds), "count"},
		"httpapi.resp_bytes_per_mapping": {ratio(uint64(e.respSize), uint64(lastMappings)), "count"},
	}, nil
}

// incResult is what the session steps measured.
type incResult struct {
	metrics                   map[string]metric
	storeSplice, splice, each time.Duration // per edit
}

// incSteps measures the incremental layer and the document store under
// it: a session built on a document, then an edit cycle through
// docstore.ApplySplice, Incremental.Splice and Incremental.Each. An
// editing workload replays its own requests' cycles on its stored
// documents; the others get a seeded cycle on each request's first
// document, which says what a session on their documents would cost.
func (e *ladderEnv) incSteps(tr *tracer, reps int) (incResult, error) {
	type incCase struct {
		text  string
		cycle [4]client.Splice
	}
	var cases []incCase
	if e.w.kind == kindEdit {
		for i := 0; i+3 < len(e.reqs); i += 4 {
			c := incCase{text: e.w.stored[e.reqs[i].docID]}
			for j := range c.cycle {
				c.cycle[j] = e.reqs[i+j].splice
			}
			cases = append(cases, c)
		}
	} else {
		for i, docs := range e.docs {
			cases = append(cases, incCase{docs[0], editCycle(docs[0], i)})
		}
	}
	n := len(cases)
	build, store, splice, each := make([]time.Duration, n), make([]time.Duration, n), make([]time.Duration, n), make([]time.Duration, n)
	for i := range build {
		build[i], store[i], splice[i], each[i] = failedLatency, failedLatency, failedLatency, failedLatency
	}
	var recomputed, held uint64
	for rep := 0; rep < reps; rep++ {
		root := tr.begin("repetition", -1, -1)
		for i, c := range cases {
			var inc *spanners.Incremental
			d, err := tr.time("eval.inc_build", root, i, func() error {
				var ok bool
				if inc, ok = e.sp.Incremental(c.text); !ok {
					return fmt.Errorf("spanner refused an incremental session")
				}
				return nil
			})
			if err != nil {
				return incResult{}, err
			}
			build[i] = min(build[i], d)
			ds := docstore.New(0)
			if _, err := ds.Put("d", c.text); err != nil {
				return incResult{}, err
			}
			var dStore, dSplice, dEach time.Duration
			text := c.text
			for _, sp := range c.cycle {
				d, err := tr.time("docstore.splice", root, i, func() error {
					_, err := ds.ApplySplice("d", docstore.Splice(sp))
					return err
				})
				if err != nil {
					return incResult{}, err
				}
				dStore += d
				// Generated text is ASCII: byte offsets are rune offsets.
				d, err = tr.time("eval.inc_splice", root, i, func() error {
					st, err := inc.Splice(sp.Offset, sp.DeleteLen, sp.Insert)
					recomputed += uint64(st.Recomputed)
					return err
				})
				if err != nil {
					return incResult{}, err
				}
				dSplice += d
				got := 0
				d, _ = tr.time("eval.inc_each", root, i, func() error {
					inc.Each(func(spanners.Mapping) bool { got++; return true })
					return nil
				})
				dEach += d
				text = applySplice(text, sp)
				if want := len(e.w.truth(text)); got != want {
					return incResult{}, fmt.Errorf("ladder eval.inc_each, case %d: %d mappings, want %d", i, got, want)
				}
				held += uint64(got)
			}
			store[i], splice[i], each[i] = min(store[i], dStore), min(splice[i], dSplice), min(each[i], dEach)
		}
		tr.end(root)
	}
	perEdit := func(ds []time.Duration) time.Duration { return sum(ds) / time.Duration(4*n) }
	res := incResult{storeSplice: perEdit(store), splice: perEdit(splice), each: perEdit(each)}
	res.metrics = map[string]metric{
		"eval.inc_build_ms":         {ms(sum(build) / time.Duration(n)), "ms"},
		"eval.inc_splice_us":        {us(res.splice), "us"},
		"eval.inc_each_us":          {us(res.each), "us"},
		"eval.inc_recomputed_ratio": {ratio(recomputed, held), "count"},
		"docstore.splice_us":        {us(res.storeSplice), "us"},
	}
	return res, nil
}

// coldSteps times what a query costs before its first document: parse,
// automaton, program, and the public Compile that does all three.
func coldSteps(expr string, reps int) (map[string]metric, error) {
	best := func(fn func() error) (time.Duration, error) {
		least := failedLatency
		for rep := 0; rep < max(reps, 3); rep++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			least = min(least, time.Since(start))
		}
		return least, nil
	}
	var node rgx.Node
	var a *va.VA
	parse, err := best(func() (err error) { node, err = rgx.Parse(expr); return err })
	if err != nil {
		return nil, err
	}
	build, _ := best(func() error { a = va.FromRGX(node); return nil })
	prog, err := best(func() error { _, err := program.Compile(a); return err })
	if err != nil {
		return nil, err
	}
	all, err := best(func() error { _, err := spanners.Compile(expr); return err })
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"rgx.parse_us":        {us(parse), "us"},
		"va.build_us":         {us(build), "us"},
		"program.compile_us":  {us(prog), "us"},
		"spanners.compile_ms": {ms(all), "ms"},
	}, nil
}
