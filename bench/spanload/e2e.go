package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"time"

	"spanners/client"
)

// wireReq is a request rendered to bytes once at set-up, so that a
// timed pass does no encoding.
type wireReq struct {
	patchURL       string // kindEdit only
	patch, extract []byte
}

// expectation is what the verified warm-up pass recorded about one
// request's answer. Emission order is byte-identical between runs of
// the same request (a repo invariant), and doc_edit's cycles return
// every document to its base text, so a timed pass only has to find the
// same result bytes again.
type expectation struct {
	off, n   int    // where the results sit in the response body
	sum      uint32 // CRC-32C of those bytes
	mappings int
	docBytes int // document bytes this request answers
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// loadgen is the closed loop: one client, one keep-alive connection,
// the next request sent when the previous answer has been read.
type loadgen struct {
	w    *workloadSpec
	srv  *spand
	api  *client.Client // set-up and state checks; the timed loop uses hc directly
	hc   *http.Client
	url  string // the extract or stream endpoint
	wire []wireReq
	exp  []expectation
	buf  []byte // response buffer, reused

	*tally
	verifying time.Duration // harness time spent checking answers during set-up
}

// tally counts requests over every set-up and pass of a run: each one
// that is not a 200, fails in transport or answers wrongly is failed.
type tally struct {
	attempted, failed int
	firstErr          error
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// setUp starts a server and brings it to the state the timed passes
// need: query registered, documents stored, sessions built, and one
// warm-up pass over the whole request list with every answer verified
// against ground truth. Its duration, from exec to the end of that
// pass, less the harness's own time spent decoding and checking
// answers, is one sample of setup_s.
func setUp(ctx context.Context, w *workloadSpec, cfg config, tl *tally) (*loadgen, time.Duration, error) {
	start := time.Now()
	srv, err := startSpand(ctx, cfg.spandBin, filepath.Join(cfg.outDir, w.name), cfg.place)
	if err != nil {
		return nil, 0, err
	}
	g := &loadgen{w: w, srv: srv, hc: newHTTPClient(), tally: tl}
	if err := g.prepare(ctx); err != nil {
		srv.stop()
		return nil, 0, err
	}
	return g, time.Since(start) - g.verifying, nil
}

func (g *loadgen) prepare(ctx context.Context) error {
	var err error
	if g.api, err = client.New(g.srv.base, client.WithHTTPClient(g.hc)); err != nil {
		return err
	}
	ref, err := install(ctx, g.api, g.w)
	if err != nil {
		return err
	}
	g.url = g.srv.base + "/v1/extract"
	if g.w.kind == kindStream {
		g.url += "/stream"
	}
	g.wire = make([]wireReq, len(g.w.reqs))
	for i, r := range g.w.reqs {
		g.wire[i].patch, g.wire[i].extract = g.w.encode(r, ref)
		if g.w.kind == kindEdit {
			g.wire[i].patchURL = g.srv.base + "/v1/documents/" + r.docID
		}
	}
	// The first extraction of a stored document builds its session;
	// doing it here keeps that cost in set-up and out of request 0.
	for _, id := range g.w.ids {
		res, err := g.api.Extract(ctx, client.ExtractRequest{Query: g.w.query(ref), DocIDs: []string{id}})
		if err != nil {
			return fmt.Errorf("build session on %s: %w", id, err)
		}
		if len(res.Results) != 1 {
			return fmt.Errorf("build session on %s: %d result arrays for one document", id, len(res.Results))
		}
		t := time.Now()
		err = checkResults(g.w.stored[id], g.w.truth(g.w.stored[id]), res.Results[0])
		g.verifying += time.Since(t)
		if err != nil {
			return fmt.Errorf("build session on %s: %w", id, err)
		}
	}
	return g.warmUp(ctx)
}

// install registers the workload's query (when pinned) and stores its
// documents through api, returning the query reference to use.
func install(ctx context.Context, api *client.Client, w *workloadSpec) (ref string, err error) {
	if w.pinned {
		man, _, err := api.RegisterSpanner(ctx, queryName, w.expr)
		if err != nil {
			return "", fmt.Errorf("register %s: %w", queryName, err)
		}
		ref = man.Ref()
	}
	for _, id := range w.ids {
		if _, _, err := api.PutDocument(ctx, id, w.stored[id]); err != nil {
			return "", fmt.Errorf("put document %s: %w", id, err)
		}
	}
	return ref, nil
}

// send issues one request and reads the whole answer into g.buf. first
// is when the first mapping was in hand: the first complete NDJSON line
// of a stream, the first response byte otherwise.
func (g *loadgen) send(ctx context.Context, method, url string, body []byte) (first time.Time, err error) {
	stream := g.w.kind == kindStream
	if !stream {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return first, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.hc.Do(req)
	if err != nil {
		return first, err
	}
	defer resp.Body.Close()
	g.buf = g.buf[:0]
	for {
		if len(g.buf) == cap(g.buf) {
			g.buf = append(g.buf, 0)[:len(g.buf)]
		}
		n, err := resp.Body.Read(g.buf[len(g.buf):cap(g.buf)])
		if stream && first.IsZero() && bytes.IndexByte(g.buf[len(g.buf):len(g.buf)+n], '\n') >= 0 {
			first = time.Now()
		}
		g.buf = g.buf[:len(g.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return first, err
		}
	}
	if resp.StatusCode != http.StatusOK {
		return first, fmt.Errorf("%s %s: %s: %.200s", method, url, resp.Status, g.buf)
	}
	return first, nil
}

// do runs request i: the PATCH first when the workload edits, then the
// extraction. It returns the latency of the whole operation and the
// time from its start to the first mapping; the answer is in g.buf.
func (g *loadgen) do(ctx context.Context, i int) (total, ttfm time.Duration, err error) {
	wr := &g.wire[i]
	start := time.Now()
	if wr.patch != nil {
		if _, err := g.send(ctx, http.MethodPatch, wr.patchURL, wr.patch); err != nil {
			return 0, 0, err
		}
	}
	first, err := g.send(ctx, http.MethodPost, g.url, wr.extract)
	end := time.Now()
	if err != nil {
		return 0, 0, err
	}
	if first.IsZero() {
		first = end // an answer without mappings has no first one
	}
	return end.Sub(start), first.Sub(start), nil
}

// fail counts a failed request and keeps the first reason.
func (g *loadgen) fail(i int, err error) {
	g.failed++
	if g.firstErr == nil {
		g.firstErr = fmt.Errorf("%s request %d: %w", g.w.name, i, err)
	}
}

// warmUp runs the request list once, checks every answer against the
// ground truth in full and records what the timed passes compare with.
func (g *loadgen) warmUp(ctx context.Context) error {
	g.exp = make([]expectation, len(g.wire))
	state := g.w.baseState()
	for i, r := range g.w.reqs {
		g.attempted++
		if _, _, err := g.do(ctx, i); err != nil {
			g.fail(i, err)
			continue
		}
		t := time.Now()
		docs := g.w.answered(state, r)
		raw, results, err := g.decode(g.buf)
		if err == nil && len(results) != len(docs) {
			err = fmt.Errorf("%d result arrays for %d documents", len(results), len(docs))
		}
		e := expectation{off: bytes.Index(g.buf, raw), n: len(raw), sum: crc32.Checksum(raw, castagnoli)}
		for d := 0; d < len(docs) && err == nil; d++ {
			err = checkResults(docs[d], g.w.truth(docs[d]), results[d])
			e.mappings += len(results[d])
			e.docBytes += len(docs[d])
		}
		g.verifying += time.Since(t)
		if err != nil {
			g.fail(i, err)
			continue
		}
		g.exp[i] = e
	}
	return g.checkNeutral(ctx)
}

// decode parses an answer: raw is the part of body that holds the
// results (all of an NDJSON stream, the "results" value of a batch
// answer, whose "stats" sibling changes from call to call), results the
// decoded mappings per document.
func (g *loadgen) decode(body []byte) (raw []byte, results [][]client.Result, err error) {
	if g.w.kind == kindStream {
		var one []client.Result
		for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
			var res client.Result
			if len(line) == 0 {
				continue // an empty answer
			}
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, nil, fmt.Errorf("stream line %q: %w", line, err)
			}
			one = append(one, res)
		}
		return body, [][]client.Result{one}, nil
	}
	var resp struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, fmt.Errorf("decode answer: %w", err)
	}
	if err := json.Unmarshal(resp.Results, &results); err != nil {
		return nil, nil, fmt.Errorf("decode results: %w", err)
	}
	return resp.Results, results, nil
}

// matches reports whether the answer in g.buf carries the result bytes
// the warm-up verified for request i. The bytes are looked for where
// they were then; if the envelope around them moved, the answer is
// parsed again before it is called wrong.
func (g *loadgen) matches(i int) bool {
	e := g.exp[i]
	if e.off+e.n <= len(g.buf) && crc32.Checksum(g.buf[e.off:e.off+e.n], castagnoli) == e.sum &&
		(g.w.kind != kindStream || len(g.buf) == e.n) {
		return true
	}
	raw, _, err := g.decode(g.buf)
	return err == nil && len(raw) == e.n && crc32.Checksum(raw, castagnoli) == e.sum
}

// checkNeutral checks that every stored document is back at its base
// text, which is what lets the next pass expect the same bytes.
func (g *loadgen) checkNeutral(ctx context.Context) error {
	for _, id := range g.w.ids {
		doc, err := g.api.GetDocument(ctx, id)
		if err != nil {
			return fmt.Errorf("state check: %w", err)
		}
		if doc.Text != g.w.stored[id] {
			return fmt.Errorf("state check: document %s is not back at its base text after the pass", id)
		}
	}
	return nil
}

// pass replays the request list once, timed. Verification of an answer
// happens after its clock has stopped and is not part of busy time.
func (g *loadgen) pass(ctx context.Context) (passStats, error) {
	ps := passStats{
		lat:  make([]time.Duration, len(g.wire)),
		ttfm: make([]time.Duration, len(g.wire)),
	}
	u0, s0, err := cpuTimes(g.srv.cmd.Process.Pid)
	if err != nil {
		return ps, err
	}
	c0 := selfCPU()
	for i := range g.wire {
		g.attempted++
		total, ttfm, err := g.do(ctx, i)
		if err == nil && !g.matches(i) {
			err = fmt.Errorf("answer differs from the one the warm-up pass verified")
		}
		if err != nil {
			g.fail(i, err)
			total, ttfm = failedLatency, failedLatency
		} else {
			ps.busy += total
		}
		ps.lat[i], ps.ttfm[i] = total, ttfm
	}
	ps.clientCPU = selfCPU() - c0
	u1, s1, err := cpuTimes(g.srv.cmd.Process.Pid)
	if err != nil {
		return ps, err
	}
	ps.cpu, ps.sys = (u1-u0)+(s1-s0), s1-s0
	return ps, g.checkNeutral(ctx)
}

// serverStats is what the server's own counters say about a stretch of
// timed passes: deltas of allocation and collection counters, and the
// peak memory and collector share at its end.
type serverStats struct {
	mallocs, allocated, collections uint64
	pause                           time.Duration
	rssPeakMB, gcCPU                float64
}

// add folds another server's stretch into s.
func (s *serverStats) add(o serverStats) {
	s.mallocs, s.allocated, s.collections = s.mallocs+o.mallocs, s.allocated+o.allocated, s.collections+o.collections
	s.pause += o.pause
	s.rssPeakMB, s.gcCPU = max(s.rssPeakMB, o.rssPeakMB), max(s.gcCPU, o.gcCPU)
}

// timedPasses replays the request list until both atLeast passes and d
// have gone by, reads the server's counters around them, and stops the
// server: a loadgen measures once.
func (g *loadgen) timedPasses(ctx context.Context, atLeast int, d time.Duration) ([]passStats, serverStats, error) {
	defer g.srv.stop()
	var st serverStats
	before, err := g.srv.sample(ctx)
	if err != nil {
		return nil, st, err
	}
	var passes []passStats
	for start := time.Now(); len(passes) < atLeast || time.Since(start) < d; {
		ps, err := g.pass(ctx)
		if err != nil {
			return nil, st, err
		}
		passes = append(passes, ps)
	}
	after, err := g.srv.sample(ctx)
	if err != nil {
		return nil, st, err
	}
	if st.rssPeakMB, err = g.srv.rssPeakMB(); err != nil {
		return nil, st, err
	}
	st.mallocs, st.allocated = after.mallocs-before.mallocs, after.allocated-before.allocated
	st.collections = after.numGC - before.numGC
	st.pause = gcPause(&after.pauseNS, before.numGC, after.numGC)
	st.gcCPU = after.gcCPU
	return passes, st, nil
}

// totals sums what one pass answers.
func (g *loadgen) totals() (docBytes, mappings int64) {
	for _, e := range g.exp {
		docBytes += int64(e.docBytes)
		mappings += int64(e.mappings)
	}
	return docBytes, mappings
}
