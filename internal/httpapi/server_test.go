package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"spanners/client"
	"spanners/internal/obs"
	"spanners/internal/service"
)

func newTestServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{Workers: 4})
	ts := httptest.NewServer(New(svc, Options{}))
	t.Cleanup(ts.Close)
	return ts, svc
}

// extractResponse is the decoded /v1/extract body.
type extractResponse struct {
	Results [][]service.Result `json:"results"`
}

// getHealthz reads /v1/healthz, the JSON view of the service counters.
func getHealthz(t *testing.T, base string) healthzResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return hz
}

// getMetrics reads /v1/metrics, the Prometheus view of the counters.
func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != obs.ContentType {
		t.Fatalf("metrics: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// promValue returns the value of one series ("name{labels}") in a
// Prometheus exposition.
func promValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no series %s:\n%s", series, text)
	return 0
}

// field decodes one encoded result and returns the span of variable v.
func field(t *testing.T, r service.Result, v string) client.Span {
	t.Helper()
	var m client.Result
	if err := json.Unmarshal(r, &m); err != nil {
		t.Fatalf("result %s: %v", r, err)
	}
	return m[v]
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestExtractEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)
	req := map[string]any{
		"expr": `.*(Seller: x{[^,\n]*},[^\n]*\n).*`,
		"docs": []string{
			"Seller: Anna, 12 Hill St\nSeller: Bob, 1 Main Rd\n",
			"no sellers\n",
		},
	}

	var first, second extractResponse
	var hz [2]healthzResponse
	for i, dst := range []*extractResponse{&first, &second} {
		resp := postJSON(t, ts.URL+"/v1/extract", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		resp.Body.Close()
		hz[i] = getHealthz(t, ts.URL)
	}

	if len(first.Results) != 2 {
		t.Fatalf("got %d result slices, want 2 (one per doc)", len(first.Results))
	}
	if len(first.Results[0]) != 2 || len(first.Results[1]) != 0 {
		t.Fatalf("per-doc counts = %d, %d; want 2, 0", len(first.Results[0]), len(first.Results[1]))
	}
	names := []string{field(t, first.Results[0][0], "x").Content, field(t, first.Results[0][1], "x").Content}
	if names[0] != "Anna" || names[1] != "Bob" {
		t.Fatalf("extracted names = %v, want [Anna Bob]", names)
	}

	// The second identical request must be served from the compile
	// cache: /v1/healthz spanner_cache hits strictly increase, misses
	// do not.
	if hz[1].Spanners.Hits <= hz[0].Spanners.Hits {
		t.Fatalf("cache hits did not increase: %d then %d",
			hz[0].Spanners.Hits, hz[1].Spanners.Hits)
	}
	if hz[1].Spanners.Misses != hz[0].Spanners.Misses {
		t.Fatalf("cache misses grew on a repeated expression: %d then %d",
			hz[0].Spanners.Misses, hz[1].Spanners.Misses)
	}
}

// TestExtractAnswerHasOnlyResults: a /v1/extract answer is
// {"results": …} and nothing else — the counters are on /v1/healthz
// and /v1/metrics, not rebuilt for every answer.
func TestExtractAnswerHasOnlyResults(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{a*}b", "docs": []string{"aab", "b"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["results"]; !ok || len(body) != 1 {
		t.Fatalf("answer %s, want a results key and nothing else", raw)
	}
}

func TestExtractRuleAndErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{
		"rule": `.*<x>.* && x.(ab*)`,
		"docs": []string{"abb"},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rule extract: status %d", resp.StatusCode)
	}
	var out extractResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results[0]) == 0 {
		t.Fatal("rule extraction returned no mappings")
	}

	for name, body := range map[string]any{
		"no query": map[string]any{"docs": []string{"a"}},
		"both":     map[string]any{"expr": "a", "rule": "a && x.(a)", "docs": []string{"a"}},
		"bad expr": map[string]any{"expr": "x{[", "docs": []string{"a"}},
		"bad json": "{",
	} {
		var resp *http.Response
		if s, ok := body.(string); ok {
			var err error
			resp, err = http.Post(ts.URL+"/v1/extract", "application/json", strings.NewReader(s))
			if err != nil {
				t.Fatal(err)
			}
		} else {
			resp = postJSON(t, ts.URL+"/v1/extract", body)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestStreamEndToEnd drives the NDJSON endpoint on a document with a
// quadratic output set and checks that the first lines arrive while
// enumeration is still running, then that client disconnect stops the
// server-side enumeration without leaking goroutines.
func TestStreamEndToEnd(t *testing.T) {
	ts, svc := newTestServer(t)
	before := runtime.NumGoroutine()

	// ~31k mappings; full enumeration takes macroscopic time, so an
	// early line proves results are flushed before completion.
	req := map[string]any{"expr": `a*x{a*}a*`, "doc": strings.Repeat("a", 250)}
	buf, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/extract/stream", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	start := time.Now()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for lines < 5 && sc.Scan() {
		var res client.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if _, ok := res["x"]; !ok {
			t.Fatalf("line %d missing variable x: %v", lines, res)
		}
		lines++
	}
	firstLines := time.Since(start)
	if lines != 5 {
		t.Fatalf("stream ended after %d lines: %v", lines, sc.Err())
	}
	// 5 lines out of ~31k must arrive promptly — far less time than
	// the full enumeration (which takes seconds on this document).
	if firstLines > 2*time.Second {
		t.Fatalf("first 5 streamed lines took %v: not arriving before enumeration completes", firstLines)
	}

	// Abandon the stream: the handler's request context is cancelled
	// and enumeration must stop.
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats().InFlight == 0 && runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := svc.Stats(); st.InFlight != 0 {
		t.Fatalf("in_flight = %d after client disconnect", st.InFlight)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after disconnect", before, after)
	}
	if st := svc.Stats(); st.Emitted < 5 {
		t.Fatalf("mappings_emitted = %d, want >= 5", st.Emitted)
	}
}

func TestBodyTooLarge(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(New(svc, Options{MaxBody: 128}))
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{
		"expr": "a*", "docs": []string{strings.Repeat("a", 1024)},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestBodyHoldsOneValue: a request body is one JSON value, optionally
// followed by whitespace; a second value after it is a 400, not
// silently ignored.
func TestBodyHoldsOneValue(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"expr": "x{a}", "docs": ["a"]}` + "\n\t ", http.StatusOK},
		{`{"expr": "x{a}", "docs": ["a"]} {"expr": "b"}`, http.StatusBadRequest},
		{`{"expr": "x{a}", "docs": ["a"]}[]`, http.StatusBadRequest},
		{`{"expr": "x{a}", "docs": ["a"]`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/extract", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body client.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		wantCode := ""
		if c.want != http.StatusOK {
			wantCode = client.CodeBadRequest
		}
		if resp.StatusCode != c.want || body.Err.Code != wantCode {
			t.Errorf("%q: status %d, error %+v; want status %d, code %q", c.body, resp.StatusCode, body.Err, c.want, wantCode)
		}
	}
}

// TestDeepExpressionRefused: a 1.2 MB expression of nested groups,
// well under the body cap, is a 400 syntax error rather than a parser
// stack overflow that kills the process, and the server goes on
// serving.
func TestDeepExpressionRefused(t *testing.T) {
	ts, _ := newTestServer(t)
	deep := strings.Repeat("(", 600_000) + "a" + strings.Repeat(")", 600_000)
	resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": deep, "docs": []string{"a"}})
	var body client.ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || body.Err.Code != client.CodeSyntax {
		t.Fatalf("status %d, error %+v; want 400 %q", resp.StatusCode, body.Err, client.CodeSyntax)
	}
	resp = postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{a}", "docs": []string{"a"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the next request: status %d, want 200", resp.StatusCode)
	}
}

// TestLargeExpressionRefused: the 20 000-arm dictionary .*x{ab|…|c}.*
// (60 005 bytes, 60 005 nodes), which took seconds and gigabytes to
// compile, is a 413 too_large within 100 ms, on both extraction
// endpoints, and the server goes on serving. Under the race detector
// the 100 ms bound is not held: its instrumentation alone brings the
// refusal near it.
func TestLargeExpressionRefused(t *testing.T) {
	ts, _ := newTestServer(t)
	expr := ".*x{" + strings.Repeat("ab|", 19_999) + "c}.*"
	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/extract", map[string]any{"expr": expr, "docs": []string{"ab"}}},
		{"/v1/extract/stream", map[string]any{"expr": expr, "doc": "ab"}},
	} {
		start := time.Now()
		resp := postJSON(t, ts.URL+c.path, c.body)
		took := time.Since(start)
		var body client.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || body.Err.Code != client.CodeTooLarge {
			t.Fatalf("%s: status %d, error %+v; want 413 %q", c.path, resp.StatusCode, body.Err, client.CodeTooLarge)
		}
		if took > 100*time.Millisecond && !raceEnabled {
			t.Errorf("%s: refusing a %d-byte expression took %v, want under 100ms", c.path, len(expr), took)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{a}", "docs": []string{"a"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the next request: status %d, want 200", resp.StatusCode)
	}
}

// TestExtractLimitOnePaysForThePrefix: /v1/extract with limit 1 on
// 2 MiB of a under a*x{a*}a* answers the first mapping after the
// co-reach and a short stretch of the forward sweep, not after the DAG
// of every boundary (about 630 B per document byte and 1.9 s): under
// 16 B per byte — the body, the decoded document and the co-reach's
// 8 — and 250 ms. A short request first compiles the query and warms
// its DFA, so the timed one interns no state.
func TestExtractLimitOnePaysForThePrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts from a 2 MiB document")
	}
	ts, _ := newTestServer(t)
	const expr = `a*x{a*}a*`
	post := func(doc string) (extractResponse, time.Duration) {
		t.Helper()
		buf, err := json.Marshal(map[string]any{"expr": expr, "docs": []string{doc}, "limit": 1})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/extract", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out extractResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %v", resp.StatusCode, err)
		}
		return out, time.Since(start)
	}
	post("aaaa")
	doc := strings.Repeat("a", 2<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, took := post(doc)
	runtime.ReadMemStats(&after)
	if len(out.Results) != 1 || len(out.Results[0]) != 1 {
		t.Fatalf("results %v, want one mapping", out.Results)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(doc))
	t.Logf("%v, %.2f B per document byte", took, perByte)
	if raceEnabled {
		// The race detector slows the sweeps several times over, and
		// slices.Grow allocates its buffer twice under it.
		return
	}
	if took > 250*time.Millisecond {
		t.Errorf("limit 1 on 2 MiB took %v, want under 250ms", took)
	}
	if perByte > 16 {
		t.Errorf("limit 1 on 2 MiB allocated %.2f B per document byte, want under 16", perByte)
	}
}

func TestStreamCompileError(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/extract/stream", map[string]any{"expr": "x{[", "doc": "a"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts, svc := newTestServer(t)
	getHealthz(t, ts.URL)

	// Warm the cache so the counters are non-trivial.
	postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{a*}", "docs": []string{"aa"}}).Body.Close()

	hz := getHealthz(t, ts.URL)
	want := svc.Stats()
	if hz.Status != "ok" || hz.Spanners.Misses != want.Spanners.Misses || hz.Emitted != want.Emitted {
		t.Fatalf("healthz snapshot %+v diverges from service stats %+v", hz.Stats, want)
	}
	if hz.Spanners.Capacity == 0 {
		t.Fatal("cache capacity missing from healthz")
	}

	prom := getMetrics(t, ts.URL)
	if got := promValue(t, prom, `spand_cache_events_total{cache="spanner",event="miss"}`); got != float64(want.Spanners.Misses) {
		t.Fatalf("metrics spanner misses = %v, want %d", got, want.Spanners.Misses)
	}
	if got := promValue(t, prom, "spand_mappings_emitted_total"); got != float64(want.Emitted) {
		t.Fatalf("metrics mappings emitted = %v, want %d", got, want.Emitted)
	}
}

// TestEngineMetricsExported asserts the engine-selection counters of
// the compiled execution core appear on both /v1/healthz and
// /v1/metrics after a spanner has been compiled.
func TestEngineMetricsExported(t *testing.T) {
	ts, _ := newTestServer(t)

	// One sequential expression compiles into a program; (x{a})* is
	// non-sequential and exercises the FPT counter.
	postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{a*}b", "docs": []string{"aab"}}).Body.Close()
	postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "(x{a})*", "docs": []string{"a"}}).Body.Close()

	hz := getHealthz(t, ts.URL)
	if hz.Status != "ok" {
		t.Fatalf("healthz status = %q", hz.Status)
	}
	if hz.Engine.SequentialSpanners != 1 || hz.Engine.FPTSpanners != 1 {
		t.Fatalf("healthz engine selection = %+v, want 1 sequential + 1 fpt", hz.Engine)
	}
	if hz.Engine.CompiledPrograms != 2 || hz.Engine.InterpretedFallbacks != 0 {
		t.Fatalf("healthz program counters = %+v, want 2 compiled", hz.Engine)
	}
	if hz.Engine.CompileNanos <= 0 {
		t.Fatalf("healthz compile_ns_total = %d, want > 0", hz.Engine.CompileNanos)
	}

	prom := getMetrics(t, ts.URL)
	seq := promValue(t, prom, `spand_spanners_compiled_total{engine="sequential"}`)
	fpt := promValue(t, prom, `spand_spanners_compiled_total{engine="fpt"}`)
	if seq != float64(hz.Engine.SequentialSpanners) || fpt != float64(hz.Engine.FPTSpanners) {
		t.Fatalf("metrics engine selection sequential=%v fpt=%v diverges from healthz %+v", seq, fpt, hz.Engine)
	}
	if got := promValue(t, prom, "spand_compile_seconds_total"); got <= 0 {
		t.Fatalf("metrics compile seconds = %v, want > 0", got)
	}
}

// TestDFAMetricsExported asserts the dfa.* counters of the lazy-DFA
// layer appear on /v1/healthz and /v1/metrics once traffic has warmed
// a cache.
func TestDFAMetricsExported(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/v1/extract", map[string]any{
			"expr": "x{a*}b", "docs": []string{"aaab", "ab"},
		}).Body.Close()
	}

	hz := getHealthz(t, ts.URL)
	if hz.DFA.Caches != 1 || hz.DFA.States == 0 || hz.DFA.Hits == 0 {
		t.Fatalf("healthz dfa section did not move with traffic: %+v", hz.DFA)
	}

	prom := getMetrics(t, ts.URL)
	if got := promValue(t, prom, `spand_dfa_transitions_total{outcome="hit"}`); got == 0 {
		t.Fatalf("metrics dfa hits = %v, want > 0", got)
	}
	if got := promValue(t, prom, "spand_dfa_states"); got == 0 {
		t.Fatalf("metrics dfa states = %v, want > 0", got)
	}
}
