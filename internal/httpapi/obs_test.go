package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanners/client"
	"spanners/internal/obs"
	"spanners/internal/service"
)

// TestRequestIDAndDebugTrace covers the request-ID plumbing end to
// end: an inbound X-Request-ID is honored and echoed, keys the
// retained trace, and /v1/debug/trace/{id} serves that trace's span
// tree; a request without the header gets a generated ID back.
func TestRequestIDAndDebugTrace(t *testing.T) {
	ts, _ := newTestServer(t)

	body := `{"expr": "x{a*}b", "docs": ["aab"]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/extract", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-42" {
		t.Fatalf("X-Request-ID echoed as %q, want req-42", got)
	}

	tr, err := http.Get(ts.URL + "/v1/debug/trace/req-42")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("debug/trace/req-42: status %d", tr.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(tr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != "req-42" || len(snap.Spans) == 0 || !snap.Done {
		t.Fatalf("trace snapshot = %+v, want finished req-42 with spans", snap)
	}

	// No inbound ID: one is generated and echoed.
	resp2 := postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "a", "docs": []string{"a"}})
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID on response")
	}

	// The list endpoint returns both traces, most recent first.
	lr, err := http.Get(ts.URL + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var list []obs.TraceSnapshot
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[1].ID != "req-42" {
		t.Fatalf("trace list = %d entries (last %+v), want req-42 second", len(list), list)
	}

	// Unknown IDs are 404; probe traffic (GET /v1/healthz) is not traced.
	nr, err := http.Get(ts.URL + "/v1/debug/trace/ghost")
	if err != nil {
		t.Fatal(err)
	}
	nr.Body.Close()
	if nr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d", nr.StatusCode)
	}
}

// TestMetricsPrometheusOnly pins the /v1/metrics contract: the
// Prometheus text exposition, whatever the request asks for. A bare
// GET (no query, no Accept) gets it, and so do the ?format=prom
// scrapes written for the old negotiation.
func TestMetricsPrometheusOnly(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{a*}b", "docs": []string{"aab"}}).Body.Close()

	out := getMetrics(t, ts.URL)
	if !strings.HasPrefix(out, "# HELP ") {
		t.Fatalf("bare /v1/metrics starts %.40q, want # HELP", out)
	}
	for _, want := range []string{
		"# TYPE spand_extract_duration_seconds histogram",
		`spand_extract_duration_seconds_bucket{stage="enumerate"`,
		"# TYPE spand_stream_emission_delay_seconds histogram",
		"spand_mappings_emitted_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	for _, q := range []string{"?format=prom", "?format=json"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics"+q, nil)
		req.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType || !strings.HasPrefix(string(raw), "# HELP ") {
			t.Fatalf("/v1/metrics%s: Content-Type %q, body %.40q; want the exposition", q, ct, raw)
		}
	}
}

// TestDebugTraceList: /v1/debug/trace lists the whole retention by
// default, also when -trace-retain exceeds the default, and a ?n= far
// beyond the retention lists the same with a 200; it is not an
// allocation size.
func TestDebugTraceList(t *testing.T) {
	retain := obs.DefaultTraceRetention + 2
	svc := service.New(service.Config{Workers: 1, TraceRetention: retain})
	ts := newHTTPServer(t, svc)
	for i := 0; i < retain+1; i++ {
		postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "a", "docs": []string{"a"}}).Body.Close()
	}
	for _, q := range []string{"", "?n=4611686018427387904"} {
		resp, err := http.Get(ts.URL + "/v1/debug/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		var list []obs.TraceSnapshot
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(list) != retain {
			t.Fatalf("/v1/debug/trace%s: status %d, %d traces (%v); want 200 and %d", q, resp.StatusCode, len(list), err, retain)
		}
	}
}

// TestDeadlineTyped503 asserts the server-imposed deadline surfaces
// as a typed 503 with a Retry-After hint and a tick of the
// deadline-expiry counter — distinguishable from a client disconnect.
func TestDeadlineTyped503(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(New(svc, Options{RequestTimeout: 50 * time.Millisecond}))
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{
		"expr": `a*x{a*}a*`, "docs": []string{strings.Repeat("a", 3000)},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1 (the deadline in whole seconds, min 1)", got)
	}
	if got := svc.Observability().DeadlineExpiries(); got != 1 {
		t.Fatalf("deadline expiries = %d, want 1", got)
	}
}

// TestInternalErrorTyped500: a recovered extraction panic surfaces as
// a 500 with the stable code "internal".
func TestInternalErrorTyped500(t *testing.T) {
	rec := httptest.NewRecorder()
	apiError(rec, fmt.Errorf("batch: %w", service.ErrInternal))
	var env client.ErrorEnvelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusInternalServerError || env.Err.Code != client.CodeInternal {
		t.Fatalf("status %d code %q, want 500 %q", rec.Code, env.Err.Code, client.CodeInternal)
	}
}

// TestDebugTraceDisabled: with observability off, the trace
// endpoints 404 and the Prometheus exposition is empty.
func TestDebugTraceDisabled(t *testing.T) {
	svc := service.New(service.Config{DisableObservability: true})
	ts := httptest.NewServer(New(svc, Options{}))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("debug/trace with observability off: status %d", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("prom metrics with observability off: status %d", mresp.StatusCode)
	}
}
