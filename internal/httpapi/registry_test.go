package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanners/internal/registry"
	"spanners/internal/service"
)

// newRegistryTestServer builds a server over a registry directory;
// reuse the directory across calls to simulate a process restart.
func newRegistryTestServer(t *testing.T, dir string, timeout time.Duration) (*httptest.Server, *service.Service) {
	t.Helper()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, Registry: reg})
	if _, err := svc.Prewarm(); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	ts := httptest.NewServer(New(svc, Options{RequestTimeout: timeout}))
	t.Cleanup(ts.Close)
	return ts, svc
}

func doJSON(t *testing.T, method, url string, body any, dst any) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(buf))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

// TestRegistryLifecycleAcrossRestart is the end-to-end registry
// contract: register over HTTP, restart the server on the same
// directory, and have the pre-warmed cache serve a pinned
// name@version extraction with zero compile-cache misses.
func TestRegistryLifecycleAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newRegistryTestServer(t, dir, 0)

	var reg registerResponse
	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/registry/seller",
		map[string]string{"expr": `.*(Seller: x{[^,\n]*},[^\n]*\n).*`}, &reg)
	if resp.StatusCode != http.StatusCreated || !reg.Created {
		t.Fatalf("PUT: status %d created=%v", resp.StatusCode, reg.Created)
	}
	if len(reg.Version) != registry.VersionLen {
		t.Fatalf("version %q", reg.Version)
	}

	// Idempotent re-registration: same version, 200 not 201.
	var again registerResponse
	resp = doJSON(t, http.MethodPut, ts.URL+"/v1/registry/seller",
		map[string]string{"expr": `.*(Seller: x{[^,\n]*},[^\n]*\n).*`}, &again)
	if resp.StatusCode != http.StatusOK || again.Created || again.Version != reg.Version {
		t.Fatalf("re-PUT: status %d %+v", resp.StatusCode, again)
	}

	// Restart: new service + server over the same directory.
	ts.Close()
	ts2, svc2 := newRegistryTestServer(t, dir, 0)

	var out extractResponse
	resp = doJSON(t, http.MethodPost, ts2.URL+"/v1/extract", map[string]any{
		"spanner": "seller@" + reg.Version,
		"docs":    []string{"Seller: Anna, 12 Hill St\n"},
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract by pin: status %d", resp.StatusCode)
	}
	if len(out.Results) != 1 || len(out.Results[0]) != 1 || field(t, out.Results[0][0], "x").Content != "Anna" {
		t.Fatalf("extract by pin: %v", out.Results)
	}
	// healthz exposes the cache and registry summaries.
	var hz healthzResponse
	doJSON(t, http.MethodGet, ts2.URL+"/v1/healthz", nil, &hz)
	if hz.Spanners.Misses != 0 {
		t.Fatalf("compile-cache misses = %d after restart + pre-warm, want 0", hz.Spanners.Misses)
	}
	if !hz.Registry.Enabled || hz.Registry.Prewarmed != 1 || hz.Registry.ArtifactLoads != 1 {
		t.Fatalf("healthz registry after restart = %+v", hz.Registry)
	}

	// List + manifest + delete round out the lifecycle.
	var list []registry.Manifest
	doJSON(t, http.MethodGet, ts2.URL+"/v1/registry", nil, &list)
	if len(list) != 1 || list[0].Name != "seller" {
		t.Fatalf("list = %v", list)
	}
	var man registry.Manifest
	resp = doJSON(t, http.MethodGet, ts2.URL+"/v1/registry/seller?version="+reg.Version, nil, &man)
	if resp.StatusCode != http.StatusOK || man.Version != reg.Version {
		t.Fatalf("GET manifest: %d %+v", resp.StatusCode, man)
	}
	resp = doJSON(t, http.MethodDelete, ts2.URL+"/v1/registry/seller", nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	resp = doJSON(t, http.MethodGet, ts2.URL+"/v1/registry/seller", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete: status %d", resp.StatusCode)
	}
	_ = svc2
}

func TestRegistryEndpointsWithoutRegistry(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(New(svc, Options{}))
	t.Cleanup(ts.Close)

	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/registry/x", map[string]string{"expr": "a"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT without registry: status %d", resp.StatusCode)
	}
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/registry", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET without registry: status %d", resp.StatusCode)
	}
	// A spanner-reference query on a registry-less service maps to the
	// same typed error (and 503) as the registry endpoints themselves.
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/extract",
		map[string]any{"spanner": "x", "docs": []string{"a"}}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("spanner query without registry: status %d", resp.StatusCode)
	}
}

func TestRegistryValidationOverHTTP(t *testing.T) {
	ts, _ := newRegistryTestServer(t, t.TempDir(), 0)

	// Uncompilable expression.
	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/registry/bad", map[string]string{"expr": "x{["}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad expr: status %d", resp.StatusCode)
	}
	// Unknown name.
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/registry/ghost", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown name: status %d", resp.StatusCode)
	}
	// Malformed version pin on extraction.
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/extract",
		map[string]any{"spanner": "ghost@nothex", "docs": []string{"a"}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad version: status %d", resp.StatusCode)
	}
}

// TestRequestTimeout pins the satellite fix: a pathological
// enumeration (quadratic output set over a long document) must be cut
// off by the per-request deadline instead of pinning a worker.
func TestRequestTimeout(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(New(svc, Options{RequestTimeout: 50 * time.Millisecond}))
	t.Cleanup(ts.Close)

	start := time.Now()
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/extract", map[string]any{
		"expr": `a*x{a*}a*`, "docs": []string{strings.Repeat("a", 3000)},
	}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not enforced: request ran %v", elapsed)
	}

	// A negative timeout disables the deadline: the same small request
	// still completes.
	ts2 := httptest.NewServer(New(svc, Options{RequestTimeout: -1}))
	t.Cleanup(ts2.Close)
	var out extractResponse
	resp = doJSON(t, http.MethodPost, ts2.URL+"/v1/extract", map[string]any{
		"expr": `x{a*}b`, "docs": []string{"aab"},
	}, &out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("untimed request: status %d results %v", resp.StatusCode, out.Results)
	}
}

// TestStreamTimeoutAborts checks that a stream hitting the deadline
// is aborted (truncated chunked body) rather than cleanly closed.
func TestStreamTimeoutAborts(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(New(svc, Options{RequestTimeout: 100 * time.Millisecond}))
	t.Cleanup(ts.Close)

	buf, _ := json.Marshal(map[string]any{"expr": `a*x{a*}a*`, "doc": strings.Repeat("a", 3000)})
	resp, err := http.Post(ts.URL+"/v1/extract/stream", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Reading to EOF must fail: the handler aborts the connection when
	// the deadline cuts enumeration short.
	var total int
	b := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(b)
		total += n
		if err != nil {
			if err.Error() == "EOF" {
				t.Fatalf("stream ended cleanly after %d bytes; want an aborted connection", total)
			}
			break
		}
	}
}
