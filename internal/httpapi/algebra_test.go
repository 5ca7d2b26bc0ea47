package httpapi

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spanners"
	"spanners/internal/registry"
	"spanners/internal/service"
)

// localJoin composes the test spanners through the library algebra —
// the oracle the served algebra must match byte for byte.
func localJoin(t *testing.T, doc string) []service.Result {
	t.Helper()
	j := spanners.Join(spanners.MustCompile(".*y{...}.*"), spanners.MustCompile(".*z{...}.*"))
	d := spanners.NewDocument(doc)
	out := []service.Result{}
	for _, m := range j.ExtractAll(d) {
		out = append(out, service.EncodeMapping(d, m))
	}
	return out
}

func TestAlgebraExtractEndToEnd(t *testing.T) {
	ts, _ := newRegistryTestServer(t, t.TempDir(), 0)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/y3", map[string]string{"expr": ".*y{...}.*"}, nil)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/z3", map[string]string{"expr": ".*z{...}.*"}, nil)

	doc := "abcde"
	req := map[string]any{"algebra": "join(y3, z3)", "docs": []string{doc}}

	var first extractResponse
	var hz [2]healthzResponse
	for i := range hz {
		var out extractResponse
		resp := postJSON(t, ts.URL+"/v1/extract", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		resp.Body.Close()
		if i == 0 {
			first = out
		}
		hz[i] = getHealthz(t, ts.URL)
	}

	// Byte-identical to the local composition, in the same order.
	want, _ := json.Marshal(localJoin(t, doc))
	got, _ := json.Marshal(first.Results[0])
	if string(got) != string(want) {
		t.Fatalf("served join = %s\nlocal join   = %s", got, want)
	}

	// Composed once, then served from the LRU: the repeat is a cache
	// hit (spanner-cache hits grow, misses and compositions do not).
	before, after := hz[0], hz[1]
	if before.Algebra.Compositions != 1 || before.Algebra.LeafBuilds != 2 {
		t.Fatalf("first algebra stats = %+v, want 1 composition over 2 leaf builds", before.Algebra)
	}
	if after.Algebra.CacheHits != before.Algebra.CacheHits+1 ||
		after.Algebra.Compositions != before.Algebra.Compositions {
		t.Fatalf("repeat not served from cache: %+v then %+v", before.Algebra, after.Algebra)
	}
	if after.Spanners.Hits <= before.Spanners.Hits ||
		after.Spanners.Misses != before.Spanners.Misses {
		t.Fatalf("LRU counters: hits %d→%d misses %d→%d, want hit growth only",
			before.Spanners.Hits, after.Spanners.Hits,
			before.Spanners.Misses, after.Spanners.Misses)
	}

	// The composition runs the compiled engine, not the interpreted
	// fallback.
	if before.Engine.InterpretedFallbacks != 0 {
		t.Fatalf("engine stats = %+v, want no interpreted fallbacks", before.Engine)
	}
}

func TestAlgebraStreamEndToEnd(t *testing.T) {
	ts, _ := newRegistryTestServer(t, t.TempDir(), 0)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/y3", map[string]string{"expr": ".*y{...}.*"}, nil)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/z3", map[string]string{"expr": ".*z{...}.*"}, nil)

	doc := "abcde"
	resp := postJSON(t, ts.URL+"/v1/extract/stream", map[string]any{"algebra": "join(y3, z3)", "doc": doc})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	want := localJoin(t, doc)
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		wantLine, _ := json.Marshal(want[n])
		if line != string(wantLine) {
			t.Fatalf("stream line %d = %s, want %s", n, line, wantLine)
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("streamed %d mappings, want %d", n, len(want))
	}
}

// TestAlgebraErrorStatuses pins the typed-error → status mapping:
// client mistakes are 400 or 404, never 500.
func TestAlgebraErrorStatuses(t *testing.T) {
	ts, _ := newRegistryTestServer(t, t.TempDir(), 0)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/y3", map[string]string{"expr": ".*y{...}.*"}, nil)

	cases := []struct {
		name string
		q    map[string]any
		want int
	}{
		{"syntax", map[string]any{"algebra": "join(y3"}, http.StatusBadRequest},
		{"arity", map[string]any{"algebra": "union(y3)"}, http.StatusBadRequest},
		{"unknown operator", map[string]any{"algebra": "meld(y3, y3)"}, http.StatusBadRequest},
		{"unbound projection", map[string]any{"algebra": "project(y3, nope)"}, http.StatusBadRequest},
		{"two query fields", map[string]any{"algebra": "y3", "expr": "a*"}, http.StatusBadRequest},
		{"unknown name", map[string]any{"algebra": "join(y3, ghost)"}, http.StatusNotFound},
		{"unknown version", map[string]any{"algebra": "y3@ffffffffffff"}, http.StatusNotFound},
		{"unknown named spanner", map[string]any{"spanner": "ghost"}, http.StatusNotFound},
	}
	for _, c := range cases {
		for _, path := range []string{"/v1/extract", "/v1/extract/stream"} {
			body := map[string]any{}
			for k, v := range c.q {
				body[k] = v
			}
			if path == "/v1/extract" {
				body["docs"] = []string{"abc"}
			} else {
				body["doc"] = "abc"
			}
			resp := postJSON(t, ts.URL+path, body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s on %s: status %d, want %d", c.name, path, resp.StatusCode, c.want)
			}
			if resp.StatusCode >= 500 {
				t.Errorf("%s on %s: client error surfaced as %d", c.name, path, resp.StatusCode)
			}
		}
	}
}

// TestAlgebraDifferenceOverHTTP serves difference end-to-end: the
// composed result matches the library composition, and a budget-blown
// difference is a typed 422 — never a 500 or an OOM.
func TestAlgebraDifferenceOverHTTP(t *testing.T) {
	ts, _ := newRegistryTestServer(t, t.TempDir(), 0)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/runs", map[string]string{"expr": "x{a+}.*"}, nil)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/pairs", map[string]string{"expr": "x{aa}.*"}, nil)

	doc := "aaab"
	var out extractResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/extract",
		map[string]any{"algebra": "difference(runs, pairs)", "docs": []string{doc}}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("difference extract status %d", resp.StatusCode)
	}
	local, err := spanners.Difference(
		spanners.MustCompile("x{a+}.*"), spanners.MustCompile("x{aa}.*"),
		spanners.DefaultDifferenceBudget)
	if err != nil {
		t.Fatal(err)
	}
	d := spanners.NewDocument(doc)
	want := []service.Result{}
	for _, m := range local.ExtractAll(d) {
		want = append(want, service.EncodeMapping(d, m))
	}
	gotJSON, _ := json.Marshal(out.Results[0])
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("served difference = %s\nlocal difference = %s", gotJSON, wantJSON)
	}
	if len(out.Results[0]) == 0 {
		t.Fatal("difference matched nothing — the test lost its subject")
	}

	// A schema-mismatched difference is the client's fault: 400 with
	// the "unbound" code.
	resp = postJSON(t, ts.URL+"/v1/extract",
		map[string]any{"algebra": "difference(runs, project(runs))", "docs": []string{doc}})
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != "unbound" {
		t.Fatalf("schema mismatch: status %d code %q, want 400 %q", resp.StatusCode, envelope.Error.Code, "unbound")
	}
}

func TestAlgebraDifferenceBudget422(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, Registry: reg, DifferenceBudget: 2})
	ts := httptest.NewServer(New(svc, Options{}))
	t.Cleanup(ts.Close)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/aa", map[string]string{"expr": ".*y{a+}.*"}, nil)

	resp := postJSON(t, ts.URL+"/v1/extract",
		map[string]any{"algebra": "difference(aa, aa)", "docs": []string{"aaa"}})
	defer resp.Body.Close()
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("budget-blown difference status %d, want 422", resp.StatusCode)
	}
	if envelope.Error.Code != "difference_budget" {
		t.Fatalf("error code %q, want %q (message: %s)", envelope.Error.Code, "difference_budget", envelope.Error.Message)
	}
}

func TestRegisterAlgebraOverHTTP(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newRegistryTestServer(t, dir, 0)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/y3", map[string]string{"expr": ".*y{...}.*"}, nil)
	doJSON(t, http.MethodPut, ts.URL+"/v1/registry/z3", map[string]string{"expr": ".*z{...}.*"}, nil)

	var reg registerResponse
	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/registry/pair",
		map[string]string{"algebra": "join(y3, z3)"}, &reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register algebra status %d", resp.StatusCode)
	}
	if reg.Kind != "algebra" || !strings.Contains(reg.Source, "join(y3@") {
		t.Fatalf("algebra manifest = %+v, want kind=algebra with pinned source", reg.Manifest)
	}

	// Served by name like any other registered spanner…
	doc := "abcde"
	var out extractResponse
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/extract",
		map[string]any{"spanner": "pair", "docs": []string{doc}}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract by algebra name: status %d", resp.StatusCode)
	}
	want, _ := json.Marshal(localJoin(t, doc))
	got, _ := json.Marshal(out.Results[0])
	if string(got) != string(want) {
		t.Fatalf("named algebra = %s, want %s", got, want)
	}

	// …including after a restart, decoded from the stored artifact
	// with zero compile-cache misses.
	ts2, _ := newRegistryTestServer(t, dir, 0)
	var out2 extractResponse
	resp = doJSON(t, http.MethodPost, ts2.URL+"/v1/extract",
		map[string]any{"spanner": reg.Ref(), "docs": []string{doc}}, &out2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract after restart: status %d", resp.StatusCode)
	}
	got2, _ := json.Marshal(out2.Results[0])
	if string(got2) != string(want) {
		t.Fatalf("named algebra after restart = %s, want %s", got2, want)
	}
	if hz := getHealthz(t, ts2.URL); hz.Spanners.Misses != 0 || hz.Algebra.Compositions != 0 {
		t.Fatalf("restart stats = misses %d, compositions %d; want 0, 0",
			hz.Spanners.Misses, hz.Algebra.Compositions)
	}

	// Registering with both or neither body field is a 400.
	for _, body := range []map[string]string{
		{"expr": "a*", "algebra": "y3"},
		{},
	} {
		resp := doJSON(t, http.MethodPut, ts.URL+"/v1/registry/bad", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register with body %v: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Algebra registration over an unknown leaf is a 404.
	resp = doJSON(t, http.MethodPut, ts.URL+"/v1/registry/bad",
		map[string]string{"algebra": "join(y3, ghost)"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("register over unknown leaf: status %d, want 404", resp.StatusCode)
	}
}
