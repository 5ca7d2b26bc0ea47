package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spanners/client"
	"spanners/internal/docstore"
	"spanners/internal/service"
)

func doReq(t *testing.T, method, url string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeError reads the unified error envelope off an error response.
func decodeError(t *testing.T, resp *http.Response) client.ErrorDetail {
	t.Helper()
	defer resp.Body.Close()
	var body client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error response is not the envelope: %v", err)
	}
	if body.Err.Code == "" || body.Err.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", body.Err)
	}
	return body.Err
}

func TestDocumentCRUDAndExtractByReference(t *testing.T) {
	ts, svc := newTestServer(t)
	base := ts.URL + "/v1/documents/inv"

	// Create.
	resp := doReq(t, http.MethodPut, base, putDocumentRequest{Text: "Seller: John, ID75\n"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var dr documentResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.ID != "inv" || dr.Version != 1 || dr.Bytes != len("Seller: John, ID75\n") {
		t.Fatalf("create response: %+v", dr)
	}

	// Replace bumps the version and returns 200.
	resp = doReq(t, http.MethodPut, base, putDocumentRequest{Text: "Seller: Anna, ID1\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Get returns the full document.
	resp = doReq(t, http.MethodGet, base, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", resp.StatusCode)
	}
	var doc docstore.Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Text != "Seller: Anna, ID1\n" || doc.Version != 2 {
		t.Fatalf("get: %+v", doc)
	}

	// Extract by reference.
	expr := `.*(Seller: x{[^,\n]*},[^\n]*\n).*`
	resp = postJSON(t, ts.URL+"/v1/extract", map[string]any{
		"expr": expr, "doc_ids": []string{"inv"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract by reference: status %d", resp.StatusCode)
	}
	var er extractResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(er.Results) != 1 || len(er.Results[0]) != 1 || field(t, er.Results[0][0], "x").Content != "Anna" {
		t.Fatalf("by-reference results: %+v", er.Results)
	}

	// Patch (append) and re-extract: the appended seller appears, and
	// the service reports an incremental serve.
	resp = doReq(t, http.MethodPatch, base, docstore.Splice{
		Offset: len(doc.Text), Insert: "Seller: Bob, ID2\n",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.Version != 3 {
		t.Fatalf("patch version: %+v", dr)
	}
	resp = postJSON(t, ts.URL+"/v1/extract", map[string]any{
		"expr": expr, "doc_ids": []string{"inv"},
	})
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(er.Results[0]) != 2 {
		t.Fatalf("after append: %d results", len(er.Results[0]))
	}
	if d := svc.Stats().Documents; d.IncrementalReplays == 0 {
		t.Fatalf("post-splice extraction did not replay: %+v", d)
	}

	// Mixed inline + by-reference batch: docs first, then doc_ids.
	resp = postJSON(t, ts.URL+"/v1/extract", map[string]any{
		"expr": expr, "docs": []string{"Seller: Inline, ID9\n"}, "doc_ids": []string{"inv"},
	})
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(er.Results) != 2 || field(t, er.Results[0][0], "x").Content != "Inline" || len(er.Results[1]) != 2 {
		t.Fatalf("mixed batch: %+v", er.Results)
	}

	// Stream by reference.
	resp = postJSON(t, ts.URL+"/v1/extract/stream", map[string]any{"expr": expr, "doc_id": "inv"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream by reference: status %d", resp.StatusCode)
	}
	lines, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimSpace(string(lines)), "\n") + 1; n != 2 {
		t.Fatalf("stream by reference: %d lines\n%s", n, lines)
	}

	// Delete, then every reference 404s with the typed code.
	resp = doReq(t, http.MethodDelete, base, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	for name, resp := range map[string]*http.Response{
		"get":     doReq(t, http.MethodGet, base, nil),
		"delete":  doReq(t, http.MethodDelete, base, nil),
		"extract": postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": expr, "doc_ids": []string{"inv"}}),
		"stream":  postJSON(t, ts.URL+"/v1/extract/stream", map[string]any{"expr": expr, "doc_id": "inv"}),
	} {
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s after delete: status %d", name, resp.StatusCode)
		}
		if det := decodeError(t, resp); det.Code != "document_not_found" {
			t.Fatalf("%s after delete: code %q", name, det.Code)
		}
	}
}

func TestDocumentSpliceErrorsOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL + "/v1/documents/d"
	doReq(t, http.MethodPut, base, putDocumentRequest{Text: "hello"}).Body.Close()

	// Edit past EOF is a 400 with the bad_splice code.
	resp := doReq(t, http.MethodPatch, base, docstore.Splice{Offset: 10, Insert: "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("past-EOF splice: status %d", resp.StatusCode)
	}
	if det := decodeError(t, resp); det.Code != "bad_splice" {
		t.Fatalf("past-EOF splice: code %q", det.Code)
	}

	// Patching an unknown document is a typed 404.
	resp = doReq(t, http.MethodPatch, ts.URL+"/v1/documents/ghost", docstore.Splice{Insert: "x"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("patch unknown: status %d", resp.StatusCode)
	}
	if det := decodeError(t, resp); det.Code != "document_not_found" {
		t.Fatalf("patch unknown: code %q", det.Code)
	}
}

func TestDocumentTooLargeOverHTTP(t *testing.T) {
	svc := service.New(service.Config{DocStoreBytes: 1024})
	ts := newHTTPServer(t, svc)
	resp := doReq(t, http.MethodPut, ts.URL+"/v1/documents/big",
		putDocumentRequest{Text: docText(strings.Repeat("x", 2048))})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized put: status %d", resp.StatusCode)
	}
	if det := decodeError(t, resp); det.Code != "too_large" {
		t.Fatalf("oversized put: code %q", det.Code)
	}
}

// TestErrorEnvelopeCodes pins the stable code strings of the unified
// envelope across representative failures.
func TestErrorEnvelopeCodes(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name   string
		resp   *http.Response
		status int
		code   string
	}{
		{"rgx syntax", postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{[", "docs": []string{"a"}}),
			http.StatusBadRequest, "syntax"},
		{"bad query", postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "a", "rule": "a && x.(a)", "docs": []string{"a"}}),
			http.StatusBadRequest, "bad_query"},
		{"algebra without registry", postJSON(t, ts.URL+"/v1/extract", map[string]any{"algebra": "project(nosuch, x)", "docs": []string{"a"}}),
			http.StatusServiceUnavailable, "registry_unavailable"},
		{"unknown document", postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "a", "doc_ids": []string{"nope"}}),
			http.StatusNotFound, "document_not_found"},
		{"bad json", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/extract", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}(), http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		if tc.resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, tc.resp.StatusCode, tc.status)
		}
		if det := decodeError(t, tc.resp); det.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, det.Code, tc.code)
		}
	}
}

// TestV1AndLegacyRoutes asserts the canonical /v1 surface answers
// without deprecation headers while the legacy unprefixed aliases
// answer identically but signal their successor.
func TestV1AndLegacyRoutes(t *testing.T) {
	ts, _ := newTestServer(t)
	body := map[string]any{"expr": "x{a*}b", "docs": []string{"aab"}}

	for _, path := range []string{"/extract", "/v1/extract"} {
		resp := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var er extractResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(er.Results) != 1 || len(er.Results[0]) != 1 {
			t.Fatalf("%s: results %+v", path, er.Results)
		}
		dep, link := resp.Header.Get("Deprecation"), resp.Header.Get("Link")
		if strings.HasPrefix(path, "/v1") {
			if dep != "" || link != "" {
				t.Fatalf("%s: canonical route carries deprecation headers %q %q", path, dep, link)
			}
		} else {
			if dep != "true" {
				t.Fatalf("%s: Deprecation header %q", path, dep)
			}
			if want := `</v1` + path + `>; rel="successor-version"`; link != want {
				t.Fatalf("%s: Link header %q, want %q", path, link, want)
			}
		}
	}

	// The whole legacy surface aliases /v1, including GETs.
	for _, path := range []string{"/healthz", "/metrics", "/debug/trace"} {
		for _, prefix := range []string{"", "/v1"} {
			resp, err := http.Get(ts.URL + prefix + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s%s: status %d", prefix, path, resp.StatusCode)
			}
			if dep := resp.Header.Get("Deprecation"); (prefix == "") != (dep == "true") {
				t.Fatalf("GET %s%s: Deprecation %q", prefix, path, dep)
			}
		}
	}

	// Documents are /v1-only: the unprefixed path does not exist.
	resp := doReq(t, http.MethodPut, ts.URL+"/documents/x", putDocumentRequest{Text: "a"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unprefixed documents: status %d", resp.StatusCode)
	}
}

// TestLegacyRouteSunset asserts the -legacy-routes=false mode: every
// unprefixed alias answers 410 Gone with the stable "gone" code and
// still carries the successor Link, while the canonical /v1 surface
// is untouched.
func TestLegacyRouteSunset(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(New(svc, Options{DisableLegacyRoutes: true}))
	defer ts.Close()
	body := map[string]any{"expr": "x{a*}b", "docs": []string{"aab"}}

	// Canonical route: unaffected by the sunset.
	resp := postJSON(t, ts.URL+"/v1/extract", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/extract under sunset: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Legacy POST alias: 410 with the envelope and the successor Link.
	resp = postJSON(t, ts.URL+"/extract", body)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("/extract under sunset: status %d, want 410", resp.StatusCode)
	}
	if want := `</v1/extract>; rel="successor-version"`; resp.Header.Get("Link") != want {
		t.Fatalf("/extract sunset Link %q, want %q", resp.Header.Get("Link"), want)
	}
	if dep := resp.Header.Get("Deprecation"); dep != "" {
		t.Fatalf("/extract sunset still sets Deprecation %q", dep)
	}
	detail := decodeError(t, resp)
	if detail.Code != "gone" {
		t.Fatalf("/extract sunset code %q, want gone", detail.Code)
	}

	// The sunset covers the whole legacy surface, GETs included.
	for _, path := range []string{"/healthz", "/metrics", "/debug/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("GET %s under sunset: status %d, want 410", path, resp.StatusCode)
		}
		if resp.Header.Get("Link") == "" {
			t.Fatalf("GET %s under sunset: missing successor Link", path)
		}
		v1, err := http.Get(ts.URL + "/v1" + path)
		if err != nil {
			t.Fatal(err)
		}
		v1.Body.Close()
		if v1.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1%s under sunset: status %d", path, v1.StatusCode)
		}
	}
}

// newHTTPServer wires a custom service into a test HTTP server.
func newHTTPServer(t *testing.T, svc *service.Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(svc, Options{}))
	t.Cleanup(ts.Close)
	return ts
}
