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
		putDocumentRequest{Text: strings.Repeat("x", 2048)})
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

// TestV1Routes asserts every endpoint answers on its /v1 route.
func TestV1Routes(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{a*}b", "docs": []string{"aab"}})
	var er extractResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(er.Results) != 1 || len(er.Results[0]) != 1 {
		t.Fatalf("/v1/extract: status %d, results %+v", resp.StatusCode, er.Results)
	}
	resp = postJSON(t, ts.URL+"/v1/extract/stream", map[string]any{"expr": "x{a*}b", "doc": "aab"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/extract/stream: status %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/healthz", "/v1/metrics", "/v1/debug/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestUnprefixedRoutesNotFound: the pre-v1 unprefixed paths are not
// routes — each answers 404.
func TestUnprefixedRoutesNotFound(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/extract", map[string]any{"expr": "x{a*}b", "docs": []string{"aab"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /extract: status %d, want 404", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/metrics", "/debug/trace", "/registry"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp = doReq(t, http.MethodPut, ts.URL+"/documents/x", putDocumentRequest{Text: "a"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PUT /documents/x: status %d, want 404", resp.StatusCode)
	}
}

// newHTTPServer wires a custom service into a test HTTP server.
func newHTTPServer(t *testing.T, svc *service.Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(svc, Options{}))
	t.Cleanup(ts.Close)
	return ts
}
