package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanners/client"
	"spanners/internal/httpapi"
	"spanners/internal/registry"
	"spanners/internal/service"
)

// newServer boots a real spand (service + httpapi) over httptest with
// a registry, and returns a client pointed at it.
func newServer(t *testing.T) (*client.Client, *service.Service) {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Registry: reg})
	ts := httptest.NewServer(httpapi.New(svc, httpapi.Options{}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, svc
}

func TestNewValidation(t *testing.T) {
	if _, err := client.New("http://host:8080/prefix/"); err != nil {
		t.Fatalf("path-prefixed base URL rejected: %v", err)
	}
	c, err := client.New("http://host:8080/prefix/")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.BaseURL(); got != "http://host:8080/prefix" {
		t.Fatalf("BaseURL = %q, want trailing slash trimmed", got)
	}
	for _, bad := range []string{"", "host:8080", "/just/a/path", "://nope"} {
		if _, err := client.New(bad); err == nil {
			t.Errorf("New(%q) accepted, want error", bad)
		}
	}
	hc := &http.Client{Timeout: time.Minute}
	if _, err := client.New("http://h", client.WithHTTPClient(hc)); err != nil {
		t.Fatalf("WithHTTPClient: %v", err)
	}
}

func TestExtractBatch(t *testing.T) {
	c, _ := newServer(t)
	ctx := context.Background()
	resp, err := c.Extract(ctx, client.ExtractRequest{
		Query: client.Query{Expr: `.*(Seller: x{[^,\n]*},[^\n]*\n).*`},
		Docs: []string{
			"Seller: Anna, 12 Hill St\n",
			"no sellers here\n",
			"Seller: Bob, 1 Main Rd\n",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d result arrays, want 3", len(resp.Results))
	}
	if len(resp.Results[1]) != 0 {
		t.Fatalf("doc 1 extracted %d mappings, want 0", len(resp.Results[1]))
	}
	for i, want := range map[int]string{0: "Anna", 2: "Bob"} {
		if len(resp.Results[i]) != 1 {
			t.Fatalf("doc %d: %d mappings, want 1", i, len(resp.Results[i]))
		}
		sp, ok := resp.Results[i][0]["x"]
		if !ok || sp.Content != want {
			t.Fatalf("doc %d: x = %+v, want content %q", i, sp, want)
		}
		if sp.End <= sp.Start {
			t.Fatalf("doc %d: degenerate span %+v", i, sp)
		}
	}
	// The cache counters the batch moved are on Healthz.
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Spanners struct {
			Misses uint64 `json:"misses"`
		} `json:"spanner_cache"`
	}
	if err := json.Unmarshal(h.Raw, &hz); err != nil || hz.Spanners.Misses == 0 {
		t.Fatalf("healthz spanner_cache after a batch: %s (err %v)", h.Raw, err)
	}
}

// ExtractRaw must return the server's bytes verbatim: re-encoding the
// typed results must parse to the same mappings, and the raw arrays
// must themselves be valid JSON carrying the same content.
func TestExtractRaw(t *testing.T) {
	c, _ := newServer(t)
	ctx := context.Background()
	req := client.ExtractRequest{
		Query: client.Query{Expr: `x{a+}`},
		Docs:  []string{"aaa", "a"},
	}
	typed, err := c.Extract(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.ExtractRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Results) != len(typed.Results) {
		t.Fatalf("raw %d arrays vs typed %d", len(raw.Results), len(typed.Results))
	}
	for i, rm := range raw.Results {
		var again []client.Result
		if err := json.Unmarshal(rm, &again); err != nil {
			t.Fatalf("raw results[%d] is not a JSON array: %v", i, err)
		}
		if fmt.Sprint(again) != fmt.Sprint(typed.Results[i]) {
			t.Fatalf("raw results[%d] decodes to %v, typed says %v", i, again, typed.Results[i])
		}
	}
}

func TestExtractStream(t *testing.T) {
	c, _ := newServer(t)
	ctx := context.Background()
	st, err := c.ExtractStream(ctx, client.StreamRequest{
		Query: client.Query{Expr: `a*x{a*}a*`},
		Doc:   "aaaa",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var n int
	for {
		res, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res["x"]; !ok {
			t.Fatalf("mapping %d missing x: %v", n, res)
		}
		n++
	}
	if n == 0 {
		t.Fatal("stream produced no mappings")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// A rejected query never returns a Stream — the error is typed.
	_, err = c.ExtractStream(ctx, client.StreamRequest{
		Query: client.Query{Expr: "x{"}, Doc: "a",
	})
	if !errors.Is(err, client.ErrSyntax) {
		t.Fatalf("bad stream query: %v, want ErrSyntax", err)
	}
}

// NextRaw hands back each NDJSON line without its newline, and a
// connection dying mid-record surfaces as truncation, never as a
// mapping.
func TestStreamRawAndTruncation(t *testing.T) {
	c, _ := newServer(t)
	st, err := c.ExtractStream(context.Background(), client.StreamRequest{
		Query: client.Query{Expr: `x{ab}`}, Doc: "ab",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	line, err := st.NextRaw()
	if err != nil {
		t.Fatal(err)
	}
	if len(line) == 0 || line[len(line)-1] == '\n' {
		t.Fatalf("raw line %q: empty or newline kept", line)
	}
	var res client.Result
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatalf("raw line is not one JSON mapping: %v", err)
	}
	if _, err := st.NextRaw(); err != io.EOF {
		t.Fatalf("after last line: %v, want io.EOF", err)
	}

	// Fake server: one whole line, then a record cut mid-bytes.
	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{\"x\":{\"start\":1,\"end\":2,\"content\":\"a\"}}\n{\"x\":{\"sta")
	}))
	defer cut.Close()
	cc, err := client.New(cut.URL)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := cc.ExtractStream(context.Background(), client.StreamRequest{
		Query: client.Query{Expr: "x{a}"}, Doc: "a",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Next(); err != nil {
		t.Fatalf("first (complete) line: %v", err)
	}
	if _, err := st2.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("cut record: %v, want io.ErrUnexpectedEOF", err)
	}
	// The error sticks.
	if _, err := st2.NextRaw(); err != io.ErrUnexpectedEOF {
		t.Fatalf("after truncation: %v, want sticky io.ErrUnexpectedEOF", err)
	}
}

func TestDocumentsLifecycle(t *testing.T) {
	c, _ := newServer(t)
	ctx := context.Background()

	info, created, err := c.PutDocument(ctx, "log", "Seller: Anna, 12 Hill St\n")
	if err != nil {
		t.Fatal(err)
	}
	if !created || info.Version != 1 {
		t.Fatalf("first put: created=%v version=%d, want true/1", created, info.Version)
	}
	_, created, err = c.PutDocument(ctx, "log", "Seller: Anna, 12 Hill St\n")
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("replacing put reported created=true")
	}

	doc, err := c.GetDocument(ctx, "log")
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != "log" || !strings.Contains(doc.Text, "Anna") {
		t.Fatalf("got %+v", doc)
	}

	info, err = c.PatchDocument(ctx, "log", client.Splice{
		Offset: len(doc.Text), Insert: "Seller: Bob, 1 Main Rd\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Version <= doc.Version {
		t.Fatalf("splice did not bump version: %+v after %+v", info, doc)
	}

	// Extraction by reference sees the spliced text.
	resp, err := c.Extract(ctx, client.ExtractRequest{
		Query:  client.Query{Expr: `.*(Seller: x{[^,\n]*},[^\n]*\n).*`},
		DocIDs: []string{"log"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0]) != 2 {
		t.Fatalf("by-reference extraction: %v, want 2 mappings", resp.Results)
	}

	// A bad splice is the typed bad_splice error.
	_, err = c.PatchDocument(ctx, "log", client.Splice{Offset: 1 << 20, Insert: "x"})
	if !errors.Is(err, client.ErrBadSplice) {
		t.Fatalf("past-EOF splice: %v, want ErrBadSplice", err)
	}

	if err := c.DeleteDocument(ctx, "log"); err != nil {
		t.Fatal(err)
	}
	_, err = c.GetDocument(ctx, "log")
	if !errors.Is(err, client.ErrDocumentNotFound) {
		t.Fatalf("get after delete: %v, want ErrDocumentNotFound", err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	c, _ := newServer(t)
	ctx := context.Background()

	man, created, err := c.RegisterSpanner(ctx, "seller", `.*(Seller: x{[^,\n]*},[^\n]*\n).*`)
	if err != nil {
		t.Fatal(err)
	}
	if !created || man.Version == "" || !man.Sequential {
		t.Fatalf("register: created=%v manifest=%+v", created, man)
	}
	if want := "seller@" + man.Version; man.Ref() != want {
		t.Fatalf("Ref() = %q, want %q", man.Ref(), want)
	}
	// Content addressing: identical source re-registers idempotently.
	again, created, err := c.RegisterSpanner(ctx, "seller", `.*(Seller: x{[^,\n]*},[^\n]*\n).*`)
	if err != nil {
		t.Fatal(err)
	}
	if created || again.Version != man.Version {
		t.Fatalf("re-register: created=%v version=%s, want false/%s", created, again.Version, man.Version)
	}

	if _, _, err := c.RegisterSpanner(ctx, "tax", `.*\$y{[0-9,]+}.*`); err != nil {
		t.Fatal(err)
	}
	alg, created, err := c.RegisterAlgebra(ctx, "pair", "join(seller, tax)")
	if err != nil {
		t.Fatal(err)
	}
	if !created || alg.Kind != "algebra" {
		t.Fatalf("register-algebra: created=%v manifest=%+v", created, alg)
	}

	// Manifest by latest and by pinned version.
	got, err := c.GetManifest(ctx, "seller", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != man.Version || got.Source != man.Source {
		t.Fatalf("latest manifest %+v, want %+v", got, man)
	}
	if _, err := c.GetManifest(ctx, "seller", man.Version); err != nil {
		t.Fatalf("pinned manifest: %v", err)
	}

	mans, err := c.ListManifests(ctx)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range mans {
		names[m.Name] = true
	}
	if !names["seller"] || !names["tax"] || !names["pair"] {
		t.Fatalf("list missing names: %v", mans)
	}

	// The registered composition serves through Extract.
	resp, err := c.Extract(ctx, client.ExtractRequest{
		Query: client.Query{Spanner: alg.Ref()},
		Docs:  []string{"Seller: Mark, ID7, $35,000\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results[0]) == 0 {
		t.Fatal("registered algebra extracted nothing")
	}

	if err := c.DeleteSpanner(ctx, "pair", ""); err != nil {
		t.Fatal(err)
	}
	_, err = c.GetManifest(ctx, "pair", "")
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("manifest after delete: %v, want ErrNotFound", err)
	}
}

func TestHealthz(t *testing.T) {
	c, _ := newServer(t)
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q, want ok", h.Status)
	}
	var full map[string]json.RawMessage
	if err := json.Unmarshal(h.Raw, &full); err != nil {
		t.Fatalf("Raw is not the full body: %v", err)
	}
	if _, ok := full["engine"]; !ok {
		t.Fatalf("Raw lost the subsystem detail: %s", h.Raw)
	}
}

func TestTypedErrors(t *testing.T) {
	c, _ := newServer(t)
	ctx := context.Background()

	_, err := c.Extract(ctx, client.ExtractRequest{
		Query: client.Query{Expr: "x{"}, Docs: []string{"a"},
	})
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("syntax error not a *client.Error: %v", err)
	}
	if ce.Status != http.StatusBadRequest || ce.Code != client.CodeSyntax {
		t.Fatalf("got %+v, want 400 syntax", ce)
	}
	if !errors.Is(err, client.ErrSyntax) || errors.Is(err, client.ErrNotFound) {
		t.Fatalf("sentinel matching broken for %+v", ce)
	}
	if msg := ce.Error(); !strings.Contains(msg, "syntax") || !strings.Contains(msg, "400") {
		t.Fatalf("Error() = %q", msg)
	}

	_, err = c.GetManifest(ctx, "ghost", "")
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown name: %v, want ErrNotFound", err)
	}
	_, err = c.Extract(ctx, client.ExtractRequest{
		Query: client.Query{Expr: "a", Rule: "b"}, Docs: []string{"a"},
	})
	if !errors.Is(err, client.ErrBadQuery) {
		t.Fatalf("two query kinds: %v, want ErrBadQuery", err)
	}
}

// Responses that are not the unified envelope (intermediary proxies,
// panics) still decode into an *Error: status kept, code empty, body
// snippet as the message, Retry-After parsed.
func TestNonEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "upstream exploded")
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Extract(context.Background(), client.ExtractRequest{
		Query: client.Query{Expr: "a"}, Docs: []string{"a"},
	})
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("not a *client.Error: %v", err)
	}
	if ce.Status != 503 || ce.Code != "" || ce.Message != "upstream exploded" {
		t.Fatalf("got %+v", ce)
	}
	if ce.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", ce.RetryAfter)
	}
	if !strings.Contains(ce.Error(), "http_503") {
		t.Fatalf("codeless Error() = %q", ce.Error())
	}
	if errors.Is(err, client.ErrUnavailable) {
		t.Fatal("codeless error matched a sentinel")
	}
}
