package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"spanners/client"
)

// ownedID returns a document ID that hashes to the given shard index,
// so tests can aim document traffic at a specific owner.
func ownedID(t *testing.T, g *Gate, idx int) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		id := fmt.Sprintf("doc-%d", i)
		if g.owner(id) == g.shards[idx] {
			return id
		}
	}
	t.Fatal("no ID found for shard", idx)
	return ""
}

// Document CRUD through the gate proxies to the owner shard: create,
// read, splice, extract by reference, stream by reference, delete —
// with the owner's typed answers passing through verbatim.
func TestDocumentProxyLifecycle(t *testing.T) {
	shards := bootShards(t, 2)
	g, ts := bootGate(t, Options{ProbeInterval: -1}, shards[0].URL, shards[1].URL)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id := ownedID(t, g, 1)

	info, created, err := c.PutDocument(ctx, id, "Seller: Anna, 12 Hill St\n")
	if err != nil {
		t.Fatal(err)
	}
	if !created || info.Version != 1 {
		t.Fatalf("put via gate: created=%v info=%+v", created, info)
	}
	// The owner — and only the owner — stores it.
	own, err := client.New(shards[1].URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := own.GetDocument(ctx, id); err != nil {
		t.Fatalf("owner shard missing the document: %v", err)
	}
	other, err := client.New(shards[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.GetDocument(ctx, id); !errors.Is(err, client.ErrDocumentNotFound) {
		t.Fatalf("non-owner shard has the document: %v", err)
	}

	doc, err := c.GetDocument(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PatchDocument(ctx, id, client.Splice{
		Offset: len(doc.Text), Insert: "Seller: Bob, 1 Main Rd\n",
	}); err != nil {
		t.Fatal(err)
	}

	// Extraction and streaming by reference route to the owner too.
	resp, err := c.Extract(ctx, client.ExtractRequest{
		Query:  client.Query{Expr: sellerExpr},
		DocIDs: []string{id},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0]) != 2 {
		t.Fatalf("doc_id extract via gate: %v", resp.Results)
	}
	st, err := c.ExtractStream(ctx, client.StreamRequest{
		Query: client.Query{Expr: sellerExpr}, DocID: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	for {
		if _, err := st.Next(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		lines++
	}
	st.Close()
	if lines != 2 {
		t.Fatalf("doc_id stream via gate: %d lines, want 2", lines)
	}

	if err := c.DeleteDocument(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetDocument(ctx, id); !errors.Is(err, client.ErrDocumentNotFound) {
		t.Fatalf("get after delete via gate: %v", err)
	}
}

// Registry reads fail over: with one shard dead (circuit still
// closed, probes off), manifest reads through the gate retry onto the
// survivors and keep answering.
func TestRegistryReadFailover(t *testing.T) {
	shards := bootShards(t, 3)
	g, ts := bootGate(t, Options{ProbeInterval: -1, Retries: 2},
		shards[0].URL, shards[1].URL, shards[2].URL)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	man, _, err := c.RegisterSpanner(ctx, "seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}

	shards[0].Close()
	for i := 0; i < 5; i++ {
		got, err := c.GetManifest(ctx, "seller", "")
		if err != nil {
			t.Fatalf("read %d after shard death: %v", i, err)
		}
		if got.Version != man.Version {
			t.Fatalf("read %d: version %s, want %s", i, got.Version, man.Version)
		}
	}
	// Pinned version reads carry the query through the proxy.
	if _, err := c.GetManifest(ctx, "seller", man.Version); err != nil {
		t.Fatalf("pinned read after shard death: %v", err)
	}
	if g.Stats().Retries == 0 {
		t.Fatal("failing over never counted a retry")
	}
	if _, err := c.ListManifests(ctx); err != nil {
		t.Fatalf("list after shard death: %v", err)
	}
}

// With every shard's circuit open, registry reads answer 503
// "unavailable" with a Retry-After hint, not a transport error.
func TestRegistryReadAllShardsDown(t *testing.T) {
	g, ts := bootGate(t, Options{ProbeInterval: -1, Retries: 1, FailThreshold: 1},
		deadServer(t))
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.GetManifest(context.Background(), "ghost", "")
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want 503", err)
	}
	if !errors.Is(err, client.ErrUnavailable) || ce.RetryAfter == 0 {
		t.Fatalf("got %+v, want unavailable + Retry-After", ce)
	}
	if g.Stats().Healthy != 0 {
		t.Fatalf("healthy=%d, want 0", g.Stats().Healthy)
	}
}

// A registry write that cannot reach every shard must fail loudly —
// a silently diverged artifact set would break stateless routing.
func TestRegistryWriteShardDown(t *testing.T) {
	shards := bootShards(t, 2)
	_, ts := bootGate(t, Options{ProbeInterval: -1}, shards[0].URL, shards[1].URL)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	shards[1].Close()
	_, _, err = c.RegisterSpanner(context.Background(), "seller", sellerExpr)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != http.StatusBadGateway {
		t.Fatalf("got %v, want 502", err)
	}
	if !strings.Contains(ce.Message, shards[1].URL) {
		t.Fatalf("error does not name the failed shard: %s", ce.Message)
	}

	// A query-shaped failure passes through instead: the request is
	// equally wrong on every shard, so the first 4xx answers.
	_, _, err = c.RegisterSpanner(context.Background(), "bad", "x{")
	if !errors.Is(err, client.ErrSyntax) {
		t.Fatalf("bad expr via gate: %v, want ErrSyntax", err)
	}

	// DELETE broadcasts the same way.
	if err := c.DeleteSpanner(context.Background(), "seller", ""); err == nil {
		t.Fatal("delete with a dead shard succeeded")
	}
}

// Malformed and oversized bodies are rejected at the gate with the
// typed envelope, before any shard sees them. As at spand, a body is
// one JSON value, optionally followed by whitespace.
func TestBadBodies(t *testing.T) {
	shards := bootShards(t, 1)
	_, ts := bootGate(t, Options{ProbeInterval: -1, MaxBody: 256}, shards[0].URL)

	for _, path := range []string{"/v1/extract", "/v1/extract/stream"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		drainBody(resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with junk body: %d, want 400", path, resp.StatusCode)
		}
	}
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/extract", `{"expr": "x{a}", "docs": ["a"]}` + "\n\t ", http.StatusOK},
		{"/v1/extract", `{"expr": "x{a}", "docs": ["a"]} {"expr": "b"}`, http.StatusBadRequest},
		{"/v1/extract", `{"expr": "x{a}", "docs": ["a"]}[]`, http.StatusBadRequest},
		{"/v1/extract", `{"expr": "x{a}", "docs": ["a"]`, http.StatusBadRequest},
		{"/v1/extract/stream", `{"expr": "x{a}", "doc": "a"}` + "\n", http.StatusOK},
		{"/v1/extract/stream", `{"expr": "x{a}", "doc": "a"} {"expr": "b"}`, http.StatusBadRequest},
		{"/v1/extract/stream", `{"expr": "x{a}", "doc": "a"}[]`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
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
			t.Errorf("%s %q: status %d, error %+v; want status %d, code %q", c.path, c.body, resp.StatusCode, body.Err, c.want, wantCode)
		}
	}
	big := strings.NewReader(`{"expr": "a", "docs": ["` + strings.Repeat("a", 4096) + `"]}`)
	resp, err := http.Post(ts.URL+"/v1/extract", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d, want 413", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/documents/big",
		strings.NewReader(`{"text": "`+strings.Repeat("a", 4096)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized document: %d, want 413", resp.StatusCode)
	}
}

// A dead document owner exhausts the stream retry budget as 503
// "unavailable": the owner is the only shard holding the document, so
// there is no one to fail over to.
func TestStreamOwnerDead(t *testing.T) {
	shards := bootShards(t, 2)
	g, ts := bootGate(t, Options{ProbeInterval: -1, Retries: 1, AttemptTimeout: 2 * time.Second},
		shards[0].URL, shards[1].URL)
	id := ownedID(t, g, 0)
	shards[0].Close()

	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ExtractStream(context.Background(), client.StreamRequest{
		Query: client.Query{Expr: sellerExpr}, DocID: id,
	})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != http.StatusServiceUnavailable {
		t.Fatalf("stream to dead owner: %v, want 503", err)
	}
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("got %+v, want unavailable", ce)
	}
}
