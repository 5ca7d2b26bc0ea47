package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"spanners/client"
	"spanners/internal/obs"
)

// TestAdmissionShedding: with the in-flight cap saturated, the gate
// sheds immediately with 503 "overloaded" and Retry-After instead of
// queueing the fan-out.
func TestAdmissionShedding(t *testing.T) {
	slow := &fakeShard{extractDelay: 600 * time.Millisecond}
	ts := bootFake(t, slow)
	g, gate := bootGate(t, Options{ProbeInterval: -1, MaxInFlight: 1}, ts.URL)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postJSON(t, gate.URL+"/v1/extract", map[string]any{"expr": "x{a}", "docs": []string{"slow"}})
		drainBody(resp)
	}()
	waitFor(t, time.Second, func() bool { return g.Stats().InFlight == 1 })

	resp := postJSON(t, gate.URL+"/v1/extract", map[string]any{"expr": "x{a}", "docs": []string{"shed me"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var env client.ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&env)
	if env.Err.Code != client.CodeOverloaded {
		t.Fatalf("code %q, want %q", env.Err.Code, client.CodeOverloaded)
	}
	wg.Wait()
	if g.Stats().Shed == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestSingleFlightCoalescing: concurrent identical (query, document)
// units run upstream once; every caller gets the leader's result.
func TestSingleFlightCoalescing(t *testing.T) {
	slow := &fakeShard{extractDelay: 300 * time.Millisecond}
	ts := bootFake(t, slow)
	g, gate := bootGate(t, Options{ProbeInterval: -1}, ts.URL)

	req := map[string]any{"expr": "x{a}", "docs": []string{"same doc"}}
	const callers = 4
	bodies := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, gate.URL+"/v1/extract", req)
			defer resp.Body.Close()
			var out struct {
				Results json.RawMessage `json:"results"`
			}
			json.NewDecoder(resp.Body).Decode(&out)
			bodies[i] = string(out.Results)
		}(i)
	}
	wg.Wait()
	if n := slow.extracts.Load(); n != 1 {
		t.Fatalf("upstream saw %d extract calls for %d identical callers, want 1", n, callers)
	}
	for i := 1; i < callers; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("caller %d diverged: %q vs %q", i, bodies[i], bodies[0])
		}
	}
	if st := g.Stats(); st.Coalesced != callers-1 {
		t.Fatalf("coalesced counter %d, want %d", st.Coalesced, callers-1)
	}

	// Distinct documents do NOT coalesce.
	slow.extracts.Store(0)
	var wg2 sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			resp := postJSON(t, gate.URL+"/v1/extract",
				map[string]any{"expr": "x{a}", "docs": []string{fmt.Sprintf("doc %d", i)}})
			drainBody(resp)
		}(i)
	}
	wg2.Wait()
	if n := slow.extracts.Load(); n != 2 {
		t.Fatalf("distinct docs coalesced: %d upstream calls, want 2", n)
	}
}

// TestDuplicateDocsInOneBatch: duplicates inside a single batch
// coalesce too, and the merged response still has one result per
// input position.
func TestDuplicateDocsInOneBatch(t *testing.T) {
	shards := bootShards(t, 2)
	g, gate := bootGate(t, Options{ProbeInterval: -1}, shards[0].URL, shards[1].URL)

	doc := "Seller: Anna, 12 Hill St\n"
	req := map[string]any{"expr": sellerExpr, "docs": []string{doc, doc, doc}}
	got := rawResults(t, gate.URL, req)
	want := rawResults(t, bootShards(t, 1)[0].URL, req)
	if string(got) != string(want) {
		t.Fatalf("duplicate-doc batch diverges:\n gate: %s\n one:  %s", got, want)
	}
	if g.Stats().Coalesced == 0 {
		t.Fatal("in-batch duplicates did not coalesce")
	}
}

// TestRegistryBroadcast: a registry write through the gate lands on
// every shard — the invariant that keeps routing stateless — and a
// delete removes it everywhere.
func TestRegistryBroadcast(t *testing.T) {
	shards := bootShards(t, 3)
	_, gate := bootGate(t, Options{ProbeInterval: -1},
		shards[0].URL, shards[1].URL, shards[2].URL)

	cg, err := client.New(gate.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	man, created, err := cg.RegisterSpanner(ctx, "bcast", "x{ab}.*")
	if err != nil || !created {
		t.Fatalf("register via gate: created=%v err=%v", created, err)
	}
	for i, sh := range shards {
		cs, err := client.New(sh.URL)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cs.GetManifest(ctx, "bcast", "")
		if err != nil {
			t.Fatalf("shard %d missing broadcast artifact: %v", i, err)
		}
		if got.Version != man.Version {
			t.Fatalf("shard %d version %q, want %q (content addressing must agree)", i, got.Version, man.Version)
		}
	}
	if err := cg.DeleteSpanner(ctx, "bcast", ""); err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		cs, _ := client.New(sh.URL)
		if _, err := cs.GetManifest(ctx, "bcast", ""); !errors.Is(err, client.ErrNotFound) {
			t.Fatalf("shard %d still has deleted artifact: %v", i, err)
		}
	}

	// Reads through the gate serve from any shard.
	if _, _, err := cg.RegisterSpanner(ctx, "readback", "y{cd}.*"); err != nil {
		t.Fatal(err)
	}
	mans, err := cg.ListManifests(ctx)
	if err != nil || len(mans) != 1 || mans[0].Name != "readback" {
		t.Fatalf("list via gate: %+v err=%v", mans, err)
	}
}

// TestMetricsExposition: a bare GET /v1/metrics (no query, no Accept)
// answers the Prometheus exposition with every spand_gate_* family
// under HELP/TYPE, and /v1/healthz carries the same counters as JSON.
func TestMetricsExposition(t *testing.T) {
	shards := bootShards(t, 2)
	_, gate := bootGate(t, Options{ProbeInterval: -1}, shards[0].URL, shards[1].URL)

	// Drive one batch and one stream so counters move.
	drainBody(postJSON(t, gate.URL+"/v1/extract", map[string]any{"expr": sellerExpr, "docs": corpus(4)}))
	resp := postJSON(t, gate.URL+"/v1/extract/stream", map[string]any{"expr": sellerExpr, "doc": corpus(1)[0]})
	drainBody(resp)

	resp, err := http.Get(gate.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType || !strings.HasPrefix(text, "# HELP ") {
		t.Fatalf("bare /v1/metrics: Content-Type %q, body %.40q; want the exposition", ct, text)
	}
	for _, fam := range []string{
		"spand_gate_shard_requests_total",
		"spand_gate_fanout_duration_seconds",
		"spand_gate_stream_ttfb_seconds",
		"spand_gate_coalesced_total",
		"spand_gate_shed_total",
		"spand_gate_retries_total",
		"spand_gate_streamed_lines_total",
		"spand_gate_circuit_opens_total",
		"spand_gate_in_flight",
		"spand_gate_healthy_shards",
	} {
		if !strings.Contains(text, "# HELP "+fam+" ") || !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Fatalf("exposition missing family %s:\n%s", fam, text)
		}
	}
	if !strings.Contains(text, `outcome="ok"`) || !strings.Contains(text, `shard="`) {
		t.Fatal("shard request family missing its labels")
	}

	var hz healthzResponse
	resp2, err := http.Get(gate.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if len(hz.Shards) != 2 || hz.StreamedLines == 0 {
		t.Fatalf("healthz stats: %+v", hz.Stats)
	}
}

// TestOwnerDownDocuments: a document whose owner shard's circuit is
// open answers 503 unavailable — never silently re-homed.
func TestOwnerDownDocuments(t *testing.T) {
	flappy := &fakeShard{}
	flappy.down.Store(true)
	flappyTS := bootFake(t, flappy)
	healthy := bootShards(t, 1)[0]
	g, gate := bootGate(t, Options{
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 2,
	}, flappyTS.URL, healthy.URL)
	waitFor(t, time.Second, func() bool { return g.Stats().Healthy == 1 })

	// Find an ID owned by the (dead) first shard.
	var deadOwned string
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("probe-%d", i)
		if g.owner(id) == g.shards[0] {
			deadOwned = id
			break
		}
	}
	if deadOwned == "" {
		t.Fatal("no probe ID hashed to shard 0")
	}
	cg, err := client.New(gate.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = cg.PutDocument(context.Background(), deadOwned, "text")
	var ce *client.Error
	if !isClientErr(err, &ce) || ce.Status != http.StatusServiceUnavailable || ce.Code != client.CodeUnavailable {
		t.Fatalf("put to dead owner: %v", err)
	}
	if ce.RetryAfter == 0 {
		t.Fatal("owner-down response missing Retry-After")
	}
}

// TestEmptyBatchValidatesQuery: a batch with no documents still
// validates the query against a shard, answering 400 on syntax errors
// and an empty result set otherwise — like a single spand.
func TestEmptyBatchValidatesQuery(t *testing.T) {
	shards := bootShards(t, 2)
	_, gate := bootGate(t, Options{ProbeInterval: -1}, shards[0].URL, shards[1].URL)

	resp := postJSON(t, gate.URL+"/v1/extract", map[string]any{"expr": "x{"})
	var env client.ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Err.Code != client.CodeSyntax {
		t.Fatalf("empty-batch syntax error: status %d code %q", resp.StatusCode, env.Err.Code)
	}

	resp = postJSON(t, gate.URL+"/v1/extract", map[string]any{"expr": "x{a}"})
	defer resp.Body.Close()
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 0 {
		t.Fatalf("empty-batch OK path: status %d results %v", resp.StatusCode, out.Results)
	}
}
