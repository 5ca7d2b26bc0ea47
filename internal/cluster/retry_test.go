package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spanners/client"
)

// fakeShard is a scriptable spand stand-in: healthz always answers ok
// (unless downed), extract answers one empty result array per
// document after an optional delay, and the down flag severs
// connections at the transport level — what a crashed process looks
// like to the gate.
type fakeShard struct {
	extractDelay time.Duration
	down         atomic.Bool
	extracts     atomic.Int64
}

func (f *fakeShard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			panic(http.ErrAbortHandler)
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/extract", func(w http.ResponseWriter, r *http.Request) {
		f.extracts.Add(1)
		if f.down.Load() {
			panic(http.ErrAbortHandler)
		}
		if f.extractDelay > 0 {
			time.Sleep(f.extractDelay)
		}
		var req struct {
			Docs   []string `json:"docs"`
			DocIDs []string `json:"doc_ids"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		results := make([][]struct{}, len(req.Docs)+len(req.DocIDs))
		for i := range results {
			results[i] = []struct{}{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"results": results})
	})
	return mux
}

func bootFake(t *testing.T, f *fakeShard) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(f.handler())
	t.Cleanup(ts.Close)
	return ts
}

// deadServer returns a URL nothing listens on.
func deadServer(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	return url
}

// TestRetryShardDownAtConnect: one of three shards refuses
// connections; a scattered batch still completes on the survivors and
// the retry counter moves.
func TestRetryShardDownAtConnect(t *testing.T) {
	shards := bootShards(t, 2)
	g, gate := bootGate(t, Options{ProbeInterval: -1, Retries: 3},
		shards[0].URL, deadServer(t), shards[1].URL)

	req := map[string]any{"expr": sellerExpr, "docs": corpus(9)}
	got := rawResults(t, gate.URL, req)
	want := rawResults(t, bootShards(t, 1)[0].URL, req)
	if string(got) != string(want) {
		t.Fatalf("results diverge after failover:\n gate: %s\n one:  %s", got, want)
	}
	st := g.Stats()
	if st.Retries == 0 {
		t.Fatalf("expected retries after a dead shard, stats: %+v", st)
	}
	var deadErrors uint64
	for _, sh := range st.Shards {
		if sh.Requests["error"] > 0 {
			deadErrors += sh.Requests["error"]
		}
	}
	if deadErrors == 0 {
		t.Fatalf("dead shard recorded no error outcomes: %+v", st.Shards)
	}
}

// TestAllShardsDown503: with every shard unreachable the batch
// answers the 503 envelope, code "unavailable", with a Retry-After
// hint — the matrix's terminal row.
func TestAllShardsDown503(t *testing.T) {
	_, gate := bootGate(t, Options{ProbeInterval: -1, Retries: 1},
		deadServer(t), deadServer(t))
	resp := postJSON(t, gate.URL+"/v1/extract", map[string]any{"expr": "x{a}", "docs": []string{"a"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("missing Retry-After on all-shards-down 503")
	}
	var env client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != client.CodeUnavailable {
		t.Fatalf("code %q, want %q", env.Err.Code, client.CodeUnavailable)
	}
}

// TestSlowShardAttemptTimeout: a shard that sits on a batch past the
// per-attempt deadline is abandoned for a healthy shard; the timeout
// outcome lands on its counters.
func TestSlowShardAttemptTimeout(t *testing.T) {
	slow := &fakeShard{extractDelay: 2 * time.Second}
	slowTS := bootFake(t, slow)
	healthy := bootShards(t, 1)[0]
	g, gate := bootGate(t, Options{
		ProbeInterval:  -1,
		AttemptTimeout: 150 * time.Millisecond,
		Retries:        3,
	}, slowTS.URL, healthy.URL)

	// Two docs scatter one to each shard; the slow shard's chunk must
	// fail over to the healthy one within the attempt budget.
	start := time.Now()
	req := map[string]any{"expr": sellerExpr, "docs": corpus(2)}
	got := rawResults(t, gate.URL, req)
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("batch took %v; failover should beat the slow shard's 2s", elapsed)
	}
	want := rawResults(t, bootShards(t, 1)[0].URL, req)
	if string(got) != string(want) {
		t.Fatalf("results diverge after timeout failover:\n gate: %s\n one:  %s", got, want)
	}
	var timeouts uint64
	for _, sh := range g.Stats().Shards {
		timeouts += sh.Requests["timeout"]
	}
	if timeouts == 0 {
		t.Fatalf("no timeout outcome recorded: %+v", g.Stats().Shards)
	}
}

// TestCircuitBreaker: consecutive failures open a shard's circuit
// (visible in healthz), probes keep watching it, and recovery closes
// the circuit without traffic.
func TestCircuitBreaker(t *testing.T) {
	flappy := &fakeShard{}
	flappy.down.Store(true)
	flappyTS := bootFake(t, flappy)
	steady := bootShards(t, 1)[0]
	g, gate := bootGate(t, Options{
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 2,
	}, flappyTS.URL, steady.URL)

	waitFor(t, time.Second, func() bool { return g.Stats().Healthy == 1 })

	// Degraded is visible on the gate's healthz.
	resp, err := http.Get(gate.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if hz.Status != "degraded" {
		t.Fatalf("healthz status %q, want degraded", hz.Status)
	}

	// Recovery: the probe closes the circuit with no request traffic.
	flappy.down.Store(false)
	waitFor(t, time.Second, func() bool { return g.Stats().Healthy == 2 })

	var opens uint64
	for _, sh := range g.Stats().Shards {
		opens += sh.CircuitOpens
	}
	if opens == 0 {
		t.Fatal("no circuit-open transition recorded")
	}
}

func waitFor(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// drainBody is a tiny helper for tests that only care about status.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
