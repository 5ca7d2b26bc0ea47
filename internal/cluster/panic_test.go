package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"spanners/client"
)

// panicTransport panics on every upstream call, the way a bug below
// the scatter goroutine would.
type panicTransport struct{}

func (panicTransport) RoundTrip(*http.Request) (*http.Response, error) {
	panic("transport bug")
}

// TestScatterPanicFailsGroupAsInternal: a scatter group that panics
// fails its units with the typed 500 instead of killing the gate. The
// batch holds two inline groups, one document-owner group and an
// in-batch duplicate that waits on a panicking leader, so both scatter
// goroutines panic and the waiter must still be released.
func TestScatterPanicFailsGroupAsInternal(t *testing.T) {
	g, gate := bootGate(t, Options{ProbeInterval: -1, HTTPClient: &http.Client{Transport: panicTransport{}}},
		"http://shard-a.invalid", "http://shard-b.invalid")

	body := map[string]any{"expr": sellerExpr, "docs": []string{"a", "b", "a"}, "doc_ids": []string{"d1"}}
	done := make(chan *http.Response, 1)
	go func() { done <- postJSON(t, gate.URL+"/v1/extract", body) }()
	var resp *http.Response
	select {
	case resp = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch never answered: a waiter is still parked on a panicked leader")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var env client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != client.CodeInternal {
		t.Fatalf("code %q, want %q", env.Err.Code, client.CodeInternal)
	}
	if n := g.counters.panics.Load(); n != 3 {
		t.Fatalf("spand_gate_panics_total = %d, want 3 (two inline groups, one owner group)", n)
	}

	mresp, err := http.Get(gate.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(prom), "\nspand_gate_panics_total 3\n") {
		t.Fatalf("exposition lacks spand_gate_panics_total 3:\n%s", prom)
	}
}
