package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRequestIDReachesShard: a request sent to the gate with
// X-Request-ID leaves a trace under that ID on the real spand shard
// that served it, for batch scatter and for streams alike.
func TestRequestIDReachesShard(t *testing.T) {
	shard := bootShards(t, 1)[0]
	_, gate := bootGate(t, Options{ProbeInterval: -1}, shard.URL)

	for id, route := range map[string]struct {
		path string
		body any
	}{
		"req-7": {"/v1/extract", map[string]any{"expr": sellerExpr, "docs": corpus(3)}},
		"req-8": {"/v1/extract/stream", map[string]any{"expr": sellerExpr, "doc": corpus(1)[0]}},
	} {
		raw, _ := json.Marshal(route.body)
		req, err := http.NewRequest(http.MethodPost, gate.URL+route.path, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Request-ID") != id {
			t.Fatalf("%s: status %d, echoed ID %q", route.path, resp.StatusCode, resp.Header.Get("X-Request-ID"))
		}

		tr, err := http.Get(shard.URL + "/v1/debug/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			ID    string            `json:"id"`
			Spans []json.RawMessage `json:"spans"`
		}
		err = json.NewDecoder(tr.Body).Decode(&snap)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK || err != nil || snap.ID != id || len(snap.Spans) == 0 {
			t.Fatalf("%s: shard trace for %s: status %d, err %v, %+v", route.path, id, tr.StatusCode, err, snap)
		}
	}
}

// TestRequestIDProxied: the verbatim proxy (documents, registry) also
// forwards the gate's request ID, the generated one included.
func TestRequestIDProxied(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-Request-ID"))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"d","version":1,"bytes":4}`))
	}))
	t.Cleanup(shard.Close)
	_, gate := bootGate(t, Options{ProbeInterval: -1}, shard.URL)

	for _, id := range []string{"req-9", ""} {
		req, err := http.NewRequest(http.MethodPut, gate.URL+"/v1/documents/d", strings.NewReader(`{"text":"text"}`))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		echoed := resp.Header.Get("X-Request-ID")
		if echoed == "" || (id != "" && echoed != id) {
			t.Fatalf("gate echoed %q for %q", echoed, id)
		}
		mu.Lock()
		got := seen[len(seen)-1]
		mu.Unlock()
		if got != echoed {
			t.Fatalf("shard saw X-Request-ID %q, gate answered %q", got, echoed)
		}
	}
}
