package httpapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"spanners/client"
	"spanners/internal/eval"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// gazetteer is .*x{w1|…|wn}.* over n random 8-letter words, and the
// words.
func gazetteer(n int) (string, []string) {
	rng := rand.New(rand.NewSource(1))
	words := make([]string, n)
	for i := range words {
		b := make([]byte, 8)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(b)
	}
	return ".*x{" + strings.Join(words, "|") + "}.*", words
}

// TestUncompiledQueryRefusedOnLargeDocument: the 1 000-word gazetteer
// compiles to more program states than the compiled tier takes, so it
// is served by the interpreted enumerator, whose reach keeps one byte
// per VA state and boundary. Over a 600 KB document that is 5.4 GB:
// both extraction endpoints answer 413 too_large at once, naming the
// document, and the server goes on serving. Over a 4 KB document the
// 400- and 1 000-word gazetteers (both served uncompiled) answer 200
// with the mappings the engine enumerates in process.
func TestUncompiledQueryRefusedOnLargeDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles two gazetteers of 3 600 and 9 000 VA states")
	}
	ts, _ := newTestServer(t)
	expr, words := gazetteer(1000)
	big := strings.Repeat("0123 4567 ", 60_000) // digits and spaces: no match
	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/extract", map[string]any{"expr": expr, "docs": []string{"ab", big}}},
		{"/v1/extract/stream", map[string]any{"expr": expr, "doc": big}},
	} {
		start := time.Now()
		resp := postJSON(t, ts.URL+c.path, c.body)
		took := time.Since(start)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			resp.Body.Close()
			t.Fatalf("%s: status %d, want 413", c.path, resp.StatusCode)
		}
		det := decodeError(t, resp)
		if det.Code != client.CodeTooLarge || !strings.Contains(det.Message, "uncompiled") {
			t.Fatalf("%s: error %+v, want %q saying the query runs uncompiled", c.path, det, client.CodeTooLarge)
		}
		if c.path == "/v1/extract" && !strings.Contains(det.Message, "document 1") {
			t.Errorf("%s: %q does not name document 1", c.path, det.Message)
		}
		if took > time.Second && !raceEnabled {
			t.Errorf("%s: refusing took %v, want under 1s", c.path, took)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": "x{a}", "docs": []string{"a"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the next request: status %d, want 200", resp.StatusCode)
	}

	var doc strings.Builder
	for i := 0; doc.Len() < 4096; i++ {
		fmt.Fprintf(&doc, "%d ", i)
		if i%300 == 150 {
			fmt.Fprintf(&doc, "%s ", words[i%len(words)])
		}
	}
	for _, n := range []int{400, 1000} {
		expr, _ := gazetteer(n)
		e := eval.CompileRGX(rgx.MustParse(expr))
		if e.Compiled() {
			t.Fatalf("the %d-word gazetteer compiles: it tests nothing", n)
		}
		var want []client.Span
		e.Enumerate(span.NewDocument(doc.String()), func(m span.Mapping) bool {
			x := m["x"]
			want = append(want, client.Span{Start: x.Start, End: x.End, Content: doc.String()[x.Start-1 : x.End-1]})
			return true
		})
		resp := postJSON(t, ts.URL+"/v1/extract", map[string]any{"expr": expr, "docs": []string{doc.String()}})
		var out struct{ Results [][]client.Result }
		err := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
			t.Fatalf("%d words over %d bytes: status %d, %v", n, doc.Len(), resp.StatusCode, err)
		}
		var got []client.Span
		for _, r := range out.Results[0] {
			got = append(got, r["x"])
		}
		cmp := func(a, b client.Span) int { return a.Start - b.Start }
		slices.SortFunc(got, cmp)
		slices.SortFunc(want, cmp)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%d words: %d mappings, the engine %d", n, len(got), len(want))
		}
	}
}
