package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"spanners/internal/span"
	"spanners/internal/workload"
)

// spanJSON and resultMap are the wire form the tuple encoder replaced:
// one map per mapping, rendered by encoding/json. They stay here as the
// oracle appendResult must match byte for byte.
type spanJSON struct {
	Start   int    `json:"start"`
	End     int    `json:"end"`
	Content string `json:"content"`
}

type resultMap map[string]spanJSON

// oracleResult is the old encoding of the tuple t over cols.
func oracleResult(d *span.Document, cols []span.Var, t []span.Span) resultMap {
	out := resultMap{}
	for i, sp := range t {
		if sp != (span.Span{}) {
			out[string(cols[i])] = spanJSON{Start: sp.Start, End: sp.End, Content: d.Content(sp)}
		}
	}
	return out
}

// decodeResult reads an encoded result back into the oracle's form.
func decodeResult(t testing.TB, r Result) resultMap {
	t.Helper()
	var m resultMap
	if err := json.Unmarshal(r, &m); err != nil {
		t.Fatalf("result %s: %v", r, err)
	}
	return m
}

// encodeTexts are documents that exercise every escape encoding/json
// applies: quotes, backslashes, the HTML characters, control bytes,
// U+2028/U+2029, multi-byte runes and invalid UTF-8.
var encodeTexts = []string{
	"",
	"Seller: Anna, 12 Hill St\n",
	`say "hi" \ <b>&amp;</b> ` + "\x00\x01\b\f\n\r\t\x1f\x7f",
	"naïve café — 東京 🙂 <x> & \"q\"",
	"line\u2028sep\u2029para\u2028",
	"bad \xff\xfe utf8 \xc3 tail\xe2\x82",
	"\xed\xa0\x80 surrogate, \xf4\x90\x80\x80 too big",
}

// encodeNames are column names, including ones that need escaping.
var encodeNames = []string{"x", "y", "name", "id", "p", "t", "r", "st", "x1", `q"`, "<h>", "é", "a\u2028b"}

// randomTuple draws sorted columns from names and a tuple over them
// for a document of n symbols: about a third ⊥, the rest valid spans,
// empty ones included.
func randomTuple(rng *rand.Rand, names []string, n int) ([]span.Var, []span.Span) {
	var cols []span.Var
	for _, name := range names {
		if rng.Intn(2) == 0 {
			cols = append(cols, span.Var(name))
		}
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)
	t := make([]span.Span, len(cols))
	for i := range t {
		if rng.Intn(3) == 0 {
			continue
		}
		s := 1 + rng.Intn(n+1)
		t[i] = span.Span{Start: s, End: s + rng.Intn(n+2-s)}
	}
	return cols, t
}

// checkEncoding compares appendResult with encoding/json on the oracle.
func checkEncoding(t *testing.T, d *span.Document, cols []span.Var, tuple []span.Span) {
	t.Helper()
	want, err := json.Marshal(oracleResult(d, cols, tuple))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendResult(nil, d, cols, tuple); string(got) != string(want) {
		t.Fatalf("doc %q, cols %q, tuple %v:\n got  %s\n want %s", d.Text(), cols, tuple, got, want)
	}
}

// TestAppendResultMatchesEncodingJSON: for random columns and tuples
// over ASCII and non-ASCII documents, the encoder writes exactly the
// bytes encoding/json wrote for the map form, and so does the Mapping
// adapter.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, text := range encodeTexts {
		d := span.NewDocument(text)
		for i := 0; i < 300; i++ {
			cols, tuple := randomTuple(rng, encodeNames, d.Len())
			checkEncoding(t, d, cols, tuple)
		}
		all := make([]span.Var, len(encodeNames))
		for i, name := range encodeNames {
			all[i] = span.Var(name)
		}
		slices.Sort(all)
		checkEncoding(t, d, all, make([]span.Span, len(all))) // every column ⊥: {}
		m := span.Mapping{"x": d.Whole(), "é": span.Sp(1, 1)}
		want, _ := json.Marshal(oracleResult(d, []span.Var{"x", "é"}, []span.Span{d.Whole(), span.Sp(1, 1)}))
		if got := EncodeMapping(d, m); string(got) != string(want) {
			t.Fatalf("EncodeMapping on %q:\n got  %s\n want %s", text, got, want)
		}
	}
}

// FuzzAppendResult checks the encoder against encoding/json for
// arbitrary documents and column names.
func FuzzAppendResult(f *testing.F) {
	for i, text := range encodeTexts {
		f.Add(text, strings.Join(encodeNames, ","), int64(i))
	}
	f.Fuzz(func(t *testing.T, text, names string, seed int64) {
		d := span.NewDocument(text)
		cols, tuple := randomTuple(rand.New(rand.NewSource(seed)), strings.Split(names, ","), d.Len())
		checkEncoding(t, d, cols, tuple)
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestResultPathAllocs: the result path allocates per document, not per
// mapping. A document of 64 records may cost at most 8 more
// allocations than one of 4 on each extraction path.
func TestResultPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	const expr = `.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`
	q := Query{Expr: expr}
	ctx := context.Background()
	svc := New(Config{})
	doc := func(rows int) string {
		return workload.LandRegistry(workload.LandRegistryOptions{Rows: rows, TaxProb: 0.5, Seed: 7})
	}
	small, big := doc(4), doc(64)
	if _, err := svc.Documents().Put("small", small); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Documents().Put("big", big); err != nil {
		t.Fatal(err)
	}
	paths := map[string]func(text, id string) int{
		"ExtractBatch": func(text, _ string) int {
			res, err := svc.ExtractBatch(ctx, q, []string{text})
			if err != nil {
				t.Fatal(err)
			}
			return len(res[0])
		},
		"ExtractStream": func(text, _ string) int {
			n := 0
			if err := svc.ExtractStream(ctx, q, text, func(Result) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			return n
		},
		"ExtractDocument": func(_, id string) int {
			res, err := svc.ExtractDocument(ctx, q, id)
			if err != nil {
				t.Fatal(err)
			}
			return len(res)
		},
	}
	for name, run := range paths {
		if n := run(big, "big"); n != 64 {
			t.Fatalf("%s: %d mappings on 64 records", name, n)
		}
		a := testing.AllocsPerRun(20, func() { run(small, "small") })
		b := testing.AllocsPerRun(20, func() { run(big, "big") })
		if b-a > 8 {
			t.Errorf("%s: %v allocations for 4 records, %v for 64: %.1f per extra record", name, a, b, (b-a)/60)
		}
	}
}

// TestBatchResultAllocs: a warm ExtractBatchInto encodes each result
// once, into the pooled buffers of its workers, and hands them back on
// Release. A batch of 128 four-row documents on 2 workers, about 65 KB
// of results, allocates at most 35 KB and 4 objects per document
// (512 per batch); copying every result into a per-document buffer and
// again into an exact-size one cost 102 KB and 824 objects.
func TestBatchResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	const expr = `.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`
	q := Query{Expr: expr}
	ctx := context.Background()
	svc := New(Config{Workers: 2})
	docs := make([]string, 128)
	for i := range docs {
		docs[i] = workload.LandRegistry(workload.LandRegistryOptions{Rows: 4, TaxProb: 0.5, Seed: int64(i)})
	}
	want, err := svc.ExtractBatch(ctx, q, docs)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		b := NewBatch()
		defer b.Release()
		if err := svc.ExtractBatchInto(ctx, q, docs, b); err != nil {
			t.Fatal(err)
		}
		if len(b.Docs) != len(docs) {
			t.Fatalf("%d result slices for %d documents", len(b.Docs), len(docs))
		}
	}
	for range 5 {
		run()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	objects := float64(after.Mallocs-before.Mallocs) / runs
	if kb > 35 || objects > 4*float64(len(docs)) {
		t.Errorf("batch of %d documents: %.1f KB and %.0f objects, want at most 35 KB and %d", len(docs), kb, objects, 4*len(docs))
	}

	b := NewBatch()
	defer b.Release()
	if err := svc.ExtractBatchInto(ctx, q, docs, b); err != nil {
		t.Fatal(err)
	}
	size := 0
	for i, res := range b.Docs {
		if len(res) != len(want[i]) {
			t.Fatalf("document %d: %d results, ExtractBatch gave %d", i, len(res), len(want[i]))
		}
		for j, r := range res {
			size += len(r)
			if string(r) != string(want[i][j]) {
				t.Fatalf("document %d result %d: %s, ExtractBatch gave %s", i, j, r, want[i][j])
			}
		}
	}
	t.Logf("%.1f KB and %.0f objects per batch, %.1f KB of results", kb, objects, float64(size)/1024)
}
