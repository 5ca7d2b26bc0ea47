package main

import (
	"math/rand"
	"sort"
	"testing"

	"spanners/internal/naive"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/workload"
)

// naiveKeys evaluates expr on text with the reference semantics and
// returns the canonical keys of its mappings.
func naiveKeys(t *testing.T, expr, text string) []string {
	t.Helper()
	n, err := rgx.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, m := range naive.Eval(n, span.NewDocument(text)).Mappings() {
		var tm mapping
		for v, sp := range m {
			tm = append(tm, triple{string(v), sp.Start, sp.End})
		}
		sort.Slice(tm, func(i, j int) bool { return tm[i].v < tm[j].v })
		keys = append(keys, tm.key())
	}
	sort.Strings(keys)
	return keys
}

func truthKeys(ms []mapping) []string {
	keys := []string{}
	for _, m := range ms {
		keys = append(keys, m.key())
	}
	sort.Strings(keys)
	return keys
}

// TestTruthAgainstNaive checks the generator-derived truth against
// internal/naive, the repo's semantic oracle, on documents small enough
// for it.
func TestTruthAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name, expr string
		truth      func(string) []mapping
		text       string
	}{
		{"weblog", weblogExpr, weblogTruth, webLog(1, rng)},
		{"weblog-referer", weblogExpr, weblogTruth,
			"1.2.3.4 GET / 200 17 \"curl/8.0\" ref=/health\n9.9.9.9 PUT /x 503 1 \"a\"\n"},
		{"sparse", sparseExpr, sparseTruth, plantedLog(1, 1, rng)},
		{"sparse-mixed", sparseExpr, sparseTruth,
			"9.9.9.9 PUT /x 503 1 \"a\"\n1.2.3.4 TRACE /admin/keys 403 9 \"b\" ref=/\n7.7.7.7 TRACE /x 200 1 \"c\"\n"},
		{"land", landExpr, landTruth,
			workload.LandRegistry(workload.LandRegistryOptions{Rows: 2, TaxProb: 1, Seed: 3})},
		{"land-no-tax", landExpr, landTruth,
			workload.LandRegistry(workload.LandRegistryOptions{Rows: 2, TaxProb: 0, Seed: 4})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := truthKeys(c.truth(c.text)), naiveKeys(t, c.expr, c.text)
			if len(got) != len(want) {
				t.Fatalf("truth has %d mappings, naive %d\ntext %q\ntruth %v\nnaive %v", len(got), len(want), c.text, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("mapping %d: truth %s, naive %s", i, got[i], want[i])
				}
			}
		})
	}
}
