package eval

import (
	"fmt"
	"strings"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
	"spanners/internal/workload"
)

// This file is the differential property suite for the lazy-DFA layer
// (PR 5): on the existing workload corpus, the DFA path, the
// self-loop skip path it contains, the plain
// bitset path (ForceNoDFA), and the interpreted oracle
// (ForceInterpreted) must produce identical mapping sets, counts and
// decisions — including at the cache-budget-exhausted fallback
// boundary (a 3-state budget that flushes permanently) and on a
// spanner at the 32-variable mask limit.

// workloadCorpus pairs expressions with documents from the workload
// generators: the land-registry rows of Table 1, web logs with the
// optional referer field, DNA motifs (an anchored literal chain), and
// a letter-heavy skip-loop document.
func workloadCorpus() []struct{ name, expr, doc string } {
	return []struct{ name, expr, doc string }{
		{
			"landregistry/seller-tax",
			`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`,
			workload.LandRegistry(workload.LandRegistryOptions{Rows: 6, TaxProb: 0.5, Seed: 21}),
		},
		{
			"weblog/method-path",
			`.*(x{GET|POST|PUT|DELETE} y{/[^ ]*} ).*`,
			workload.WebLog(workload.WebLogOptions{Lines: 4, ReferProb: 0.5, Seed: 22}),
		},
		{
			"dna/motif-anchored",
			`x{[ACGT]*}TAGGTACCy{[ACGT]*}`,
			workload.DNA(48, "TAGGTACC", 2, 23),
		},
		{
			"skip/letter-heavy",
			`.*ERROR x{[^\n]*}\n.*`,
			strings.Repeat("info line without trigger\n", 6) + "ERROR disk full\n",
		},
	}
}

// corpusEngines is engines() restricted to the auto-selected decision
// procedure: the forced-FPT interpreted oracle is far too slow for
// workload-sized documents (its differential coverage lives in
// quick_test.go on short random documents).
func corpusEngines(a *va.VA) map[string]*Engine {
	compiled := NewEngine(a)
	nodfa := NewEngine(a)
	nodfa.ForceNoDFA()
	tiny := NewEngine(a)
	if p := tiny.Program(); p != nil {
		tiny.UseDFA(program.NewDFA(p, 3))
	}
	interp := NewEngine(a)
	interp.ForceInterpreted()
	return map[string]*Engine{
		"compiled":         compiled,
		"compiled-nodfa":   nodfa,
		"compiled-tinydfa": tiny,
		"interpreted":      interp,
	}
}

func TestDifferentialDFAOnWorkloadCorpus(t *testing.T) {
	for _, tc := range workloadCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			a := va.FromRGX(rgx.MustParse(tc.expr))
			engs := corpusEngines(a)
			if !engs["compiled"].DFAEnabled() {
				t.Fatalf("DFA unexpectedly disabled for %q", tc.expr)
			}
			d := span.NewDocument(tc.doc)

			want := engs["interpreted"].All(d)
			wantCount := engs["interpreted"].Count(d)
			wantMatch := engs["interpreted"].NonEmpty(d)
			for name, eng := range engs {
				if got := eng.All(d); !got.Equal(want) {
					t.Fatalf("%s disagrees on mapping set: %d vs %d mappings",
						name, got.Len(), want.Len())
				}
				if got := eng.Count(d); got != wantCount {
					t.Fatalf("%s Count = %d, oracle %d", name, got, wantCount)
				}
				if got := eng.NonEmpty(d); got != wantMatch {
					t.Fatalf("%s NonEmpty = %v, oracle %v", name, got, wantMatch)
				}
			}
		})
	}
}

// TestDifferentialDFABudgetBoundary drives the 3-state budget hard
// enough that flushes and sweep fallbacks actually occur, and checks
// the results stay identical through the boundary.
func TestDifferentialDFABudgetBoundary(t *testing.T) {
	tc := workloadCorpus()[0]
	a := va.FromRGX(rgx.MustParse(tc.expr))
	ref := NewEngine(a)
	ref.ForceNoDFA()
	tiny := NewEngine(a)
	tinyDFA := program.NewDFA(tiny.Program(), 3)
	tiny.UseDFA(tinyDFA)

	docs := []string{
		tc.doc,
		workload.LandRegistry(workload.LandRegistryOptions{Rows: 3, TaxProb: 1, Seed: 24}),
		"no rows here",
		"",
	}
	for _, doc := range docs {
		d := span.NewDocument(doc)
		if got, want := tiny.All(d), ref.All(d); !got.Equal(want) {
			t.Fatalf("budget boundary diverged on %q: %d vs %d mappings", doc, got.Len(), want.Len())
		}
		if got, want := tiny.Count(d), ref.Count(d); got != want {
			t.Fatalf("budget boundary Count diverged on %q: %d vs %d", doc, got, want)
		}
	}
	st := tinyDFA.Stats()
	if st.Flushes == 0 {
		t.Fatalf("3-state budget never flushed: %+v", st)
	}
}

// TestDifferential32VariableSpanner pins the MaxVars edge: a
// sequential spanner with exactly 32 variables — every bit of the
// open/close masks in use — still compiles and runs the DFA, one with
// 33 falls back to the interpreted engine, and all paths agree on
// mapping sets and counts.
func TestDifferential32VariableSpanner(t *testing.T) {
	mk := func(k int) *va.VA {
		var sb strings.Builder
		for i := 0; i < k; i++ {
			// A few optional letters keep the output set > 1 (without
			// exploding it) and none break sequentiality.
			if i%8 == 1 {
				fmt.Fprintf(&sb, "(x%02d{b}|b)", i)
			} else if i%2 == 0 {
				fmt.Fprintf(&sb, "x%02d{a}", i)
			} else {
				fmt.Fprintf(&sb, "x%02d{b}", i)
			}
		}
		return va.FromRGX(rgx.MustParse(sb.String()))
	}

	at := NewEngine(mk(program.MaxVars))
	if !at.Compiled() || !at.DFAEnabled() || !at.Sequential() {
		t.Fatalf("%d-variable spanner should compile sequential and run the DFA", program.MaxVars)
	}
	over := NewEngine(mk(program.MaxVars + 1))
	if over.Compiled() {
		t.Fatalf("%d-variable spanner should fall back to the interpreted engine", program.MaxVars+1)
	}

	for _, k := range []int{program.MaxVars, program.MaxVars + 1} {
		a := mk(k)
		doc := strings.Repeat("ab", (k+1)/2)[:k]
		d := span.NewDocument(doc)
		engs := corpusEngines(a)
		want := engs["interpreted"].All(d)
		if want.Len() < 2 {
			t.Fatalf("k=%d: degenerate corpus, %d mappings", k, want.Len())
		}
		for name, eng := range engs {
			if got := eng.All(d); !got.Equal(want) {
				t.Fatalf("k=%d: %s disagrees: %d vs %d mappings", k, name, got.Len(), want.Len())
			}
			if got, wantN := eng.Count(d), want.Len(); got != wantN {
				t.Fatalf("k=%d: %s Count %d vs %d", k, name, got, wantN)
			}
		}
	}
}

// TestDFASweepsAliasedFrontiersAreSafe re-runs enumeration twice on
// the same engine and document: the second pass reuses interned
// frontiers from the first, which would corrupt results if anything
// in the enumerator mutated the aliased bitsets.
func TestDFASweepsAliasedFrontiersAreSafe(t *testing.T) {
	tc := workloadCorpus()[0]
	eng := CompileRGX(rgx.MustParse(tc.expr))
	d := span.NewDocument(tc.doc)
	first := eng.All(d)
	second := eng.All(d)
	if !first.Equal(second) {
		t.Fatalf("repeated enumeration diverged: %d vs %d mappings", first.Len(), second.Len())
	}
	if st, ok := eng.DFAStats(); !ok || st.Hits == 0 {
		t.Fatalf("repeated enumeration produced no cache hits: %+v ok=%v", st, ok)
	}
}
