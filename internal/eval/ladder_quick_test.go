package eval

import (
	"slices"
	"strings"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

// This file is the differential property suite for the DFA speed
// ladder: the lazy DFA's sweeps, the boundary choices cached on DFA
// states, and pinned Eval's filtered walk must all be pure
// accelerations — identical mapping sets, counts, decisions and Eval
// verdicts against the bitset path and the interpreted oracle, on
// adversarial documents chosen to sit on the accelerators' edges
// (literal at byte 0, literal straddling a scan window, empty
// matches, permanently flushing DFA budgets).

// ladderEngines builds the DFA engine plus the two reference paths
// for one automaton.
func ladderEngines(a *va.VA) map[string]*Engine {
	nodfa := NewEngine(a)
	nodfa.ForceNoDFA()
	interp := NewEngine(a)
	interp.ForceInterpreted()
	return map[string]*Engine{
		"dfa":         NewEngine(a),
		"nodfa":       nodfa,
		"interpreted": interp,
	}
}

// literalCorpus places the required literal of
// `.*ERROR x{[^\n]*}\n.*` (and documents without it) at the
// accelerator edges. jumpWindow is the 16 KiB scan window of the
// stop-byte jumps the corpus was first written for; the straddle cases
// keep its edges.
const jumpWindow = 1 << 14

func literalCorpus() []struct{ name, doc string } {
	filler := func(n int) string { return strings.Repeat("steady state line\n", n/18+1)[:n] }
	return []struct{ name, doc string }{
		{"literal-at-byte-0", "ERROR disk full\nmore text\n"},
		{"literal-at-end", filler(300) + "ERROR disk full\n"},
		{"literal-absent", filler(500)},
		{"literal-absent-large", filler(2 * jumpWindow)},
		{"literal-straddles-window", filler(jumpWindow-3) + "ERROR hit\n" + filler(64)},
		{"literal-at-window-edge", filler(jumpWindow) + "ERROR hit\n"},
		{"probe-bytes-only", strings.Repeat("E R O ", 200)},
		{"empty", ""},
		{"non-ascii", "naïve — ERROR düsk füll\n"},
		{"non-ascii-absent", "naïve — no trigger höre\n"},
	}
}

func TestDifferentialPrefilter(t *testing.T) {
	a := va.FromRGX(rgx.MustParse(`.*ERROR x{[^\n]*}\n.*`))
	engs := ladderEngines(a)
	for _, tc := range literalCorpus() {
		d := span.NewDocument(tc.doc)
		want := engs["interpreted"].All(d)
		wantMatch := engs["interpreted"].NonEmpty(d)
		for name, eng := range engs {
			if got := eng.NonEmpty(d); got != wantMatch {
				t.Fatalf("%s/%s NonEmpty = %v, oracle %v", tc.name, name, got, wantMatch)
			}
			if got := eng.All(d); !got.Equal(want) {
				t.Fatalf("%s/%s mapping set: %d vs %d", tc.name, name, got.Len(), want.Len())
			}
			if got, wantN := eng.Count(d), engs["interpreted"].Count(d); got != wantN {
				t.Fatalf("%s/%s Count = %d, oracle %d", tc.name, name, got, wantN)
			}
		}
	}
}

// TestPrefilterEmptyMatchSpanner: a spanner with an accepting run that
// reads no literal (here: the whole alternative is optional) matches a
// document without the literal.
func TestPrefilterEmptyMatchSpanner(t *testing.T) {
	for _, tc := range []struct{ expr, doc string }{
		{`(ERROR x{[^\n]*}\n|)`, ""},
		{`.*(ERROR |)x{a*}.*`, "no trigger here"},
	} {
		for name, e := range ladderEngines(va.FromRGX(rgx.MustParse(tc.expr))) {
			if !e.NonEmpty(span.NewDocument(tc.doc)) {
				t.Fatalf("%s: %q must match %q via the empty alternative", name, tc.expr, tc.doc)
			}
		}
	}
}

// TestDifferentialConstrainedEval drives pinned-span Eval — the
// enumeration walk with a choice filter, stopped at its first
// completion — on the DFA and bitset paths against the interpreted
// oracle, over exact pins, shifted (wrong) pins, partial pins, Bottom
// pins, and boundary-position pins.
func TestDifferentialConstrainedEval(t *testing.T) {
	for _, tc := range workloadCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			a := va.FromRGX(rgx.MustParse(tc.expr))
			engs := ladderEngines(a)
			d := span.NewDocument(tc.doc)
			n := d.Len()

			// Candidate constraints: every exact output pin (capped),
			// perturbed pins, partial and Bottom pins, and boundary pins.
			var mus []span.Extended
			vars := engs["interpreted"].Vars()
			count := 0
			engs["interpreted"].Enumerate(d, func(m span.Mapping) bool {
				mus = append(mus, span.FromMapping(m, vars))
				for v, s := range m {
					if s.End <= n {
						shifted := make(span.Mapping, len(m))
						for k, sp := range m {
							shifted[k] = sp
						}
						shifted[v] = span.Sp(s.Start+1, s.End+1)
						mus = append(mus, span.FromMapping(shifted, vars))
					}
					mus = append(mus, span.Extended{v: {Span: s}})
					mus = append(mus, span.Extended{v: {Bottom: true}})
					break
				}
				count++
				return count < 4
			})
			if len(vars) > 0 {
				v := vars[0]
				mus = append(mus,
					span.Extended{v: {Span: span.Sp(1, 1)}},
					span.Extended{v: {Span: span.Sp(n+1, n+1)}},
					span.Extended{v: {Span: span.Sp(1, n+1)}},
				)
			}

			for i, mu := range mus {
				want := engs["interpreted"].Eval(d, mu)
				for name, eng := range engs {
					if got := eng.Eval(d, mu); got != want {
						t.Fatalf("mu[%d]=%v: %s Eval = %v, oracle %v", i, mu, name, got, want)
					}
				}
			}
		})
	}

	// On a long single-obligation document pinned Eval is one walk on
	// the DFA path, and a warm repeat replays the layer memo without a
	// letter step.
	a := va.FromRGX(rgx.MustParse(`a*x{b+}a*`))
	eng := NewEngine(a)
	ref := NewEngine(a)
	ref.ForceNoDFA()
	pad := strings.Repeat("a", 2000)
	d := span.NewDocument(pad + "bb" + pad)
	mu := span.Extended{"x": {Span: span.Sp(2001, 2003)}}
	defer func() { testHookWalkDone = nil }()
	for _, pass := range []string{"cold", "warm"} {
		walks, steps := 0, 0
		testHookWalkDone = func(w *seqWalk) {
			if walks, steps = walks+1, steps+w.steps; !w.dfa {
				t.Errorf("%s pinned Eval walked off the DFA path", pass)
			}
		}
		got := eng.Eval(d, mu)
		testHookWalkDone = nil
		if want := ref.Eval(d, mu); got != want || !got {
			t.Fatalf("%s pinned Eval = %v, bitset %v (want both true)", pass, got, want)
		}
		if walks != 1 || pass == "warm" && steps != 0 {
			t.Fatalf("%s pinned Eval took %d walks and %d letter steps, want 1 walk (and 0 steps warm)", pass, walks, steps)
		}
	}
	bad := span.Extended{"x": {Span: span.Sp(2000, 2003)}}
	if got, want := eng.Eval(d, bad), ref.Eval(d, bad); got != want || got {
		t.Fatalf("misaligned pinned Eval = %v, bitset %v (want both false)", got, want)
	}
}

// TestPinnedEvalOnSkippedBoundary: no operation fires on the op-free
// stretch of a DAG edge, so a pin on a boundary inside one — skipped
// by the glide on the DFA path, where no DAG node forms — fails the
// branch, whether the stretch leads to a node or to completion. In the
// first expression every branch that skips the pin completes. In the
// second, the branch firing a{} comes first in emission order, and its
// stretch skips z's boundaries to the node where y opens, the node the
// branch through z{x} reaches next: entered from the skipping branch,
// it would count as failed for the one that meets the pin. Each engine
// must give the interpreted oracle's answer.
func TestPinnedEvalOnSkippedBoundary(t *testing.T) {
	pad := strings.Repeat("a", 100)
	for _, tc := range []struct {
		expr, doc string
		v         span.Var
		pin       span.Span
		want      bool
	}{
		{`a*(x{b}|b)a*`, pad + "b" + pad, "x", span.Sp(101, 102), true},
		{`a*(x{b}|b)a*`, pad + "b" + pad, "x", span.Sp(50, 51), false},   // the root edge's stretch holds it
		{`a*(x{b}|b)a*`, pad + "b" + pad, "x", span.Sp(150, 151), false}, // the completing stretch holds it
		{`(a{}xxx|x(z{x})x)y{c}`, "xxxc", "z", span.Sp(2, 3), true},
	} {
		mu := span.Extended{tc.v: {Span: tc.pin}}
		d := span.NewDocument(tc.doc)
		for name, e := range ladderEngines(va.FromRGX(rgx.MustParse(tc.expr))) {
			if got := e.Eval(d, mu); got != tc.want {
				t.Errorf("%s with %s pinned to %v: %s Eval = %v, want %v", tc.expr, tc.v, tc.pin, name, got, tc.want)
			}
		}
	}
}

// TestPinnedEvalEntersNodesOnce: a pin no branch meets makes the DFS
// try every branch, and x{a*} alone has hundreds of them, but a node
// that failed once is not entered again: on both paths the DFS enters
// at most the DAG's nodes.
func TestPinnedEvalEntersNodesOnce(t *testing.T) {
	a := va.FromRGX(rgx.MustParse(`a*x{a*}a*(y{b}|c)`))
	dfa, nodfa := NewEngine(a), NewEngine(a)
	nodfa.ForceNoDFA()
	d := span.NewDocument(strings.Repeat("a", 30) + "c")
	mu := span.Extended{"y": {Span: span.Sp(31, 32)}} // y needs a b there
	defer func() { testHookWalkDone = nil }()
	for name, e := range map[string]*Engine{"dfa": dfa, "nodfa": nodfa} {
		branches := e.Count(d)
		entered, nodes := -1, 0
		testHookWalkDone = func(w *seqWalk) { entered, nodes = w.entered, len(w.nodes) }
		got := e.Eval(d, mu)
		testHookWalkDone = nil
		if got || entered < 0 || entered > nodes || nodes >= branches {
			t.Errorf("%s: Eval = %v entering %d of %d DAG nodes, %d branches; want false, each node at most once, fewer nodes than branches",
				name, got, entered, nodes, branches)
		}
	}
}

// TestDifferentialBoundaryMemo checks the enumeration and counting
// walks, which resolve DAG nodes through the boundary choices cached on
// DFA states, against the bitset and interpreted paths, and that a
// permanently flushing DFA cache stays sound underneath the choices.
func TestDifferentialBoundaryMemo(t *testing.T) {
	for _, tc := range workloadCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			a := va.FromRGX(rgx.MustParse(tc.expr))
			engs := ladderEngines(a)
			tinydfa := NewEngine(a)
			if p := tinydfa.Program(); p != nil {
				tinydfa.UseDFA(program.NewDFA(p, 3))
			}
			engs["tinydfa"] = tinydfa

			d := span.NewDocument(tc.doc)
			want := engs["interpreted"].All(d)
			wantCount := engs["interpreted"].Count(d)
			for name, eng := range engs {
				if got := eng.All(d); !got.Equal(want) {
					t.Fatalf("%s mapping set: %d vs %d", name, got.Len(), want.Len())
				}
				if got := eng.Count(d); got != wantCount {
					t.Fatalf("%s Count = %d, oracle %d", name, got, wantCount)
				}
			}
		})
	}
}

// TestChoicesAcrossMidWalkDFAFlush walks with an 8-state DFA budget, so
// the cache flushes again and again inside every sweep: frontiers and
// the choices cached on them outlive their generation, and choice
// targets and raw steps intern into later ones. The walk must stay on
// the DFA path (a document shorter than program.FlushCheckInterval
// never falls back) and emit what the bitset walk emits, in the same
// order, with the same count.
func TestChoicesAcrossMidWalkDFAFlush(t *testing.T) {
	defer func() { testHookWalkDone = nil }()
	for _, tc := range workloadCorpus() {
		a := va.FromRGX(rgx.MustParse(tc.expr))
		eng := NewEngine(a)
		dfa := program.NewDFA(eng.Program(), 8)
		eng.UseDFA(dfa)
		ref := NewEngine(a)
		ref.ForceNoDFA()

		d := span.NewDocument(tc.doc)
		if d.Len() >= program.FlushCheckInterval {
			t.Fatalf("%s: %d runes reach the flush check", tc.name, d.Len())
		}
		want := collectTuples(func(yield func([]span.Span) bool) { ref.EnumerateTuples(d, nil, yield) })
		for pass := 0; pass < 3; pass++ {
			nodes, offDFA := 0, 0
			testHookWalkDone = func(w *seqWalk) {
				nodes += len(w.nodes)
				if w.co == nil || !w.dfa {
					offDFA++
				}
			}
			before := dfa.Stats().Flushes
			got := collectTuples(func(yield func([]span.Span) bool) { eng.EnumerateTuples(d, nil, yield) })
			testHookWalkDone = nil
			if flushes := dfa.Stats().Flushes - before; flushes < 2 || nodes == 0 || offDFA > 0 {
				t.Fatalf("%s pass %d: %d flushes over %d DAG nodes, %d walks off the DFA path; want a flush mid-walk on the DFA path",
					tc.name, pass, flushes, nodes, offDFA)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s pass %d: %d spans, the bitset walk %d, or a different order", tc.name, pass, len(got), len(want))
			}
			if n, m := eng.Count(d), ref.Count(d); n != m {
				t.Fatalf("%s pass %d: Count %d, the bitset walk %d", tc.name, pass, n, m)
			}
		}
	}
}
