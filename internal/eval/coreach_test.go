package eval

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// coReachSweep is one co-reach sweep over the boundaries lo..hi of d,
// from seed at hi (nil: the document end).
type coReachSweep struct {
	d      *span.Document
	lo, hi int
	seed   program.Bits
}

// wholeDocs returns a sweep over every boundary of each document.
func wholeDocs(docs ...*span.Document) []coReachSweep {
	out := make([]coReachSweep, len(docs))
	for i, d := range docs {
		out[i] = coReachSweep{d: d, lo: 1, hi: d.Len() + 1}
	}
	return out
}

// wideWord is 40 distinct letters.
const wideWord = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN"

// TestBackwardFrontiersMatchesRaw: the DFA's co-reach sweep, one load
// from the reverse row per ASCII byte, holds at every boundary the
// frontier the bitset sweep (coReachRaw) computes: on the workload
// shapes and the gazetteer, on a non-ASCII document, across a letter
// outside the alphabet, on classes past the row's width, from a
// session cut's seed, and on a 3-state budget that flushes under the
// sweep, where a document that crosses a flush check falls back. Two
// goroutines sweep through one cold DFA at once, so both fill the same
// rows; -race watches them.
func TestBackwardFrontiersMatchesRaw(t *testing.T) {
	type coCase struct {
		name, expr string
		budget     int // 0: the default
		sweeps     func(e *Engine) []coReachSweep
		fallback   bool // the budget makes some sweep abandon the DFA
	}
	var cases []coCase
	for _, sh := range append(workloadShapes(), gazetteerShape()) {
		cases = append(cases, coCase{name: sh.name, expr: sh.expr, sweeps: func(*Engine) []coReachSweep { return wholeDocs(sh.docs...) }})
	}
	nonASCII := span.NewDocument(strings.ReplaceAll(webLogDoc(24, 2).Text(), "ref=/", "ref=/é"))
	if nonASCII.ASCIIText() != "" {
		t.Fatal("the non-ASCII document reads as ASCII")
	}
	cases = append(cases,
		coCase{name: "non-ascii", expr: weblogStreamExpr, sweeps: func(*Engine) []coReachSweep { return wholeDocs(nonASCII) }},
		coCase{name: "out-of-alphabet", expr: `[a-c]*x{a}[a-c]*y{c}[a-c]*`, sweeps: func(*Engine) []coReachSweep {
			return wholeDocs(span.NewDocument("a"+strings.Repeat("b", 64)+"zbbc"), span.NewDocument("ab"+strings.Repeat("bc", 40)))
		}},
		// Every letter of the word is a class of its own, more than a
		// state's reverse row has slots for. The word ends the document,
		// so the sweep meets it first; each line before it is a tail of
		// the word behind a letter other than the one the word has
		// there, so the state a tail leads to steps on every class.
		coCase{name: "wide-alphabet", expr: `.*x{` + wideWord + `}.*`, sweeps: func(e *Engine) []coReachSweep {
			if e.prog.NumClasses <= 32 {
				t.Fatalf("%d classes: the row covers them all", e.prog.NumClasses)
			}
			var text strings.Builder
			for i := range len(wideWord) {
				for j := range len(wideWord) {
					if j != i {
						text.WriteString(wideWord[j:j+1] + wideWord[i+1:] + "\n")
					}
				}
			}
			text.WriteString(wideWord + "\n")
			return wholeDocs(span.NewDocument(text.String()))
		}},
		coCase{name: "session-cut", expr: weblogStreamExpr, sweeps: func(e *Engine) []coReachSweep {
			d := webLogDoc(24, 3)
			cuts := sessionCuts(t, e, d)
			a, b := cuts[1], cuts[len(cuts)-2]
			return []coReachSweep{{d: d, lo: a.pos, hi: b.pos, seed: b.b0}}
		}},
		// The short log flushes the cache at almost every boundary but
		// crosses no flush check; the long one crosses several.
		coCase{name: "budget-3", expr: weblogStreamExpr, budget: 3, fallback: true, sweeps: func(*Engine) []coReachSweep {
			return wholeDocs(webLogDoc(8, 4), webLogDoc(96, 4))
		}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := CompileRGX(rgx.MustParse(c.expr))
			sweeps := c.sweeps(e)
			want := make([][]program.Bits, len(sweeps))
			for i, sw := range sweeps {
				seed := sw.seed
				if seed == nil {
					seed = e.coFinal
				}
				var b coBufs
				want[i] = b.coReachRaw(e, sw.d, sw.lo, sw.hi, seed)
			}
			budget := c.budget
			if budget == 0 {
				budget = program.DefaultDFABudget
			}
			e.UseDFA(program.NewDFA(e.prog, budget)) // cold: the cuts warmed the shared one
			var wg sync.WaitGroup
			var compared atomic.Int32
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, sw := range sweeps {
						var seed *program.DState
						if sw.seed != nil {
							seed = e.dfa.State(sw.seed)
						}
						out, ok := e.dfa.BackwardFrontiers(sw.d, sw.lo, sw.hi, seed, nil)
						if !ok {
							continue
						}
						for pos := sw.lo; pos <= sw.hi; pos++ {
							if got := out[pos-sw.lo].Frontier(); !bitsEq(got, want[i][pos-sw.lo]) {
								t.Errorf("sweep %d, boundary %d of %d..%d: co-reach %v, the bitset sweep's %v", i, pos, sw.lo, sw.hi, got, want[i][pos-sw.lo])
								return
							}
						}
						compared.Add(1)
					}
				}()
			}
			wg.Wait()
			st, n := e.dfa.Stats(), int(compared.Load())
			if n == 0 {
				t.Fatalf("no sweep finished on the DFA: %+v", st)
			}
			if c.fallback && (st.Fallbacks == 0 || n == 2*len(sweeps)) {
				t.Errorf("no sweep fell back: %d of %d compared, %+v", n, 2*len(sweeps), st)
			}
			if !c.fallback && st.Fallbacks > 0 {
				t.Errorf("a sweep fell back: %+v", st)
			}
		})
	}
}

// BenchmarkCoReach times the co-reach sweep alone, warm: one
// DFA.BackwardFrontiers from the document end per document of the
// shape. ns/byte is per byte of document text.
func BenchmarkCoReach(b *testing.B) {
	for _, sh := range workloadShapes() {
		e := CompileRGX(rgx.MustParse(sh.expr))
		bytes := 0
		for _, d := range sh.docs {
			bytes += len(d.Text())
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var out []*program.DState
			for range b.N {
				for _, d := range sh.docs {
					var ok bool
					if out, ok = e.dfa.BackwardFrontiers(d, 1, d.Len()+1, nil, out); !ok {
						b.Fatal("the sweep abandoned the DFA")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bytes), "ns/byte")
		})
	}
}
