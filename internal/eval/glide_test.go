package eval

import (
	"slices"
	"strings"
	"testing"

	"spanners/internal/naive"
	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// glideCases are queries and documents on whose sweeps layers of two
// or more frontiers glide: two branches that fired different
// operations both still complete, so both stay live over the letters
// up to their next operation. The last case's walk ends before it
// starts. Every document is longer than lazyPruneEvery, so some glides
// reach a lazy prune point.
func glideCases() []struct{ name, expr, doc string } {
	run := func(mid string, n int, tail string) string {
		return "a" + strings.Repeat(mid, n) + tail
	}
	return []struct{ name, expr, doc string }{
		// x's branch reads four b's before the shared b*, y's one: the
		// two frontiers merge three letters into the glide.
		{"merge", `.*(x{a}bbbb|y{a}b)b*z{c}.*`, run("b", 66, "c")},
		// The same merge over a non-ASCII letter, which no loop covers.
		{"merge-nonascii", `.*(x{a}éééé|y{a}é)é*z{c}.*`, run("é", 66, "c")},
		// Two frontiers that never merge: x's alternates over (bb)*,
		// y's loops on b, so only x's steps on each b.
		{"parity", `(x{a}(bb)*|y{a}b*)z{c}`, run("b", 66, "c")},
		// Over the b's the co-reach state stays the same while x's
		// frontier cycles through three states and z's through two;
		// each fires only on its own multiples, so a frontier that
		// changed state must be tested against unchanged firers.
		{"phase", `(a(bbb)*x{}|a(bb)*z{})b*y{c}`, run("b", 66, "c")},
		// ASCII letters the layer loops on, between non-ASCII ones.
		{"mixed", `.*(x{a}[^c]*|y{a}[^c]*d)z{c}.*`, run("bé", 33, "dc")},
		{"dot", `.*(x{a}.*|y{a}.*d)z{c}.*`, run("bé", 33, "dc")},
		// A letter outside the alphabet empties the co-reach before it.
		{"out-of-alphabet", `[a-c]*x{a}[a-c]*y{c}[a-c]*`, run("b", 64, "zbbc")},
	}
}

// TestMultiFrontierGlideDifferential: layers of several frontiers
// glide, merge and cross lazy prune points, and the walk still emits
// what the bitset walk emits, in its order, counts as many, and emits
// the mappings of the reference semantics. Each DFA engine runs every
// case twice: cold, and warm on the loops the first pass learned. One
// DFA has a 3-state budget, so it flushes while layers hold states of
// the generation before.
func TestMultiFrontierGlideDifferential(t *testing.T) {
	for _, c := range glideCases() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // the reference semantics takes most of a second
			n := rgx.MustParse(c.expr)
			d := span.NewDocument(c.doc)
			if d.Len() <= lazyPruneEvery {
				t.Fatalf("%d-rune document does not reach a lazy prune point", d.Len())
			}
			ref := CompileRGX(n)
			ref.ForceNoDFA()
			want := fuzzKeys(ref, d)
			// The reference semantics is pure and runs on one goroutine, so
			// the race detector only makes it slower, by about ten times.
			if !raceEnabled {
				if set := naive.Eval(n, d); !ref.All(d).Equal(set) || set.Len() != len(want) {
					t.Fatalf("bitset walk: %d mappings, not the reference's %d", len(want), set.Len())
				}
			}
			if c.name != "out-of-alphabet" && len(want) == 0 {
				t.Fatal("no mappings: the case tests nothing")
			}
			cold := CompileRGX(n)
			tiny := CompileRGX(n)
			tiny.UseDFA(program.NewDFA(tiny.prog, 3))
			for name, e := range map[string]*Engine{"dfa": cold, "tiny": tiny} {
				for _, pass := range []string{"cold", "warm"} {
					if got := fuzzKeys(e, d); !slices.Equal(got, want) {
						t.Fatalf("%s, %s: %d mappings %v, bitset walk %d %v", name, pass, len(got), got, len(want), want)
					}
					if got := e.Count(d); got != len(want) {
						t.Fatalf("%s, %s: Count %d, want %d", name, pass, got, len(want))
					}
				}
			}
			if st := tiny.dfa.Stats(); st.Flushes == 0 {
				t.Errorf("the 3-state budget never flushed: %+v", st)
			}
		})
	}
}

// TestMultiFrontierGlideWindow: a session window re-walk that ends at
// a cut glides its layers up to the cut, and emits the whole
// document's mappings whose operations lie in the window, cold and
// warm.
func TestMultiFrontierGlideWindow(t *testing.T) {
	n := rgx.MustParse(weblogStreamExpr)
	d := webLogDoc(24, 3)
	oracle := CompileRGX(n)
	oracle.ForceInterpreted()
	full := collectTuples(func(yield func([]span.Span) bool) { oracle.EnumerateTuples(d, nil, yield) })
	e := CompileRGX(n)
	width := len(e.Columns())
	cuts := sessionCuts(t, e, d)
	for _, w := range [][2]int{{0, len(cuts) - 1}, {1, 3}, {2, len(cuts) - 2}} {
		a, b := cuts[w[0]], cuts[w[1]]
		want := inWindow(full, width, a.pos, b.pos)
		if len(want) == 0 {
			t.Fatalf("window [%d,%d) holds no mapping", a.pos, b.pos)
		}
		for _, pass := range []string{"cold", "warm"} {
			got := nonEmpty(collectTuples(func(yield func([]span.Span) bool) {
				e.newSeqWalk(d, a.pos, b.pos, b.b0).run(a.f0, yield)
			}), width)
			if !slices.Equal(got, want) {
				t.Fatalf("window [%d,%d), %s: %d spans, want %d", a.pos, b.pos, pass, len(got), len(want))
			}
		}
	}
}

// TestGlideMatchesStepwise drives glide directly on layers no sweep
// builds, because every frontier a sweep carries keeps a co-reachable
// state and so survives every letter up to its next prune point. Here
// one frontier dies inside the glide, two merge, and a letter outside
// the alphabet ends it. glide must leave the layer, the boundary and
// the pending edges that stepping every frontier on every letter
// gives: the per-letter drift it replaced.
func TestGlideMatchesStepwise(t *testing.T) {
	// From boundary 2, after the leading 'a', x's and y's branches read
	// on into one [bé]* (x's three letters later), and z's waits in its
	// own [bé]* for d.
	e := CompileRGX(rgx.MustParse(`a(x{}bbb|y{}b)[bé]*c|a(z{}[bé]*d)`))
	p := e.prog
	for _, c := range []struct {
		name, doc string
		frontiers int // left at the end; 0: the glide dies
	}{
		{"merge", "abbbbbbb", 2},   // x's frontier merges into y's
		{"die", "abbbbbc", 1},      // z's frontier dies at c
		{"nonascii", "abbébbb", 2}, // x's frontier dies at é, which no loop covers
		{"outside", "abbbzbbb", 0}, // z is outside the alphabet
	} {
		t.Run(c.name, func(t *testing.T) {
			d := span.NewDocument(c.doc)
			w := e.newSeqWalk(d, 1, d.Len()+1, nil)
			defer w.done()
			// The frontiers of the three branches at boundary 3, each
			// reached by one pending edge. No document matches, so the
			// co-reach is empty and no boundary stops the glide early.
			var fs []program.Bits
			for _, ch := range e.choices(e.dfa.State(letterStep(p, e.start, 'a'))) {
				if f := letterStep(p, ch.To.Frontier(), 'b'); f.Any() {
					fs = append(fs, f)
				}
			}
			if len(fs) != 3 {
				t.Fatalf("%d branches, want 3", len(fs))
			}
			stop := d.Len() + 1
			// Stepwise: every frontier takes its step on every letter.
			want, heads := fs, [][]int{{0}, {1}, {2}}
			for pos := 3; pos < stop && len(want) > 0; pos++ {
				var nw []program.Bits
				var nh [][]int
				for i, f := range want {
					g := letterStep(p, f, d.RuneAt(pos))
					if !g.Any() {
						continue
					}
					if j := slices.IndexFunc(nw, func(h program.Bits) bool { return bitsEq(h, g) }); j >= 0 {
						nh[j] = append(nh[j], heads[i]...)
						continue
					}
					nw, nh = append(nw, g), append(nh, heads[i])
				}
				want, heads = nw, nh
			}
			if len(want) != c.frontiers {
				t.Fatalf("stepwise: %d frontiers, want %d", len(want), c.frontiers)
			}
			l := &w.layers[0]
			for range 2 { // the second glide replays the glide row the first filled
				l.fs, w.edges = l.fs[:0], w.edges[:0]
				var states []*program.DState
				for i, f := range fs {
					w.edges = append(w.edges, dagEdge{to: toPending, next: -1})
					l.fs = append(l.fs, liveFrontier{head: int32(i), tail: int32(i)})
					states = append(states, e.dfa.State(f))
				}
				l.layer, _ = e.dfa.Layer(states, false, nil)
				at, fired := w.glide(l, 3, stop)
				if alive := len(l.fs) > 0; alive != (len(want) > 0) {
					t.Fatalf("glide alive=%v at %d, stepwise %d frontiers", alive, at, len(want))
				}
				if len(l.fs) == 0 {
					continue
				}
				if at != stop || fired {
					t.Fatalf("glide stopped at %d (fired %v), want %d", at, fired, stop)
				}
				if got := layerSets(l); !slices.EqualFunc(got, want, bitsEq) {
					t.Fatalf("glide left %d frontiers, stepwise %d", len(got), len(want))
				}
				for i := range l.fs {
					var got []int
					for e := l.fs[i].head; e >= 0; e = w.edges[e].next {
						got = append(got, int(e))
					}
					if !slices.Equal(got, heads[i]) {
						t.Fatalf("frontier %d is reached by edges %v, want %v", i, got, heads[i])
					}
				}
			}
		})
	}
}

// layerSets returns the frontiers of a layer on the memo path.
func layerSets(l *sweepLayer) []program.Bits {
	var out []program.Bits
	for _, s := range l.layer.States() {
		out = append(out, s.Frontier())
	}
	return out
}

// letterStep returns the raw step of f across the letter r: empty when
// r is outside the program's alphabet.
func letterStep(p *program.Program, f program.Bits, r rune) program.Bits {
	g := program.NewBits(p.NumStates)
	if c := p.ClassOf(r); c >= 0 {
		p.LetterStep(f, c, g)
	}
	return g
}

// TestMultiFrontierGlideFallback: on a 3-state DFA budget the forward
// sweep of a long document flushes the cache past its limit and falls
// back to bitsets in the middle, out of layers that were gliding; the
// walk still emits what the bitset walk emits, in its order. Both
// sweeps test for a flush storm every program.FlushCheckInterval
// boundaries: the reverse one at multiples of it, the forward one that
// many boundaries after its start. Log lines fill the document up to
// near the interval, and the referer of one more line spans it: the
// reverse sweep reaches its test over that run, on which its state
// returns itself and it flushes little, and the forward sweep reaches
// its own at a lazy prune point inside it.
func TestMultiFrontierGlideFallback(t *testing.T) {
	n := rgx.MustParse(weblogStreamExpr)
	var text strings.Builder
	for _, line := range strings.SplitAfter(webLogDoc(40, 5).Text(), "\n") {
		if text.Len()+len(line) > program.FlushCheckInterval-64 {
			break
		}
		text.WriteString(line)
	}
	text.WriteString(`10.0.0.1 GET /x 200 5 "c" ref=/` + strings.Repeat("a", 256) + "\n")
	d := span.NewDocument(text.String())
	ref := CompileRGX(n)
	ref.ForceNoDFA()
	want := fuzzKeys(ref, d)
	tiny := CompileRGX(n)
	tiny.UseDFA(program.NewDFA(tiny.prog, 3))
	midSweep := 0
	testHookWalkDone = func(w *seqWalk) {
		if w.co != nil && !w.dfa {
			midSweep++
		}
	}
	defer func() { testHookWalkDone = nil }()
	for _, pass := range []string{"cold", "warm"} {
		if got := fuzzKeys(tiny, d); !slices.Equal(got, want) {
			t.Fatalf("%s: %d mappings, bitset walk %d", pass, len(got), len(want))
		}
		if got := tiny.Count(d); got != len(want) {
			t.Fatalf("%s: Count %d, want %d", pass, got, len(want))
		}
	}
	if midSweep == 0 {
		t.Errorf("no walk fell back to bitsets mid-sweep: %+v", tiny.dfa.Stats())
	}
}
