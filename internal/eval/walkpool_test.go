package eval

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// sessionCuts returns the crossing-free snapshots of a session over d
// (spacing 64): the boundaries a splice can re-walk a window between,
// starting from the letters-only frontier f0 at one and completing
// letters-only through the cached b0 at another.
func sessionCuts(t testing.TB, e *Engine, d *span.Document) []incSnap {
	t.Helper()
	var cuts []incSnap
	for _, sn := range newIncremental(e, d, 64).snaps {
		if !sn.f1.Intersects(sn.b1) {
			cuts = append(cuts, sn)
		}
	}
	if len(cuts) < 4 {
		t.Fatalf("%d-rune document has %d crossing-free snapshots", d.Len(), len(cuts))
	}
	return cuts
}

// TestWalkSetupAllocs: once its buffers have grown, a walk allocates
// nothing per document — not its co-reach, not its scratch, not the
// walk itself — whether it enumerates, counts or re-walks a session
// window, with the DFA on or off.
func TestWalkSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	for _, dfa := range []bool{true, false} {
		for _, c := range []struct {
			name, expr string
			d          *span.Document
		}{
			{"weblog/24", weblogStreamExpr, webLogDoc(24, 1)},
			{"weblog/384", weblogStreamExpr, webLogDoc(384, 1)},
			{"sparse", sparseScanExpr, sparseLog(500, 3, 1)},
		} {
			e := CompileRGX(rgx.MustParse(c.expr))
			if !dfa {
				e.ForceNoDFA()
			}
			cuts := sessionCuts(t, e, c.d)
			a, b := cuts[0], cuts[len(cuts)-1]
			for op, f := range map[string]func(){
				"EnumerateTuples": func() { e.EnumerateTuples(c.d, nil, func([]span.Span) bool { return true }) },
				"Count":           func() { e.Count(c.d) },
				"window": func() {
					e.newSeqWalk(c.d, a.pos, b.pos, b.b0).run(a.f0, func([]span.Span) bool { return true })
				},
			} {
				f()
				if n := testing.AllocsPerRun(10, f); n != 0 {
					t.Errorf("%s, dfa=%v, %s: %v allocations per walk, want 0", c.name, dfa, op, n)
				}
			}
		}
	}
}

// poolReuseWideExpr compiles to more than 64 states, two bitset words
// where the other programs of TestWalkPoolReuse have one.
const poolReuseWideExpr = `.*(\n|())m{GET|POST|PUT|DELETE|PATCH|OPTIONS|CONNECT|TRACE} (p{/[a-z]*[^ ]*}) (st{\d\d\d}) (b{\d*}) "a{[^"]*}"( ref=(r{[^\n]*})|)\n.*`

// TestWalkPoolReuse: pooled walks carry nothing from one walk to the
// next. Goroutines interleave whole-document enumerations and counts
// and session-window walks over a two-word program, a one-word one and
// the two-word one on a 3-state DFA budget, which abandons the DFA
// mid-sweep, and enumerate the weblog_stream and batch_rows shapes on
// engines that start cold. Windows step the reverse DFA from their
// interned seed into the pooled co-reach, so a walk handed the buffers
// of the last one sees its co-reach in the same slots. Every result
// must equal the interpreted enumerator's, which shares no storage
// with the walk: a window's results are the full results whose
// operations all lie in it.
func TestWalkPoolReuse(t *testing.T) {
	wide := CompileRGX(rgx.MustParse(poolReuseWideExpr))
	if wide.prog.NumStates <= 64 {
		t.Fatalf("wide program has %d states, want more than 64", wide.prog.NumStates)
	}
	thrash := CompileRGX(rgx.MustParse(poolReuseWideExpr))
	thrash.UseDFA(program.NewDFA(thrash.prog, 3))
	small := CompileRGX(rgx.MustParse(`.*(\n|())st{\d\d\d} .*`))
	docs := []*span.Document{webLogDoc(40, 1), webLogDoc(64, 2)}

	type job struct {
		name string
		run  func() []span.Span
		want []span.Span
	}
	var jobs []job
	for name, e := range map[string]*Engine{"wide": wide, "thrash": thrash, "small": small} {
		oracle := CompileRGX(rgx.MustParse(poolReuseWideExpr))
		if e == small {
			oracle = CompileRGX(rgx.MustParse(`.*(\n|())st{\d\d\d} .*`))
		}
		oracle.ForceInterpreted()
		for di, d := range docs {
			full := collectTuples(func(yield func([]span.Span) bool) { oracle.EnumerateTuples(d, nil, yield) })
			width := len(e.Columns())
			tag := fmt.Sprintf("%s/doc%d", name, di)
			jobs = append(jobs,
				job{tag + "/enumerate", func() []span.Span {
					return collectTuples(func(yield func([]span.Span) bool) { e.EnumerateTuples(d, nil, yield) })
				}, full},
				job{tag + "/count", func() []span.Span {
					return []span.Span{{Start: e.Count(d)}}
				}, []span.Span{{Start: len(full) / width}}},
			)
			cuts := sessionCuts(t, e, d)
			for _, w := range [][2]int{{0, len(cuts) - 1}, {1, len(cuts) - 2}, {1, 2}, {2, -1}} {
				a := cuts[w[0]]
				hi, seed, end := d.Len()+1, program.Bits(nil), d.Len()+2
				if w[1] >= 0 {
					hi, seed = cuts[w[1]].pos, cuts[w[1]].b0
					end = hi
				}
				jobs = append(jobs, job{fmt.Sprintf("%s/window[%d,%d)", tag, a.pos, hi), func() []span.Span {
					return nonEmpty(collectTuples(func(yield func([]span.Span) bool) {
						e.newSeqWalk(d, a.pos, hi, seed).run(a.f0, yield)
					}), width)
				}, inWindow(full, width, a.pos, end)})
			}
		}
	}

	// The weblog_stream and batch_rows shapes on one cold engine each,
	// which the goroutines below share: their layers glide on loops
	// that other goroutines learn on the same states at the same time.
	for _, sh := range workloadShapes() {
		if sh.name != "weblog_stream" && sh.name != "batch_rows" {
			continue
		}
		e, oracle := CompileRGX(rgx.MustParse(sh.expr)), CompileRGX(rgx.MustParse(sh.expr))
		oracle.ForceInterpreted()
		docs := sh.docs[:min(len(sh.docs), 8)]
		all := func(e *Engine) []span.Span {
			return collectTuples(func(yield func([]span.Span) bool) {
				for _, d := range docs {
					e.EnumerateTuples(d, nil, yield)
				}
			})
		}
		jobs = append(jobs, job{sh.name + "/cold-shared", func() []span.Span { return all(e) }, all(oracle)})
	}

	// Back to back on one goroutine the pool usually hands the last walk
	// to the next one. Here the second walk's first node, boundary 7 of
	// y, reads the co-reach slot where the first walk's last node,
	// boundary 6 of x, read another co-reach: a walk that reads the
	// first walk's co-reach there finds no choice at boundary 7.
	x, y := span.NewDocument("x 123 yyyyyyyy z"), span.NewDocument("ab cd 789 e")
	xs, ys := newIncremental(small, x, 1), newIncremental(small, y, 1)
	for i := 0; i < 8; i++ {
		for _, c := range []struct {
			d      *span.Document
			lo, hi int
			start  program.Bits
			seed   program.Bits
			want   span.Span
		}{
			{x, 1, 14, small.start, snapAt(t, xs, 14).b0, span.Sp(3, 6)},
			{y, 2, 11, snapAt(t, ys, 2).f0, snapAt(t, ys, 11).b0, span.Sp(7, 10)},
		} {
			got := collectTuples(func(yield func([]span.Span) bool) {
				small.newSeqWalk(c.d, c.lo, c.hi, c.seed).run(c.start, yield)
			})
			if !slices.Equal(got, []span.Span{c.want}) {
				t.Fatalf("window [%d,%d) of %q: %v, want [%v]", c.lo, c.hi, c.d.Text(), got, c.want)
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				for k := range jobs {
					j := jobs[(k*7+g*5+it)%len(jobs)]
					if got := j.run(); !slices.Equal(got, j.want) {
						t.Errorf("goroutine %d, %s: %d spans, want %d", g, j.name, len(got), len(j.want))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := thrash.dfa.Stats(); st.Fallbacks == 0 {
		t.Errorf("the 3-state DFA budget never made a sweep fall back: %+v", st)
	}
}

// snapAt returns a session's snapshot at boundary pos.
func snapAt(t *testing.T, s *IncState, pos int) incSnap {
	t.Helper()
	for _, sn := range s.snaps {
		if sn.pos == pos {
			return sn
		}
	}
	t.Fatalf("no snapshot at boundary %d", pos)
	return incSnap{}
}

// collectTuples flattens the tuples walk yields into one slice.
func collectTuples(walk func(yield func([]span.Span) bool)) []span.Span {
	var out []span.Span
	walk(func(t []span.Span) bool {
		out = append(out, t...)
		return true
	})
	return out
}

// nonEmpty drops the empty mapping from a flattened tuple list.
func nonEmpty(flat []span.Span, width int) []span.Span {
	var out []span.Span
	for i := 0; i < len(flat); i += width {
		if t := flat[i : i+width]; slices.ContainsFunc(t, func(sp span.Span) bool { return sp != (span.Span{}) }) {
			out = append(out, t...)
		}
	}
	return out
}

// inWindow keeps the nonempty mappings of a flattened tuple list whose
// operations all lie at boundaries lo..hi-1.
func inWindow(flat []span.Span, width, lo, hi int) []span.Span {
	var out []span.Span
	for sp := range slices.Chunk(nonEmpty(flat, width), width) {
		in := true
		for _, s := range sp {
			if s != (span.Span{}) && (s.Start < lo || s.End >= hi) {
				in = false
			}
		}
		if in {
			out = append(out, sp...)
		}
	}
	return out
}
