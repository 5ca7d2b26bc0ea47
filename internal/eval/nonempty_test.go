package eval

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"spanners/internal/naive"
	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// nonEmptyFill repeats a line in which no "a" precedes two digits, so
// it holds no match of nonEmptyMatch. Its co-reach frontiers change at
// every letter, which makes a 3-state cache flush at almost every step.
func nonEmptyFill(n int) string { return strings.Repeat("b12", n/3+1)[:n] }

// nonEmptyMatch is the one match planted in a windowed-sweep document.
const nonEmptyMatch = "a12"

// windowDocs returns documents of n runes with the only match at the
// start (in the window the reverse sweep reaches last), at the end (in
// the window it reaches first), or nowhere, and the same three with a
// "z" at the other end of the document.
func windowDocs(n int) map[string]string {
	fill := nonEmptyFill(n - len(nonEmptyMatch))
	docs := map[string]string{
		"start": nonEmptyMatch + fill,
		"end":   fill + nonEmptyMatch,
		"none":  nonEmptyFill(n),
	}
	docs["start/z"] = docs["start"][:n-1] + "z"
	docs["end/z"] = "z" + docs["end"][1:]
	docs["none/z"] = docs["none"][:n-1] + "z"
	return docs
}

// TestNonEmptyWindows: NonEmpty's reverse sweep runs in windows of
// FlushCheckInterval letters from the document end, each seeded with
// the previous window's first state, and stops where the co-reach dies.
// On documents one letter short of, at, and one past a window, and
// three windows long, with the only match at either end or nowhere, the
// DFA, the bitset loop (ForceNoDFA) and a 3-state cache that thrashes
// across windows all give internal/naive's answer. A "z" at the other
// end kills the co-reach of the second expression, so its sweep stops
// in the first window or at boundary 1.
func TestNonEmptyWindows(t *testing.T) {
	if program.FlushCheckInterval != 1024 {
		t.Fatalf("FlushCheckInterval is %d; the document lengths straddle 1024", program.FlushCheckInterval)
	}
	match := rgx.MustParse(`x{a\d\d}`)
	exprs := map[string]bool{ // expression → whether a "z" kills it
		`.*x{a\d\d}.*`:       false,
		`[^z]*x{a\d\d}[^z]*`: true,
	}
	for expr, zKills := range exprs {
		a := rgx.MustParse(expr)
		dfa, nodfa, tiny := CompileRGX(a), CompileRGX(a), CompileRGX(a)
		nodfa.ForceNoDFA()
		tiny.UseDFA(program.NewDFA(tiny.prog, 3))
		for _, n := range []int{1023, 1024, 1025, 3000} {
			for name, text := range windowDocs(n) {
				d := span.NewDocument(text)
				if d.Len() != n {
					t.Fatalf("%s: %d runes, want %d", name, d.Len(), n)
				}
				want := naive.EvalAnywhere(match, d).Len() > 0 && !(zKills && strings.Contains(text, "z"))
				for engName, e := range map[string]*Engine{"dfa": dfa, "nodfa": nodfa, "tiny": tiny} {
					if got := e.NonEmpty(d); got != want {
						t.Errorf("%s on %d runes, match %s, %s: NonEmpty = %v, want %v", expr, n, name, engName, got, want)
					}
				}
			}
		}
		if st, _ := tiny.DFAStats(); st.Fallbacks == 0 {
			t.Errorf("%s: the 3-state cache never fell back: %+v", expr, st)
		}
		if st, _ := dfa.DFAStats(); st.Fallbacks != 0 {
			t.Errorf("%s: the shared cache fell back: %+v", expr, st)
		}
	}
}

// TestNonEmptyConcurrent: goroutines answering NonEmpty through one
// engine share its cold DFA and the walk pool; -race watches them.
func TestNonEmptyConcurrent(t *testing.T) {
	a := rgx.MustParse(`.*x{a\d\d}.*`)
	e, nodfa := CompileRGX(a), CompileRGX(a)
	nodfa.ForceNoDFA()
	var docs []*span.Document
	var want []bool
	for _, text := range windowDocs(3000) {
		d := span.NewDocument(text)
		docs, want = append(docs, d), append(want, nodfa.NonEmpty(d))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * len(docs) {
				k := (g + i) % len(docs)
				if got := e.NonEmpty(docs[k]); got != want[k] {
					t.Errorf("goroutine %d: NonEmpty = %v, want %v", g, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNonEmptyStopsWhereCoReachDies: a letter no run can read kills
// the co-reach, and the sweep ends with the window it dies in: a "z"
// at the end of 3 000 runes costs NonEmpty one window of lookups.
func TestNonEmptyStopsWhereCoReachDies(t *testing.T) {
	e := CompileRGX(rgx.MustParse(`[^z]*x{a\d\d}[^z]*`))
	dfa := program.NewDFA(e.prog, 4096)
	e.UseDFA(dfa)
	d := span.NewDocument(windowDocs(3000)["start/z"])
	if e.NonEmpty(d) {
		t.Fatal("NonEmpty is true on a document that holds a z")
	}
	if st := dfa.Stats(); st.Hits+st.Misses > program.FlushCheckInterval {
		t.Fatalf("%d lookups on %d runes, want at most one window's %d", st.Hits+st.Misses, d.Len(), program.FlushCheckInterval)
	}
}

// TestNonEmptyFlushesCountAcrossWindows: a 3-state cache that flushes
// a few times in each window, never more than MaxFlushesPerSweep in one
// but more over the sweep, makes NonEmpty fall back to the bitset loop,
// and the answer stays right. The "b12" bursts sit after each window's
// own flush check, so only the count kept across windows sees them.
func TestNonEmptyFlushesCountAcrossWindows(t *testing.T) {
	text := []byte(strings.Repeat("1 ", 1500))
	copy(text[2000:], "b12")
	copy(text[980:], "b12")
	d := span.NewDocument(string(text))
	a := rgx.MustParse(`.*x{a\d\d}.*`)

	// The premise: swept window by window, each window alone stays
	// under the limit, and the sweep as a whole does not.
	probe := CompileRGX(a)
	dfa := program.NewDFA(probe.prog, 3)
	var s *program.DState
	for hi := d.Len() + 1; hi > 1; {
		lo := max(1, hi-program.FlushCheckInterval)
		f0 := dfa.Flushes()
		out, ok := dfa.BackwardFrontiers(d, lo, hi, s, nil)
		if !ok || dfa.Flushes()-f0 > program.MaxFlushesPerSweep {
			t.Fatalf("the window [%d, %d] alone flushes %d times (ok=%v)", lo, hi, dfa.Flushes()-f0, ok)
		}
		s, hi = out[0], lo
	}
	if dfa.Flushes() <= program.MaxFlushesPerSweep {
		t.Fatalf("the whole sweep flushes %d times, not more than %d", dfa.Flushes(), program.MaxFlushesPerSweep)
	}

	tiny, nodfa := CompileRGX(a), CompileRGX(a)
	tiny.UseDFA(program.NewDFA(tiny.prog, 3))
	nodfa.ForceNoDFA()
	if got, want := tiny.NonEmpty(d), nodfa.NonEmpty(d); got != want {
		t.Fatalf("NonEmpty = %v on the thrashing cache, %v on bitsets", got, want)
	}
	if st, _ := tiny.DFAStats(); st.Fallbacks != 1 {
		t.Fatalf("the thrashing cache fell back %d times, want 1: %+v", st.Fallbacks, st)
	}
}

// TestNonEmptyTakesNoForwardStep: on the DFA path NonEmpty is the
// reverse sweep alone. A private cache that answered NonEmpty holds the
// same states and counted the same lookups as one that ran only
// BackwardFrontiers over the document. A forward step would fill a
// forward row entry, which interns states and counts misses.
func TestNonEmptyTakesNoForwardStep(t *testing.T) {
	for _, expr := range []string{`.*x{a\d\d}.*`, weblogStreamExpr} {
		for _, text := range []string{nonEmptyFill(3000) + nonEmptyMatch, webLogDoc(48, 1).Text()} {
			e := CompileRGX(rgx.MustParse(expr))
			d := span.NewDocument(text)
			nonEmpty, swept := program.NewDFA(e.prog, 4096), program.NewDFA(e.prog, 4096)
			e.UseDFA(nonEmpty)
			want := e.NonEmpty(d)
			out, ok := swept.BackwardFrontiers(d, 1, d.Len()+1, nil, nil)
			if !ok {
				t.Fatal("the reverse sweep fell back")
			}
			if got := out[0].Frontier().Intersects(e.start); got != want {
				t.Fatalf("%s: NonEmpty = %v, the reverse sweep says %v", expr, want, got)
			}
			a, b := nonEmpty.Stats(), swept.Stats()
			if a.States != b.States || a.Hits != b.Hits || a.Misses != b.Misses {
				t.Errorf("%s: NonEmpty's cache %+v, the reverse sweep's %+v", expr, a, b)
			}
		}
	}
}

// TestNonEmptyAllocsIndependentOfDocument: NonEmpty sweeps every
// window into a pooled buffer, so a warm call allocates nothing, on
// 1 MiB as on 1 KiB.
func TestNonEmptyAllocsIndependentOfDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	e := CompileRGX(rgx.MustParse(`.*x{a\d\d}.*`))
	if !e.DFAEnabled() {
		t.Fatal("the engine runs without the DFA")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	for _, n := range []int{1 << 10, 1 << 20} {
		d := span.NewDocument(nonEmptyFill(n))
		nonEmpty := func() {
			if e.NonEmpty(d) {
				panic(fmt.Sprintf("a match in %d runes of filler", n))
			}
		}
		nonEmpty() // warm the cache and the pool
		if allocs := testing.AllocsPerRun(5, nonEmpty); allocs != 0 {
			t.Errorf("NonEmpty on %d runes: %v allocations, want 0", n, allocs)
		}
	}
}
