package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
	"spanners/internal/workload"
)

// keyString spells out the canonical key of an op mask the way the
// interpreted enumerator does (keyOf in enumerate.go, the executable
// definition of the emission order): tokens "o"+name / "c"+name,
// sorted as plain strings, each followed by ';'.
func keyString(vars []span.Var, m uint64) string {
	var toks []string
	for v, name := range vars {
		if m&program.OpenBit(v) != 0 {
			toks = append(toks, "o"+string(name))
		}
		if m&program.CloseBit(v) != 0 {
			toks = append(toks, "c"+string(name))
		}
	}
	sort.Strings(toks)
	k := ""
	for _, t := range toks {
		k += t + ";"
	}
	return k
}

// TestOpOrderMatchesKeyStrings: the compiled rank table orders every
// pair of op masks exactly as the key strings do. The fixed sets put
// one name's terminator against another's next rune ('1' < ';' < '_',
// letters), which a table ranking unterminated tokens gets wrong.
func TestOpOrderMatchesKeyStrings(t *testing.T) {
	check := func(vars []span.Var, order *opOrder, a, b uint64, ka, kb string) {
		want := ka < kb
		if (a == 0) != (b == 0) {
			want = b == 0
		}
		if got := order.less(a, b); got != want {
			t.Helper()
			t.Fatalf("vars %v: less(%#x, %#x) = %v, key strings %q < %q say %v", vars, a, b, got, ka, kb, want)
		}
	}
	// spread maps the low 2k bits of i onto the open and close bits of
	// k variables.
	spread := func(i uint64, k int) uint64 {
		low := uint64(1)<<k - 1
		return i&low | (i>>k&low)<<32
	}

	for _, names := range [][]span.Var{
		{"x", "x1"},
		{"x", "x1", "x_", "X", "é"},
		{"a", "a0", "a00", "aa"},
		{"v", "v9", "vA", "vé"},
	} {
		vars := append([]span.Var(nil), names...)
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		k, order := len(vars), newOpOrder(vars)
		keys := make([]string, 1<<(2*k))
		for i := range keys {
			keys[i] = keyString(vars, spread(uint64(i), k))
		}
		for i, ki := range keys {
			for j, kj := range keys {
				check(vars, order, spread(uint64(i), k), spread(uint64(j), k), ki, kj)
			}
		}
	}
	if newOpOrder([]span.Var{"x", "x1"}).less(program.OpenBit(0), program.OpenBit(1)) {
		t.Fatal(`{open x} sorted before {open x1}, but "ox1;" < "ox;"`)
	}

	rng := rand.New(rand.NewSource(2031))
	alphabet := []rune("xy1_Xé0")
	for trial := 0; trial < 200; trial++ {
		seen := map[span.Var]bool{}
		for len(seen) < 1+rng.Intn(program.MaxVars) {
			name := []rune{alphabet[rng.Intn(2)]}
			for rng.Intn(3) > 0 {
				name = append(name, alphabet[rng.Intn(len(alphabet))])
			}
			seen[span.Var(string(name))] = true
		}
		var vars []span.Var
		for v := range seen {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		k, order := len(vars), newOpOrder(vars)
		for pair := 0; pair < 200; pair++ {
			// Sparse masks sharing a prefix, so comparisons reach past
			// the first token.
			a := spread(rng.Uint64()&rng.Uint64()&rng.Uint64(), k)
			b := a ^ spread(1<<rng.Intn(2*k), k)
			c := spread(rng.Uint64()&rng.Uint64(), k)
			ka, kb, kc := keyString(vars, a), keyString(vars, b), keyString(vars, c)
			check(vars, order, a, b, ka, kb)
			check(vars, order, b, a, kb, ka)
			check(vars, order, a, c, ka, kc)
		}
	}
}

// TestWalkDepthIndependentOfDocumentLength: a long single-match
// document must not cost one stack frame per position. Under a 1 MiB
// stack the recursive enumerator died at boundary ≈ 3 740.
func TestWalkDepthIndependentOfDocumentLength(t *testing.T) {
	old := debug.SetMaxStack(1 << 20)
	defer debug.SetMaxStack(old)

	e := CompileRGX(rgx.MustParse(`[a-z ]*k{x{[0-9]+}}[a-z ]*`))
	if !e.Compiled() || !e.Sequential() {
		t.Fatal("pattern did not compile to a sequential program")
	}
	const half = 25_000
	text := strings.Repeat("a", half-3) + " k42 " + strings.Repeat("b", half-2)
	d := span.NewDocument(text)
	if d.Len() != 2*half {
		t.Fatalf("document has %d runes", d.Len())
	}
	want := span.Mapping{"k": span.Sp(half, half+2), "x": span.Sp(half, half+2)}
	assertOne := func(ctx string, got []span.Mapping) {
		t.Helper()
		if len(got) != 1 || !got[0].Equal(want) {
			t.Fatalf("%s: got %v, want [%v]", ctx, got, want)
		}
	}

	assertOne("Enumerate", fullMappings(e, d))
	if n := e.Count(d); n != 1 {
		t.Fatalf("Count = %d, want 1", n)
	}
	inc, ok := NewIncremental(e, d)
	if !ok {
		t.Fatal("NewIncremental refused a compiled sequential engine")
	}
	assertOne("NewIncremental", inc.Mappings())

	// A stray digit in the b-run falsifies every run; repairing it
	// changes the frontiers of the whole document, so neither resweep
	// re-converges and the window is the open-ended [1, end].
	off := half + half/2
	if _, err := inc.Splice(off, 1, "9"); err != nil {
		t.Fatal(err)
	}
	if inc.Len() != 0 {
		t.Fatalf("stray digit left %d mappings", inc.Len())
	}
	res, err := inc.Splice(off, 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowStart != 1 || res.WindowEnd != 0 {
		t.Fatalf("repair splice walked [%d, %d), want the open-ended window from 1", res.WindowStart, res.WindowEnd)
	}
	assertOne("Splice", inc.Mappings())
}

// weblogStreamExpr is the query of the weblog_stream benchmark
// workload (bench/spanload): four variables, the referer optional, one
// mapping per log line.
const weblogStreamExpr = `.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`

// weblogWalkEngines is the weblog_stream query with the lazy DFA on
// and off: the walk steps interned frontiers through the DFA in one
// and bitsets in the other.
func weblogWalkEngines() map[string]*Engine {
	dfa := CompileRGX(rgx.MustParse(weblogStreamExpr))
	bitset := CompileRGX(rgx.MustParse(weblogStreamExpr))
	bitset.ForceNoDFA()
	return map[string]*Engine{"dfa": dfa, "bitset": bitset}
}

// walkWebLog runs the walk over a generated web log of the given
// number of lines and returns the letter steps it took in all and the
// count reached at each emission. The DFS pulls the sweep as it goes,
// so the count grows between emissions, and the total is read as the
// walk ends (TestWalkStepsBeforeEachEmission).
func walkWebLog(t *testing.T, e *Engine, lines int) (steps int, atEmit []int) {
	t.Helper()
	d := webLogDoc(lines, int64(lines))
	testHookWalkDone = func(w *seqWalk) { steps = w.steps }
	defer func() { testHookWalkDone = nil }()
	w := e.newSeqWalk(d, 1, d.Len()+1, nil)
	w.run(e.start, func([]span.Span) bool {
		atEmit = append(atEmit, w.steps)
		return true
	})
	if len(atEmit) != lines {
		t.Fatalf("%d lines gave %d mappings", lines, len(atEmit))
	}
	return steps, atEmit
}

// sweepSteps returns the letter steps of the whole sweep, as Count
// takes it, over the same web log as walkWebLog.
func sweepSteps(e *Engine, lines int) int {
	d := webLogDoc(lines, int64(lines))
	w := e.newSeqWalk(d, 1, d.Len()+1, nil)
	w.sweep(e.start)
	steps := w.steps
	w.done()
	return steps
}

// TestWalkStepsLinearInDocumentLength: doubling the document at most
// doubles the walk's letter steps, give or take the line mix. A walk
// that re-steps every output's branch to the document end takes about
// four times the steps per doubling on this query.
func TestWalkStepsLinearInDocumentLength(t *testing.T) {
	for name, e := range weblogWalkEngines() {
		prev := 0
		for _, lines := range []int{96, 192, 384} {
			steps, _ := walkWebLog(t, e, lines)
			if prev > 0 && float64(steps) > 2.2*float64(prev) {
				t.Errorf("%s: %d lines took %d letter steps, %.2fx the %d of half as many lines",
					name, lines, steps, float64(steps)/float64(prev), prev)
			}
			prev = steps
		}
	}
}

// firstEmitSteps bounds the letter steps before a web log's first
// mapping: the first line's branch plus the look-ahead of the pulls
// that reach it. It reads 33–106 with the DFA and 115–359 on bitsets
// at 96 to 768 lines; the whole sweep of 96 lines takes 3 182 and
// 10 456.
const firstEmitSteps = 512

// TestWalkStepsBeforeEachEmission: the DFS pulls the sweep only as far
// as the edge it reads next, so the steps before the first emission
// stay under one bound at every document length, the steps taken by
// any emission are at most the whole sweep's, and the walk that runs
// to the end takes exactly the whole sweep's steps: the pulls step no
// letter twice. The sweep runs once first so both walks read the same
// learned loops.
func TestWalkStepsBeforeEachEmission(t *testing.T) {
	for name, e := range weblogWalkEngines() {
		for _, lines := range []int{96, 192, 384, 768} {
			sweepSteps(e, lines)
			full := sweepSteps(e, lines)
			steps, atEmit := walkWebLog(t, e, lines)
			if atEmit[0] > firstEmitSteps {
				t.Errorf("%s, %d lines: %d letter steps before the first emission, want at most %d",
					name, lines, atEmit[0], firstEmitSteps)
			}
			for i, n := range atEmit {
				if n > full {
					t.Fatalf("%s, %d lines: %d letter steps at emission %d, the whole sweep takes %d", name, lines, n, i, full)
				}
			}
			if steps != full {
				t.Errorf("%s, %d lines: the walk took %d letter steps, the whole sweep %d", name, lines, steps, full)
			}
		}
	}
}

// TestSpliceStepsIndependentOfDocumentLength: a session's splice
// resweeps and re-walks around the edit, not across the document. With
// the snapshot spacing fixed at 64, rewriting one digit of the middle
// line takes a bounded number of letter steps each way and re-walks a
// bounded window at every length from 256 to 2 048 lines. The window
// runs between the nearest snapshots no mapping crosses, which is a
// property of the text around the edit, not of its length: over the
// forty lines around the middle it spans 64 to 768 boundaries at every
// size. The default spacing, incBlockSize, grows as n/256 on purpose —
// fewer snapshots on long documents — so under it the steps per side
// grow with the spacing: 117, 236 and 474 at 512, 1 024 and 2 048
// lines on this edit.
func TestSpliceStepsIndependentOfDocumentLength(t *testing.T) {
	const k = 64
	e := CompileRGX(rgx.MustParse(weblogStreamExpr))
	for _, lines := range []int{256, 512, 1024, 2048} {
		text := workload.WebLog(workload.WebLogOptions{Lines: lines, ReferProb: 0.35, Seed: 1})
		inc := newIncremental(e, span.NewDocument(text), k)
		mid := 0
		for i := 0; i < lines/2; i++ {
			mid += strings.IndexByte(text[mid:], '\n') + 1
		}
		off := mid + strings.IndexAny(text[mid:], "0123456789")
		res, err := inc.Splice(off, 1, string('0'+(text[off]-'0'+1)%10))
		if err != nil {
			t.Fatal(err)
		}
		if steps := res.FwdSteps + res.BwdSteps; steps > 6*k {
			t.Errorf("%d lines: the splice took %d+%d letter steps, want at most %d", lines, res.FwdSteps, res.BwdSteps, 6*k)
		}
		if res.WindowEnd == 0 || res.WindowEnd-res.WindowStart > 8*k {
			t.Errorf("%d lines: the splice re-walked [%d, %d), want a cut window of at most %d boundaries",
				lines, res.WindowStart, res.WindowEnd, 8*k)
		}
		assertIncremental(t, inc, e, fmt.Sprintf("%d lines", lines))
	}
}

// TestTailSpliceKeepsSnapshots: an append at the end of a long document
// and its undo resolve only the snapshots near the end; the list stays
// in its storage, and every snapshot before the edit's block keeps its
// pairs, so a tail edit costs the suffix and not the document.
func TestTailSpliceKeepsSnapshots(t *testing.T) {
	e := CompileRGX(rgx.MustParse(weblogStreamExpr))
	text := workload.WebLog(workload.WebLogOptions{Lines: 1024, ReferProb: 0.35, Seed: 1})
	inc := newIncremental(e, span.NewDocument(text), 64)
	before, base, room := slices.Clone(inc.snaps), &inc.snaps[0], cap(inc.snaps)
	line := "10.1.2.3 GET /api/items 200 512 \"curl/8.0\"\n"
	for _, edit := range []struct {
		off, del int
		ins      string
	}{{len(text), 0, line}, {len(text), len(line), ""}} {
		if _, err := inc.Splice(edit.off, edit.del, edit.ins); err != nil {
			t.Fatal(err)
		}
		if len(inc.snaps) <= room && &inc.snaps[0] != base {
			t.Fatal("the splice copied the snapshot list to new storage")
		}
	}
	assertIncremental(t, inc, e, "after the undo")
	kept := 0
	for kept < len(inc.snaps) && inc.snaps[kept].pos < len(text)-4*64 {
		if sn, old := inc.snaps[kept], before[kept]; sn.pos != old.pos || &sn.f0[0] != &old.f0[0] || &sn.b0[0] != &old.b0[0] {
			t.Fatalf("snapshot %d at %d was rebuilt by a splice at the end", kept, sn.pos)
		}
		kept++
	}
	if kept < len(before)-8 {
		t.Errorf("%d of %d snapshots kept, want all but the last few", kept, len(before))
	}
}

// TestReachSweepAllocsFlat: the bitset co-reach sweep of session
// windows and Count, and the bitset fallback of the forward sweep,
// carve every boundary's frontier from one slab, so their allocations
// do not grow with the window. The co-reach sweep writes into its
// caller's buffers: once they have grown to the longer window, neither
// window allocates at all. The collector stays off while counting: a
// collection cycle adds allocations of its own to the process count.
func TestReachSweepAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := CompileRGX(rgx.MustParse(weblogStreamExpr))
	e.ForceNoDFA()
	short := span.NewDocument(workload.WebLog(workload.WebLogOptions{Lines: 24, ReferProb: 0.35, Seed: 1}))
	long := span.NewDocument(workload.WebLog(workload.WebLogOptions{Lines: 384, ReferProb: 0.35, Seed: 1}))

	var co coBufs
	coReach := func(d *span.Document) { co.coReachRaw(e, d, 1, d.Len()+1, e.coFinal) }
	coReach(long)
	for _, d := range []*span.Document{short, long} {
		if n := testing.AllocsPerRun(5, func() { coReach(d) }); n != 0 {
			t.Errorf("coReachRaw: %v allocations on %d runes into grown buffers, want 0", n, d.Len())
		}
	}

	a := testing.AllocsPerRun(5, func() { e.forwardReachProg(short) })
	b := testing.AllocsPerRun(5, func() { e.forwardReachProg(long) })
	if b != a {
		t.Errorf("forwardReachProg: %v allocations on %d runes, %v on %d", a, short.Len(), b, long.Len())
	}
}

// TestFirersMatchFiresInto: the firers the DFA keeps with every
// interned state answer the walk's node test exactly as firesInto
// does, on random programs, co-reach states and frontiers.
func TestFirersMatchFiresInto(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	randBits := func(n int, density float64) program.Bits {
		b := program.NewBits(n)
		for q := 0; q < n; q++ {
			if rng.Float64() < density {
				b.Set(q)
			}
		}
		return b
	}
	programs := 0
	for trial := 0; trial < 200; trial++ {
		e := CompileRGX(randomExpr(rng, 4, []span.Var{"x", "y", "z"}))
		p := e.Program()
		if p == nil || !p.HasOps.Any() {
			continue
		}
		programs++
		for k := 0; k < 20; k++ {
			b := e.dfa.State(randBits(p.NumStates, rng.Float64()))
			if want := p.FirersIn(b.Frontier()); !bitsEq(b.Firers(), want) {
				t.Fatalf("trial %d: interned firers %v, FirersIn %v", trial, b.Firers(), want)
			}
			for j := 0; j < 20; j++ {
				set := randBits(p.NumStates, rng.Float64())
				if got, want := set.Intersects(b.Firers()), e.firesInto(set, b.Frontier()); got != want {
					t.Fatalf("trial %d: set %v, co-reach %v: firers say %v, firesInto %v",
						trial, set, b.Frontier(), got, want)
				}
			}
		}
	}
	if programs < 50 {
		t.Fatalf("only %d random programs have operations", programs)
	}
}

// TestStateChoicesMatchBoundaryEmissions: the choices an interned
// state carries are searched against every state, with no co-reach.
// Cut to a co-reach set — closed backwards under operations — they
// must be exactly the choices the bitset path searches inside it: the
// same masks, in the same order, with the same states.
func TestStateChoicesMatchBoundaryEmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	randBits := func(n int, density float64) program.Bits {
		b := program.NewBits(n)
		for q := 0; q < n; q++ {
			if rng.Float64() < density {
				b.Set(q)
			}
		}
		return b
	}
	programs, cut := 0, 0
	for trial := 0; trial < 200; trial++ {
		e := CompileRGX(randomExpr(rng, 4, []span.Var{"x", "y", "z"}))
		p := e.Program()
		if p == nil || !p.HasOps.Any() {
			continue
		}
		programs++
		var a emArena
		for k := 0; k < 20; k++ {
			s := e.dfa.State(randBits(p.NumStates, rng.Float64()))
			chs := e.choices(s)
			if again := e.choices(s); len(chs) > 0 && &again[0] != &chs[0] {
				t.Fatalf("trial %d: choices derived twice for one state", trial)
			}
			for j := 0; j < 10; j++ {
				co := randBits(p.NumStates, rng.Float64())
				if j == 0 {
					co = e.coFinal.Clone()
				}
				p.ROpClosure(co)
				a.reset()
				want := e.boundaryEmissionsProg(s.Frontier(), co, &a)
				var got []progEmission
				for _, ch := range chs {
					if to := ch.To.Frontier().Clone(); to.Intersects(co) {
						to.And(co)
						got = append(got, progEmission{mask: ch.Mask, states: to})
					}
				}
				cut += len(chs) - len(got)
				if !slices.EqualFunc(got, want, func(x, y progEmission) bool {
					return x.mask == y.mask && bitsEq(x.states, y.states)
				}) {
					t.Fatalf("trial %d: frontier %v, co-reach %v: the state's choices cut to the co-reach %v, searched inside it %v",
						trial, s.Frontier(), co, got, want)
				}
			}
		}
	}
	if programs < 50 || cut == 0 {
		t.Fatalf("%d random programs with operations, %d choices cut away by a co-reach", programs, cut)
	}
}

// TestOpFreeChoiceOutsideCoReach: at the node at boundary 1 of "a",
// the frontier's choice {open y, close y} reaches only the op-free
// state that reads b, which cannot complete there. The state's choices
// are not cut to the co-reach, so the walk must drop that choice
// rather than complete it as op-free.
func TestOpFreeChoiceOutsideCoReach(t *testing.T) {
	a := va.FromRGX(rgx.MustParse(`x{}a|y{}b`))
	e := NewEngine(a)
	d := span.NewDocument("a")
	ref := NewEngine(a)
	ref.ForceNoDFA()
	got := e.All(d)
	if want := ref.All(d); !got.Equal(want) || got.Len() != 1 {
		t.Fatalf("%d mappings, the bitset walk %d; want only x = [1,1>", got.Len(), want.Len())
	}
	if n := e.Count(d); n != 1 {
		t.Fatalf("Count = %d, want 1", n)
	}
}

// TestCoReachBytesPerDocByte: the co-reach of a whole-document walk is
// one interned state per boundary, 8 B, and nothing else the walk
// allocates grows with the document: a 4 MiB sparse_scan-shaped log
// with one match allocates at most 9 B per byte (24 B when the
// co-reach was a bitset header per boundary).
func TestCoReachBytesPerDocByte(t *testing.T) {
	if testing.Short() {
		t.Skip("walks a 4 MiB document")
	}
	if raceEnabled {
		t.Skip("under the race detector slices.Grow allocates its buffer twice")
	}
	e := CompileRGX(rgx.MustParse(sparseScanExpr))
	d := sparseLog(4<<20/60, 1, 1)
	n := 0
	walk := func() {
		n = 0
		e.EnumerateTuples(d, nil, func([]span.Span) bool { n++; return true })
	}
	walk() // interns the DFA states the document visits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	walk()
	runtime.ReadMemStats(&after)
	if n != 1 {
		t.Fatalf("%d mappings, want 1", n)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(d.Text()))
	t.Logf("%.2f B per document byte over %d bytes", perByte, len(d.Text()))
	if perByte > 9 {
		t.Fatalf("a walk over %d bytes allocated %.2f B per byte, want at most 9", len(d.Text()), perByte)
	}
}

// TestLazyPruneBoundsDeadBranches: between prune points the DFA walk
// steps frontiers raw, so a branch that pruning would end — one that
// can no longer complete, or that completes op-free, or that merges
// with another — steps on until the next prune point, at most
// lazyPruneEvery boundaries later. The bitset walk prunes at every
// boundary, so on the same document the DFA walk takes at most
// lazyPruneEvery more steps per DAG edge (every branch starts at one),
// and it emits the same mappings in the same order. (a|b)*|x{a} is the
// extreme: its one branch ends at the first prune, which the bitset
// walk makes after one step.
func TestLazyPruneBoundsDeadBranches(t *testing.T) {
	sweep := func(e *Engine, d *span.Document) (steps, edges int) {
		w := e.newSeqWalk(d, 1, d.Len()+1, nil)
		w.sweep(e.start)
		steps, edges = w.steps, len(w.edges)
		w.done()
		return steps, edges
	}
	check := func(name string, a *va.VA, d *span.Document) {
		t.Helper()
		lazy, eager := NewEngine(a), NewEngine(a)
		eager.ForceNoDFA()
		ls, edges := sweep(lazy, d)
		es, _ := sweep(eager, d)
		if ls > es+lazyPruneEvery*edges {
			t.Errorf("%s: the DFA walk took %d letter steps, the bitset walk %d; want at most %d more per edge (%d edges)",
				name, ls, es, lazyPruneEvery, edges)
		}
		got := collectTuples(func(yield func([]span.Span) bool) { lazy.EnumerateTuples(d, nil, yield) })
		want := collectTuples(func(yield func([]span.Span) bool) { eager.EnumerateTuples(d, nil, yield) })
		if !slices.Equal(got, want) {
			t.Errorf("%s: the DFA walk emitted %d spans, the bitset walk %d, or in another order", name, len(got), len(want))
		}
		if width := len(lazy.Columns()); width > 0 && lazy.Count(d) != len(want)/width {
			t.Errorf("%s: Count %d, %d mappings", name, lazy.Count(d), len(want)/width)
		}
	}

	text := make([]byte, 600)
	rng := rand.New(rand.NewSource(64))
	for i := range text {
		text[i] = "ab"[rng.Intn(2)]
	}
	d := span.NewDocument(string(text))
	extreme := va.FromRGX(rgx.MustParse(`(a|b)*|x{a}`))
	check("(a|b)*|x{a}", extreme, d)
	if ls, _ := sweep(NewEngine(extreme), d); ls < 2 || ls > 1+lazyPruneEvery {
		t.Errorf("(a|b)*|x{a}: %d letter steps, want more than the bitset walk's 1 and at most %d", ls, 1+lazyPruneEvery)
	}
	checked := 0
	for trial := 0; trial < 400; trial++ {
		n := randomExpr(rng, 4, []span.Var{"x", "y"})
		a := va.FromRGX(n)
		if e := NewEngine(a); e.Sequential() && e.Compiled() {
			checked++
			check(n.String(), a, span.NewDocument(string(text[:100+rng.Intn(500)])))
		}
	}
	if checked < 100 {
		t.Fatalf("only %d random patterns are compiled sequential spanners", checked)
	}
	for _, sh := range workloadShapes() {
		check(sh.name, va.FromRGX(rgx.MustParse(sh.expr)), sh.docs[0])
	}
}
