package program

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

// matchDirect is the pre-DFA forward simulation: per-rune bitset
// stepping with permissive closures — the oracle every DFA sweep must
// agree with.
func matchDirect(p *Program, d *span.Document) bool {
	cur := NewBits(p.NumStates)
	next := NewBits(p.NumStates)
	cur.Set(p.Start)
	n := d.Len()
	for pos := 1; pos <= n+1; pos++ {
		p.OpClosure(cur, 0)
		if pos == n+1 {
			break
		}
		c := p.ClassOf(d.RuneAt(pos))
		if c < 0 {
			return false
		}
		next.Clear()
		if !p.LetterStep(cur, c, next) {
			return false
		}
		cur, next = next, cur
	}
	return cur.Intersects(p.Final)
}

func docsForDFA(rng *rand.Rand) []string {
	docs := []string{"", "a", "b", "ab", "Seller: X, ID3\n", strings.Repeat("a", 40)}
	for i := 0; i < 6; i++ {
		n := rng.Intn(24)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte("ab,S: \nelrID0123"[rng.Intn(16)])
		}
		docs = append(docs, string(buf))
	}
	return docs
}

func TestDFAMatchAgreesWithDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, expr := range codecCorpus {
		p := compileCorpus(t, expr)
		d := NewDFA(p, 256)
		for _, text := range docsForDFA(rng) {
			doc := span.NewDocument(text)
			got, ok := d.Match(doc)
			if !ok {
				t.Fatalf("%q: Match fell back on a %d-state budget", expr, 256)
			}
			if want := matchDirect(p, doc); got != want {
				t.Fatalf("%q on %q: DFA says %v, direct stepping says %v", expr, text, got, want)
			}
		}
	}
}

func TestDFAFrontierSweepsAgreeWithDirect(t *testing.T) {
	for _, expr := range codecCorpus {
		p := compileCorpus(t, expr)
		d := NewDFA(p, 256)
		doc := span.NewDocument("Seller: ab, ID12\naba")
		n := doc.Len()

		fwd, ok := d.ForwardFrontiers(doc)
		if !ok {
			t.Fatalf("%q: forward sweep fell back", expr)
		}
		cur := NewBits(p.NumStates)
		cur.Set(p.Start)
		for pos := 1; pos <= n+1; pos++ {
			p.OpClosure(cur, 0)
			if fwd[pos].Key() != cur.Key() {
				t.Fatalf("%q: forward frontier at %d diverges", expr, pos)
			}
			if pos == n+1 {
				break
			}
			next := NewBits(p.NumStates)
			if c := p.ClassOf(doc.RuneAt(pos)); c >= 0 {
				p.LetterStep(cur, c, next)
			}
			cur = next
		}

		bwd, ok := d.BackwardFrontiers(doc, 1, n+1, nil, nil)
		if !ok {
			t.Fatalf("%q: backward sweep fell back", expr)
		}
		rcur := p.Final.Clone()
		p.ROpClosure(rcur)
		if bwd[n].Frontier().Key() != rcur.Key() {
			t.Fatalf("%q: backward frontier at %d diverges", expr, n+1)
		}
		for pos := n; pos >= 1; pos-- {
			prev := NewBits(p.NumStates)
			if c := p.ClassOf(doc.RuneAt(pos)); c >= 0 {
				p.LetterStepBack(rcur, c, prev)
			}
			p.ROpClosure(prev)
			if bwd[pos-1].Frontier().Key() != prev.Key() {
				t.Fatalf("%q: backward frontier at %d diverges", expr, pos)
			}
			if bwd[pos-1].Firers().Key() != p.FirersIn(prev).Key() {
				t.Fatalf("%q: firers of the backward state at %d diverge", expr, pos)
			}
			rcur = prev
		}
	}
}

// TestBackwardFrontiersReusesCallerSlice: the reverse sweep fills the
// caller's slice in place while it is long enough, so a warm sweep
// into the slice it returned allocates nothing, and grows it only for
// a longer document.
func TestBackwardFrontiersReusesCallerSlice(t *testing.T) {
	p := compileCorpus(t, codecCorpus[0])
	d := NewDFA(p, 256)
	long, short := span.NewDocument("Seller: ab, ID12\naba"), span.NewDocument("aba")
	sweep := func(doc *span.Document, out []*DState) []*DState {
		out, ok := d.BackwardFrontiers(doc, 1, doc.Len()+1, nil, out)
		if !ok {
			t.Fatal("backward sweep fell back")
		}
		return out
	}
	buf := sweep(long, nil)
	out := sweep(short, buf)
	if len(out) != short.Len()+1 || &out[0] != &buf[0] {
		t.Fatalf("short sweep returned %d states at a new array; want %d in the caller's", len(out), short.Len()+1)
	}
	final := p.Final.Clone()
	p.ROpClosure(final)
	if out[short.Len()].Frontier().Key() != final.Key() {
		t.Fatal("short sweep does not end on the final co-reach")
	}
	if n := testing.AllocsPerRun(5, func() { d.BackwardFrontiers(long, 1, long.Len()+1, nil, buf) }); n != 0 {
		t.Fatalf("warm sweep into the caller's slice: %v allocations, want 0", n)
	}
	if grown := sweep(long, buf[:0:1]); len(grown) != long.Len()+1 {
		t.Fatalf("a one-state slice grew to %d states, want %d", len(grown), long.Len()+1)
	}
}

// TestDFATinyBudgetStaysCorrect drives a 3-state budget (permanent
// flushing) and checks that whatever completes without falling back
// is still correct, and that the flush/eviction/fallback counters
// move.
func TestDFATinyBudgetStaysCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := compileCorpus(t, `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	d := NewDFA(p, 3)
	completed := 0
	for _, text := range docsForDFA(rng) {
		doc := span.NewDocument(text)
		got, ok := d.Match(doc)
		if !ok {
			continue // fallback: the caller would re-run direct stepping
		}
		completed++
		if want := matchDirect(p, doc); got != want {
			t.Fatalf("tiny budget diverged on %q: DFA %v, direct %v", text, got, want)
		}
	}
	st := d.Stats()
	if st.Flushes == 0 || st.Evictions == 0 {
		t.Fatalf("3-state budget never flushed: %+v", st)
	}
	if completed == 0 && st.Fallbacks == 0 {
		t.Fatalf("no sweep completed and none fell back: %+v", st)
	}
}

func TestDFAConcurrentSharedCache(t *testing.T) {
	p := compileCorpus(t, `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	d := p.DFA()
	docs := []*span.Document{
		span.NewDocument("Seller: A, ID1\n"),
		span.NewDocument("Buyer: B, ID2, P3\n"),
		span.NewDocument(strings.Repeat("Seller: C, ID3\n", 16)),
		span.NewDocument("no rows at all"),
	}
	want := make([]bool, len(docs))
	for i, doc := range docs {
		want[i] = matchDirect(p, doc)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % len(docs)
				got, ok := d.Match(docs[i])
				if ok && got != want[i] {
					t.Errorf("goroutine %d: doc %d: got %v want %v", g, i, got, want[i])
					return
				}
				if _, ok := d.BackwardFrontiers(docs[i], 1, docs[i].Len()+1, nil, nil); !ok {
					continue
				}
			}
		}(g)
	}
	wg.Wait()
	if st := d.Stats(); st.Hits == 0 {
		t.Fatalf("shared cache never hit: %+v", st)
	}
}

func TestDFASkipSuperinstructionFires(t *testing.T) {
	p := compileCorpus(t, `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	d := NewDFA(p, 256)
	doc := span.NewDocument(strings.Repeat("padding without trigger\n", 8) + "Seller: A, ID1\n")
	// First pass materializes rows; later passes should skip.
	for i := 0; i < 4; i++ {
		got, ok := d.Match(doc)
		if !ok || !got {
			t.Fatalf("pass %d: match=%v ok=%v", i, got, ok)
		}
	}
	if st := d.Stats(); st.SkippedRunes == 0 {
		t.Fatalf("letter-heavy document produced no skipped runes: %+v", st)
	}
}

func TestFusedRunsOnLiteralChain(t *testing.T) {
	p := compileCorpus(t, `ERROR x{[^ ]+}`)
	if p.Stats().FusedRuns == 0 {
		t.Fatalf("literal prefix compiled without fused runs: %+v", p.Stats())
	}
	d := NewDFA(p, 256)
	cases := map[string]bool{
		"ERROR disk":  true,
		"ERROR  ":     false,
		"ERRO":        false,
		"":            false,
		"WARNING x":   false,
		"ERROR disks": true,
	}
	for text, want := range cases {
		doc := span.NewDocument(text)
		got, ok := d.Match(doc)
		if !ok {
			t.Fatalf("%q: fell back", text)
		}
		if got != want {
			t.Fatalf("%q: got %v want %v", text, got, want)
		}
		if dw := matchDirect(p, doc); dw != want {
			t.Fatalf("%q: oracle disagrees with expectation: %v", text, dw)
		}
	}
	if st := d.Stats(); st.FusedExecs == 0 {
		t.Fatalf("anchored literal never executed a fused run: %+v", st)
	}
}

func TestFusedRunsRespectDocEndAndFinalInteriors(t *testing.T) {
	// a+ compiles to a self-loop: no run may fuse through it, and
	// acceptance in the middle of repeated letters must survive.
	p := compileCorpus(t, `aaab*`)
	d := NewDFA(p, 64)
	for text, want := range map[string]bool{
		"aaa": true, "aaab": true, "aa": false, "aaaa": false, "aaabb": true,
	} {
		doc := span.NewDocument(text)
		got, ok := d.Match(doc)
		if !ok {
			t.Fatalf("%q: fell back", text)
		}
		if got != want || matchDirect(p, doc) != want {
			t.Fatalf("%q: got %v want %v", text, got, want)
		}
	}
}

func TestDFAStatsCounters(t *testing.T) {
	p := compileCorpus(t, `a*x{a*}a*`)
	d := NewDFA(p, 64)
	doc := span.NewDocument(strings.Repeat("a", 64))
	if _, ok := d.Match(doc); !ok {
		t.Fatal("fell back")
	}
	st1 := d.Stats()
	if st1.Misses == 0 {
		t.Fatalf("cold run recorded no misses: %+v", st1)
	}
	if _, ok := d.Match(doc); !ok {
		t.Fatal("fell back")
	}
	st2 := d.Stats()
	if st2.Hits <= st1.Hits {
		t.Fatalf("warm run recorded no new hits: %+v → %+v", st1, st2)
	}
	if st2.Misses != st1.Misses || st2.States != st1.States {
		t.Fatalf("warm run recomputed transitions: %+v → %+v", st1, st2)
	}
}

// TestDFARandomizedAgainstDirect hammers random automata (including
// junk structure) with random documents.
func TestDFARandomizedAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		expr := randomDFAExpr(rng, 3)
		n, err := rgx.Parse(expr)
		if err != nil {
			continue
		}
		p, err := Compile(va.FromRGX(n))
		if err != nil {
			continue
		}
		d := NewDFA(p, 32)
		for probe := 0; probe < 8; probe++ {
			text := randomDFAText(rng)
			doc := span.NewDocument(text)
			got, ok := d.Match(doc)
			if !ok {
				continue
			}
			if want := matchDirect(p, doc); got != want {
				t.Fatalf("trial %d: %q on %q: DFA %v direct %v", trial, expr, text, got, want)
			}
		}
	}
}

func randomDFAExpr(rng *rand.Rand, depth int) string {
	if depth == 0 {
		atoms := []string{"a", "b", "ab", "x{a}", "x{ab*}", "y{b}"}
		return atoms[rng.Intn(len(atoms))]
	}
	l, r := randomDFAExpr(rng, depth-1), randomDFAExpr(rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return l + r
	case 1:
		return "(" + l + "|" + r + ")"
	case 2:
		return "(" + l + ")*"
	default:
		return "(" + l + ")?"
	}
}

func randomDFAText(rng *rand.Rand) string {
	n := rng.Intn(8)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('a' + rng.Intn(2))
	}
	return string(buf)
}

func TestASCIIClassTableMatchesBinarySearch(t *testing.T) {
	for _, expr := range codecCorpus {
		p := compileCorpus(t, expr)
		for r := rune(0); r < 128; r++ {
			fast := int(p.asciiClass[r])
			// Recompute via the range list only.
			slow := -1
			for i := range p.lo {
				if r >= p.lo[i] && r <= p.hi[i] {
					slow = int(p.cls[i])
					break
				}
			}
			if fast != slow {
				t.Fatalf("%q: class of %q: table %d, ranges %d", expr, string(r), fast, slow)
			}
		}
	}
}
