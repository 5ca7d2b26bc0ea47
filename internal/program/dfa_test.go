package program

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

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
		p.OpClosure(cur)
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

// coReachDirect is the bitset co-reach: out[pos-1] holds the states
// from which acceptance is reachable reading d[pos..n], for every
// boundary pos in 1..n+1.
func coReachDirect(p *Program, d *span.Document) []Bits {
	n := d.Len()
	out := make([]Bits, n+1)
	cur := p.Final.Clone()
	p.ROpClosure(cur)
	out[n] = cur
	for pos := n; pos >= 1; pos-- {
		prev := NewBits(p.NumStates)
		if c := p.ClassOf(d.RuneAt(pos)); c >= 0 {
			p.LetterStepBack(cur, c, prev)
		}
		p.ROpClosure(prev)
		out[pos-1], cur = prev, prev
	}
	return out
}

// sweepMatch is NonEmpty from the reverse sweep: whether the start
// state lies in the co-reach of boundary 1. Every frontier of the sweep
// must equal the bitset co-reach. ok is false when the sweep fell back.
func sweepMatch(t testing.TB, p *Program, d *DFA, doc *span.Document) (matched, ok bool) {
	t.Helper()
	out, ok := d.BackwardFrontiers(doc, 1, doc.Len()+1, nil, nil)
	if !ok {
		return false, false
	}
	for i, want := range coReachDirect(p, doc) {
		if out[i].Frontier().Key() != want.Key() {
			t.Errorf("co-reach of boundary %d on %q diverges from bitset stepping", i+1, doc.Text())
			break
		}
	}
	return out[0].Frontier().Has(p.Start), true
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
			got, ok := sweepMatch(t, p, d, doc)
			if !ok {
				t.Fatalf("%q: the reverse sweep fell back on a %d-state budget", expr, 256)
			}
			if want := matchDirect(p, doc); got != want {
				t.Fatalf("%q on %q: DFA says %v, direct stepping says %v", expr, text, got, want)
			}
		}
	}
	// Literal chains: a document that ends before, inside, at or past
	// the end of a chain, and a chain whose last state repeats.
	for expr, cases := range map[string]map[string]bool{
		`ERROR x{[^ ]+}`: {"ERROR disk": true, "ERROR  ": false, "ERRO": false, "": false, "WARNING x": false, "ERROR disks": true},
		`aaab*`:          {"aaa": true, "aaab": true, "aa": false, "aaaa": false, "aaabb": true},
	} {
		p := compileCorpus(t, expr)
		d := NewDFA(p, 64)
		for text, want := range cases {
			doc := span.NewDocument(text)
			got, ok := sweepMatch(t, p, d, doc)
			if !ok || got != want || matchDirect(p, doc) != want {
				t.Fatalf("%q on %q: DFA says %v (ok=%v), direct stepping %v, want %v", expr, text, got, ok, matchDirect(p, doc), want)
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
			p.OpClosure(cur)
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
		for i, want := range coReachDirect(p, doc) {
			if bwd[i].Frontier().Key() != want.Key() {
				t.Fatalf("%q: backward frontier at %d diverges", expr, i+1)
			}
			if bwd[i].Firers().Key() != p.FirersIn(want).Key() {
				t.Fatalf("%q: firers of the backward state at %d diverge", expr, i+1)
			}
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
		got, ok := sweepMatch(t, p, d, doc)
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
				got, ok := sweepMatch(t, p, d, docs[i])
				if ok && got != want[i] {
					t.Errorf("goroutine %d: doc %d: got %v want %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := d.Stats(); st.Hits == 0 {
		t.Fatalf("shared cache never hit: %+v", st)
	}
}

func TestDFAStatsCounters(t *testing.T) {
	p := compileCorpus(t, `a*x{a*}a*`)
	d := NewDFA(p, 64)
	doc := span.NewDocument(strings.Repeat("a", 64))
	if _, ok := sweepMatch(t, p, d, doc); !ok {
		t.Fatal("fell back")
	}
	st1 := d.Stats()
	if st1.Misses == 0 {
		t.Fatalf("cold run recorded no misses: %+v", st1)
	}
	if _, ok := sweepMatch(t, p, d, doc); !ok {
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
			got, ok := sweepMatch(t, p, d, doc)
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

// TestDStateSize pins the bytes of one interned state, which every
// resident state of every cache pays: a field that raises it must
// raise this bound and say why.
func TestDStateSize(t *testing.T) {
	if n := unsafe.Sizeof(DState{}); n > 352 {
		t.Fatalf("a DState is %d B, want at most 352", n)
	}
}
