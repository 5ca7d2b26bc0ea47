package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/workload"
)

// incPatterns is the differential corpus: leading/trailing wildcards,
// optional variables, multi-variable rows, an always-empty-capable
// alternative, the weblog shape of the flagship scenario, alternatives
// that fire different op sets at one boundary around an optional
// variable (partial mappings), and a spanner every document of which
// yields the empty mapping.
var incPatterns = []string{
	`.*(x{ab*}c).*`,
	`.*(m{a+}b(y{c*}|)d).*`,
	`.*(x{a+}b.*|)`,
	`.*(Seller: x{[^,\n]*}, ID(y{\d*})\n).*`,
	`.*(\n|())m{GET|POST} (p{[^ ]*}) st{\d\d\d}\n.*`,
	`.*(x{a}|x1{a}y{b}|y{ab})(z{c}|).*`,
	`(x{a*}|)(.*y{bc}.*|.*)`,
}

func incEngine(t *testing.T, expr string) *Engine {
	t.Helper()
	e := CompileRGX(rgx.MustParse(expr))
	if !e.Compiled() || !e.Sequential() {
		t.Fatalf("pattern %q did not compile to a sequential program", expr)
	}
	return e
}

func fullMappings(e *Engine, d *span.Document) []span.Mapping {
	var out []span.Mapping
	e.Enumerate(d, func(m span.Mapping) bool {
		out = append(out, m.Copy())
		return true
	})
	return out
}

// assertIncremental checks byte-identical, order-identical agreement
// between the incremental result set and a from-scratch extraction.
func assertIncremental(t *testing.T, inc *IncState, e *Engine, ctx string) {
	t.Helper()
	want := fullMappings(e, inc.Doc())
	got := inc.Mappings()
	if len(got) != len(want) {
		t.Fatalf("%s: incremental returned %d mappings, full re-extraction %d\ndoc=%q",
			ctx, len(got), len(want), inc.Doc().Text())
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: mapping %d differs: incremental %v, full %v\ndoc=%q",
				ctx, i, got[i], want[i], inc.Doc().Text())
		}
	}
	if inc.Len() != len(got) {
		t.Fatalf("%s: Len()=%d but Mappings() returned %d", ctx, inc.Len(), len(got))
	}
}

// TestIncrementalDifferential drives a randomized edit script against
// every corpus pattern and asserts after each splice that the
// maintained result set is identical (values and order) to a full
// re-extraction of the edited document.
func TestIncrementalDifferential(t *testing.T) {
	defer func() { testHookWalkDone = nil }()
	dfaNodes := 0
	for pi, expr := range incPatterns {
		// The one walker serves a session in three modes — the whole
		// document (build), a window cut at B, a window open to the
		// document end. On the DFA path each resolves its DAG nodes
		// through the choices cached on the frontiers' states, so no
		// walk carves a choice from its own arena; the bitset walk
		// resolves every node there. A script whose documents never
		// match forms no node.
		for _, dfa := range []bool{true, false} {
			e := incEngine(t, expr)
			if !dfa {
				e.ForceNoDFA()
			}
			nodes, arena := 0, 0
			testHookWalkDone = func(w *seqWalk) {
				nodes += len(w.nodes)
				if w.co == nil || len(w.arena.ems) > 0 {
					arena += len(w.nodes)
				}
			}
			incScript(t, e, pi)
			testHookWalkDone = nil
			if dfa {
				dfaNodes += nodes
			}
			switch {
			case dfa && arena > 0:
				t.Errorf("pattern %d: DFA walks resolved %d of %d nodes outside the state choices", pi, arena, nodes)
			case !dfa && arena != nodes:
				t.Errorf("pattern %d: bitset walks resolved %d of %d nodes in their arena", pi, arena, nodes)
			}
		}
	}
	if dfaNodes == 0 {
		t.Errorf("no DFA walk formed a DAG node")
	}
}

// incScript runs the randomized edit script of pattern pi on e,
// comparing with a from-scratch run after every splice.
func incScript(t *testing.T, e *Engine, pi int) {
	t.Helper()
	alphabet := []rune("aabbccd \nx159GETPOST/,:ISelr")
	rng := rand.New(rand.NewSource(int64(100 + pi)))
	doc := span.NewDocument(randText(rng, alphabet, 60))
	bounded, open := 0, 0
	for _, blockK := range []int{4, 16} {
		inc := newIncremental(e, doc, blockK)
		assertIncremental(t, inc, e, fmt.Sprintf("pattern %d initial", pi))
		for step := 0; step < 35; step++ {
			n := inc.Doc().Len()
			off := rng.Intn(n + 1)
			del := 0
			if n-off > 0 {
				del = rng.Intn(min(n-off, 9) + 1)
			}
			ins := randText(rng, alphabet, rng.Intn(9))
			res, err := inc.Splice(off, del, ins)
			if err != nil {
				t.Fatalf("pattern %d step %d: splice(%d,%d,%q): %v", pi, step, off, del, ins, err)
			}
			if res.WindowEnd > 0 {
				bounded++
			} else {
				open++
			}
			assertIncremental(t, inc, e,
				fmt.Sprintf("pattern %d blockK %d step %d splice(%d,%d,%q)", pi, blockK, step, off, del, ins))
		}
	}
	if bounded == 0 || open == 0 {
		t.Errorf("pattern %d: %d bounded and %d open-ended windows; the script must exercise both", pi, bounded, open)
	}
}

func randText(rng *rand.Rand, alphabet []rune, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// TestIncrementalEdgeCases pins the splice shapes named in the issue:
// edit at offset 0, pure append, delete-only, an edit spanning a
// snapshot boundary, a no-op splice, and growth from / shrinkage to
// the empty document.
func TestIncrementalEdgeCases(t *testing.T) {
	e := incEngine(t, `.*(x{ab*}c).*`)
	const blockK = 4
	base := "ddabbcdabcdd"
	cases := []struct {
		name string
		off  int
		del  int
		ins  string
	}{
		{"edit-at-offset-0", 0, 0, "abc"},
		{"delete-at-offset-0", 0, 3, ""},
		{"pure-append", len(base), 0, "dabbbc"},
		{"delete-only", 4, 3, ""},
		{"snapshot-boundary-span", blockK - 2, 4, "abcab"},
		{"noop-splice", 5, 0, ""},
		{"replace-everything", 0, len(base), "abc"},
		{"delete-everything", 0, len(base), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inc := newIncremental(e, span.NewDocument(base), blockK)
			if _, err := inc.Splice(tc.off, tc.del, tc.ins); err != nil {
				t.Fatalf("splice: %v", err)
			}
			assertIncremental(t, inc, e, tc.name)
		})
	}

	t.Run("grow-from-empty", func(t *testing.T) {
		inc := newIncremental(e, span.NewDocument(""), blockK)
		for i, chunk := range []string{"ab", "c", "dd", "abbc"} {
			if _, err := inc.Splice(inc.Doc().Len(), 0, chunk); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			assertIncremental(t, inc, e, fmt.Sprintf("append %d", i))
		}
	})
}

// TestIncrementalSpliceErrors asserts out-of-range splices are
// rejected without disturbing the session.
func TestIncrementalSpliceErrors(t *testing.T) {
	e := incEngine(t, `.*(x{ab*}c).*`)
	inc := newIncremental(e, span.NewDocument("dabcd"), 4)
	for _, tc := range []struct{ off, del int }{
		{6, 0},  // offset past EOF
		{3, 4},  // delete range past EOF
		{-1, 0}, // negative offset
		{0, -1}, // negative delete length
	} {
		if _, err := inc.Splice(tc.off, tc.del, "x"); err == nil {
			t.Fatalf("splice(%d,%d) succeeded; want out-of-range error", tc.off, tc.del)
		}
	}
	// An edited document shorter than the text the splice keeps.
	if _, err := inc.SpliceDoc(0, 1, span.NewDocument("abc")); err == nil {
		t.Fatal("SpliceDoc accepted a document shorter than the kept text")
	}
	assertIncremental(t, inc, e, "after rejected splices")
}

// TestIncrementalNonASCII exercises the rune/byte distinction: multi-
// byte runes around the edit must not shift span positions.
func TestIncrementalNonASCII(t *testing.T) {
	e := incEngine(t, `.*(x{ab*}c).*`)
	inc := newIncremental(e, span.NewDocument("ดdabcดd"), 4)
	for i, edit := range []struct {
		off, del int
		ins      string
	}{
		{2, 0, "abbcด"},
		{0, 1, "ab"},
		{inc.Doc().Len(), 0, "cด"},
	} {
		if _, err := inc.Splice(edit.off, edit.del, edit.ins); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		assertIncremental(t, inc, e, fmt.Sprintf("non-ascii edit %d", i))
	}
}

// TestIncrementalAppendReuse asserts the flagship property on the
// weblog shape: appended lines re-derive only a bounded tail — the
// cached prefix mappings are reused, and the resweep length tracks the
// suffix, not the document.
func TestIncrementalAppendReuse(t *testing.T) {
	e := incEngine(t, `.*(m{GET|POST|PUT|DELETE} (p{[^ ]*}) st{\d\d\d} \d* "[^"]*"\n).*`)
	text := workload.WebLog(workload.WebLogOptions{Lines: 120, Seed: 7})
	inc := newIncremental(e, span.NewDocument(text), 32)
	before := inc.Len()
	line := "10.0.0.1 GET /tail/hit 200 17 \"curl/8.0\"\n"
	res, err := inc.Splice(inc.Doc().Len(), 0, line)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	assertIncremental(t, inc, e, "weblog append")
	if inc.Len() <= before {
		t.Fatalf("append of a matching line did not grow the result set (%d -> %d)", before, inc.Len())
	}
	if res.ReusedLeft == 0 {
		t.Fatalf("append reused no prefix mappings: %+v", res)
	}
	n := inc.Doc().Len()
	if maxSteps := res.FwdSteps + res.BwdSteps; maxSteps > n/2 {
		t.Fatalf("append reswept %d of %d positions; want a bounded tail: %+v", maxSteps, n, res)
	}
	if res.Recomputed >= inc.Len() {
		t.Fatalf("append recomputed the whole result set: %+v", res)
	}
}

// TestIncrementalUnsupportedEngine asserts the capability gate: the
// interpreted and non-sequential engines refuse an incremental session
// instead of producing wrong answers.
func TestIncrementalUnsupportedEngine(t *testing.T) {
	e := incEngine(t, `.*(x{ab*}c).*`)
	e.ForceInterpreted()
	if _, ok := NewIncremental(e, span.NewDocument("abc")); ok {
		t.Fatal("interpreted engine accepted an incremental session")
	}
	if _, ok := NewIncremental(nil, span.NewDocument("abc")); ok {
		t.Fatal("nil engine accepted an incremental session")
	}
}

// TestIncrementalMemoryBytes checks the store-accounting estimate: it
// is nonzero and grows with the document, and each cached mapping is
// charged what the session retains for it — one 16-byte span per
// column of its tuple plus its 16-byte extent. Two documents of equal
// length hold the same snapshots, so their difference is the result
// slab alone.
func TestIncrementalMemoryBytes(t *testing.T) {
	e := incEngine(t, `.*(Seller: x{[^,\n]*}, ID(y{\d*})\n).*`)
	row := "Seller: Ann, ID7\n"
	small := newIncremental(e, span.NewDocument(row), 64)
	big := newIncremental(e, span.NewDocument(strings.Repeat(row, 400)), 64)
	none := newIncremental(e, span.NewDocument(strings.Repeat("x", 400*len(row))), 64)
	if small.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes() = %d on a small session", small.MemoryBytes())
	}
	if big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatalf("MemoryBytes() did not grow with the document: small=%d big=%d",
			small.MemoryBytes(), big.MemoryBytes())
	}
	if big.Len() != 400 || none.Len() != 0 {
		t.Fatalf("sessions hold %d and %d mappings, want 400 and 0", big.Len(), none.Len())
	}
	perMapping := 16*len(e.Columns()) + 16
	if got, want := big.MemoryBytes()-none.MemoryBytes(), big.Len()*perMapping; got != want {
		t.Fatalf("400 cached mappings charged %d bytes, want %d (%d per mapping)", got, want, perMapping)
	}
	if got := len(big.results.tuples); got != big.Len()*len(e.Columns()) {
		t.Fatalf("result slab holds %d spans for %d mappings of %d columns", got, big.Len(), len(e.Columns()))
	}
}

// TestNewIncrementalDefaults exercises the exported constructor (with
// its size-derived snapshot spacing) and the cumulative Stats
// counters the public API surfaces.
func TestNewIncrementalDefaults(t *testing.T) {
	e := incEngine(t, `.*(Seller: x{[^,\n]*}, ID(y{\d*})\n).*`)
	text := strings.Repeat("Seller: Ann, ID7\nnoise line here\n", 40)
	inc, ok := NewIncremental(e, span.NewDocument(text))
	if !ok {
		t.Fatal("NewIncremental refused a compiled sequential engine")
	}
	if got := inc.Stats(); got.FullRuns != 1 || got.Splices != 0 {
		t.Fatalf("fresh session stats = %+v", got)
	}
	if _, err := inc.Splice(inc.Doc().Len(), 0, "Seller: Bob, ID9\n"); err != nil {
		t.Fatal(err)
	}
	assertIncremental(t, inc, e, "append via default block size")
	st := inc.Stats()
	if st.Splices != 1 || st.FwdSteps == 0 {
		t.Fatalf("post-splice stats = %+v", st)
	}
	// The default spacing clamps to [64, 4096] around n/256.
	for n, want := range map[int]int{0: 64, 100_000: 390, 10_000_000: 4096} {
		if got := incBlockSize(n); got != want {
			t.Errorf("incBlockSize(%d) = %d, want %d", n, got, want)
		}
	}
}
