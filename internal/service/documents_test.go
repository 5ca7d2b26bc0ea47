package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"spanners/internal/docstore"
	"spanners/internal/workload"
)

const docSellerExpr = `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`

// assertByReference checks that extract-by-reference agrees with plain
// extraction of the stored text.
func assertByReference(t *testing.T, svc *Service, q Query, id string) []Result {
	t.Helper()
	doc, ok := svc.Documents().Get(id)
	if !ok {
		t.Fatalf("document %q vanished", id)
	}
	got, err := svc.ExtractDocument(context.Background(), q, id)
	if err != nil {
		t.Fatalf("ExtractDocument(%q): %v", id, err)
	}
	want, err := svc.Extract(context.Background(), q, doc.Text)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("by-reference results differ from by-value:\ngot  %v\nwant %v", got, want)
	}
	return got
}

func TestExtractDocumentIncremental(t *testing.T) {
	svc := New(Config{})
	q := Query{Expr: docSellerExpr}
	st := svc.Documents()
	if _, err := st.Put("inv", "Seller: John, ID75\nBuyer: Marcelo, ID832\n"); err != nil {
		t.Fatalf("put: %v", err)
	}

	res := assertByReference(t, svc, q, "inv")
	if len(res) == 0 {
		t.Fatal("no results on the seeded document")
	}
	if d := svc.Stats().Documents; d.IncrementalRebuilds != 1 {
		t.Fatalf("first extraction should seed a session: %+v", d)
	}

	// Unchanged document: served from the cached result set.
	assertByReference(t, svc, q, "inv")
	if d := svc.Stats().Documents; d.IncrementalHits != 1 {
		t.Fatalf("second extraction should be a session hit: %+v", d)
	}

	// Append a line: the session catches up via the journal.
	if _, err := st.ApplySplice("inv", docstore.Splice{Offset: len("Seller: John, ID75\nBuyer: Marcelo, ID832\n"), Insert: "Seller: Mark, ID7, $35\n"}); err != nil {
		t.Fatalf("splice: %v", err)
	}
	res2 := assertByReference(t, svc, q, "inv")
	if len(res2) <= len(res) {
		t.Fatalf("append of a matching line did not grow results: %d -> %d", len(res), len(res2))
	}
	d := svc.Stats().Documents
	if d.IncrementalReplays != 1 {
		t.Fatalf("post-splice extraction should replay the journal: %+v", d)
	}
	if d.FullExtractions != 0 {
		t.Fatalf("incremental-capable query fell back to full extraction: %+v", d)
	}
}

func TestExtractDocumentNotFound(t *testing.T) {
	svc := New(Config{})
	_, err := svc.ExtractDocument(context.Background(), Query{Expr: docSellerExpr}, "ghost")
	if !errors.Is(err, ErrDocumentNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
}

func TestExtractDocumentRuleFallsBack(t *testing.T) {
	svc := New(Config{})
	if _, err := svc.Documents().Put("d", "Seller: John, ID75\n"); err != nil {
		t.Fatalf("put: %v", err)
	}
	q := Query{Rule: `.*<x>.* && x.(Seller)`}
	assertByReference(t, svc, q, "d")
	d := svc.Stats().Documents
	if d.FullExtractions != 1 || d.IncrementalRebuilds != 0 {
		t.Fatalf("rule query should take the full-extraction path: %+v", d)
	}
}

func TestExtractDocumentJournalOverflowRebuilds(t *testing.T) {
	svc := New(Config{})
	st := svc.Documents()
	if _, err := st.Put("d", "Seller: A, ID1\n"); err != nil {
		t.Fatalf("put: %v", err)
	}
	q := Query{Expr: docSellerExpr}
	assertByReference(t, svc, q, "d") // seeds the session
	// Push the journal past its bound so catch-up cannot replay.
	for i := 0; i < 40; i++ {
		if _, err := st.ApplySplice("d", docstore.Splice{Offset: 0, Insert: fmt.Sprintf("Seller: S%d, ID2\n", i)}); err != nil {
			t.Fatalf("splice %d: %v", i, err)
		}
	}
	assertByReference(t, svc, q, "d")
	d := svc.Stats().Documents
	if d.IncrementalRebuilds != 2 {
		t.Fatalf("journal overflow should force a rebuild: %+v", d)
	}
}

func TestExtractDocumentLimit(t *testing.T) {
	svc := New(Config{})
	if _, err := svc.Documents().Put("d", "Seller: A, ID1\nSeller: B, ID2\nSeller: C, ID3\n"); err != nil {
		t.Fatalf("put: %v", err)
	}
	res, err := svc.ExtractDocument(context.Background(), Query{Expr: docSellerExpr, Limit: 2}, "d")
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if len(res) != 2 {
		t.Fatalf("limit 2 returned %d results", len(res))
	}
}

func TestExtractDocumentEvictedSession(t *testing.T) {
	// A tiny budget evicts the document (and its session) between
	// extractions; re-extraction must re-put transparently fail with
	// not-found rather than serving stale results.
	svc := New(Config{DocStoreBytes: 2048})
	st := svc.Documents()
	if _, err := st.Put("a", "Seller: A, ID1\n"); err != nil {
		t.Fatalf("put a: %v", err)
	}
	q := Query{Expr: docSellerExpr}
	assertByReference(t, svc, q, "a")
	// Fill the store until "a" is evicted.
	for i := 0; i < 4; i++ {
		if _, err := st.Put(fmt.Sprintf("filler%d", i), "Seller: F, ID9\n"); err != nil {
			t.Fatalf("filler put: %v", err)
		}
	}
	if _, ok := st.Get("a"); ok {
		t.Skip("budget did not evict; store accounting changed")
	}
	if _, err := svc.ExtractDocument(context.Background(), q, "a"); !errors.Is(err, ErrDocumentNotFound) {
		t.Fatalf("evicted document: %v", err)
	}
}

func TestDocStoreBytesDefault(t *testing.T) {
	if got := New(Config{}).Documents().Budget(); got != 64<<20 {
		t.Fatalf("default budget: %d", got)
	}
	if got := New(Config{DocStoreBytes: 1 << 10}).Documents().Budget(); got != 1<<10 {
		t.Fatalf("explicit budget: %d", got)
	}
}

// sparseLineExpr matches only the lines of a web log whose method is
// TRACE, which workload.WebLog never emits: the result set stays
// small however long the log grows.
const sparseLineExpr = `.*m{TRACE} (p{/admin/[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`

// webLogOf returns an ASCII web log of at most size bytes, whole lines.
func webLogOf(size int) string {
	text := workload.WebLog(workload.WebLogOptions{Lines: size / 32, ReferProb: 0.35, Seed: 3})
	return text[:strings.LastIndexByte(text[:size], '\n')+1]
}

// TestCatchUpAllocsIndependentOfDocument: a warm session catches up
// after a one-line append without copying the document. The extract
// that replays the append must allocate less than |d|/8, at 64 KiB and
// at 1 MiB; the store's own copy (ApplySplice) is not counted. A
// session that builds its own edited text allocates |d| here. The log
// ends in a matching line, so each appended match changes the backward
// frontiers only back to the previous one and the resweeps stay short.
func TestCatchUpAllocsIndependentOfDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	const line = "10.0.0.9 TRACE /admin/keys 403 17 \"curl/8.0\"\n"
	q := Query{Expr: sparseLineExpr}
	ctx := context.Background()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools
	for _, size := range []int{64 << 10, 1 << 20} {
		svc := New(Config{})
		text := webLogOf(size-len(line)) + line
		if _, err := svc.Documents().Put("log", text); err != nil {
			t.Fatal(err)
		}
		extract := func() int {
			b := NewBatch()
			defer b.Release()
			if err := svc.ExtractDocumentInto(ctx, q, "log", b); err != nil {
				t.Fatal(err)
			}
			return len(b.Docs[0])
		}
		// The first extract seeds the session, and the first two replays
		// size its scratch and meet the appended line's DFA states; the
		// next three are measured.
		var worst uint64
		for i := 0; i <= 5; i++ {
			if i > 0 {
				if _, err := svc.Documents().ApplySplice("log", docstore.Splice{Offset: len(text), Insert: line}); err != nil {
					t.Fatal(err)
				}
				text += line
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := extract()
			runtime.ReadMemStats(&after)
			if n != i+1 {
				t.Fatalf("%d bytes: %d mappings over %d planted lines", size, n, i+1)
			}
			if i >= 3 {
				worst = max(worst, after.TotalAlloc-before.TotalAlloc)
			}
		}
		if d := svc.Stats().Documents; d.IncrementalReplays != 5 || d.IncrementalRebuilds != 1 {
			t.Fatalf("%d bytes: want 5 replays after 1 rebuild, got %+v", size, d)
		}
		if worst >= uint64(len(text)/8) {
			t.Errorf("%d-byte document: catching up after a one-line append allocated %d bytes, want < %d", len(text), worst, len(text)/8)
		}
	}
}

// TestSessionChargeExcludesSharedText: a stored document's session is
// charged what it owns, not the text it shares with the store, so a
// long ASCII document with few mappings costs the store about its
// text once.
func TestSessionChargeExcludesSharedText(t *testing.T) {
	svc := New(Config{})
	text := webLogOf(100 << 10)
	if _, err := svc.Documents().Put("log", text); err != nil {
		t.Fatal(err)
	}
	bare := svc.Stats().Documents.Store.Bytes
	if _, err := svc.ExtractDocument(context.Background(), Query{Expr: sparseLineExpr}, "log"); err != nil {
		t.Fatal(err)
	}
	session := svc.Stats().Documents.Store.Bytes - bare
	if session <= 0 || session >= int64(len(text)) {
		t.Fatalf("a session over a %d-byte text with no mappings is charged %d bytes, want more than 0 and less than the text", len(text), session)
	}
}

// TestConcurrentPatchAndExtract: extract-by-id racing PATCHes always
// serves the results of some text the document went through, and once
// the edits stop it serves those of the final text. This guards the
// rule that a session adopts the store's text only for the splice that
// ends at that text's version.
func TestConcurrentPatchAndExtract(t *testing.T) {
	svc := New(Config{Workers: 2})
	q := Query{Expr: docSellerExpr}
	ctx := context.Background()
	const base = "Seller: Ann, ID1\nBuyer: Bo, ID2\n"
	if _, err := svc.Documents().Put("inv", base); err != nil {
		t.Fatal(err)
	}
	edits := []docstore.Splice{
		{Offset: len(base), Insert: "Seller: Cy, ID3, $9\n"},
		{Offset: 8, DeleteLen: 3, Insert: "Añé"}, // multi-byte, same rune count
		{Offset: 0, Insert: "Seller: Dee, ID4\n"},
		{Offset: 0, DeleteLen: 17},
		{Offset: 8, DeleteLen: 5, Insert: "Eve"},
	}
	// The edits and their undos, twenty times over, then the edits once
	// more, and the texts the document goes through.
	texts := []string{base}
	var undos []docstore.Splice
	for _, sp := range edits {
		cur := texts[len(texts)-1]
		texts = append(texts, cur[:sp.Offset]+sp.Insert+cur[sp.Offset+sp.DeleteLen:])
		undos = append(undos, docstore.Splice{Offset: sp.Offset, DeleteLen: len(sp.Insert), Insert: cur[sp.Offset : sp.Offset+sp.DeleteLen]})
	}
	slices.Reverse(undos)
	var patches []docstore.Splice
	for range 20 {
		patches = append(append(patches, edits...), undos...)
	}
	patches = append(patches, edits...)
	want := map[string]bool{}
	for _, text := range texts {
		res, err := svc.Extract(ctx, q, text)
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint(res)] = true
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := svc.ExtractDocument(ctx, q, "inv")
				if err != nil {
					t.Error(err)
					return
				}
				if !want[fmt.Sprint(res)] {
					t.Errorf("results of no text the document went through: %v", res)
					return
				}
			}
		}()
	}
	for _, sp := range patches {
		if _, err := svc.Documents().ApplySplice("inv", sp); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	close(done)
	wg.Wait()

	final, err := svc.Extract(ctx, q, texts[len(texts)-1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.ExtractDocument(ctx, q, "inv")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, final) {
		t.Fatalf("after the last PATCH:\ngot  %v\nwant %v", got, final)
	}
}

// spliceQueries are the queries FuzzSpliceSequence maintains: the web
// log's line query (four variables, one optional) and a line query
// over non-ASCII content.
var spliceQueries = []string{
	`.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`,
	`(.*\n|())x{[^\n]*é[^\n]*}\n.*`,
}

// splicePieces are the inserts random splices draw from.
var splicePieces = []string{"", "a", "é", "→", "\n", " 200 ", "GET / 200 7 \"c\"\n", "10.0.0.1 PUT /é 404 1 \"m\" ref=/\n"}

// runeBoundary moves byte offset off of text back to a rune start.
func runeBoundary(text string, off int) int {
	for off > 0 && off < len(text) && !utf8.RuneStart(text[off]) {
		off--
	}
	return off
}

// FuzzSpliceSequence applies splice sequences through the document
// store and checks, after each extract-by-id, that the session's
// results equal a from-scratch extraction of the store's text. The
// first splice is given (offsets snapped to rune boundaries), then n
// more are drawn from seed; extracts follow a random half of the
// splices, so replays carry one splice or several. Every catch-up must
// be a replay: the journal reaches back further than the sequence.
func FuzzSpliceSequence(f *testing.F) {
	text := workload.WebLog(workload.WebLogOptions{Lines: 6, ReferProb: 0.5, Seed: 1})
	for _, seed := range []struct {
		off, del uint16
		ins      string
		n        uint8
	}{
		{40, 0, "é→", 0},                                 // multi-byte insert into an ASCII document
		{60, 10, "", 0},                                  // delete across the snapshot at boundary 65
		{0, uint16(len(text)), "", 0},                    // delete everything
		{uint16(len(text)), 0, "GET / 200 7 \"c\"\n", 0}, // pure append
		{10, 3, "xyz", 0},                                // equal-length replace
		{100, 4, "\n", 12},
	} {
		for q := range spliceQueries {
			f.Add(text, seed.off, seed.del, seed.ins, int64(q), seed.n)
		}
	}
	svc := New(Config{})
	f.Fuzz(func(t *testing.T, text string, off, del uint16, ins string, seed int64, n uint8) {
		if len(text) > 1024 || len(ins) > 64 || !utf8.ValidString(text) || n > 16 {
			return
		}
		ins = strings.ToValidUTF8(ins, "?")
		rng := rand.New(rand.NewSource(seed))
		q := Query{Expr: spliceQueries[uint64(seed)%uint64(len(spliceQueries))]}
		st := svc.Documents()
		if _, err := st.Put("d", text); err != nil {
			t.Fatal(err)
		}
		assertByReference(t, svc, q, "d")
		rebuilds := svc.Stats().Documents.IncrementalRebuilds

		cur := text
		for i := 0; i <= int(n); i++ {
			var sp docstore.Splice
			if i == 0 {
				o := runeBoundary(cur, int(off)%(len(cur)+1))
				end := runeBoundary(cur, o+int(del)%(len(cur)-o+1))
				sp = docstore.Splice{Offset: o, DeleteLen: end - o, Insert: ins}
			} else {
				o := runeBoundary(cur, rng.Intn(len(cur)+1))
				end := runeBoundary(cur, o+rng.Intn(min(8, len(cur)-o)+1))
				sp = docstore.Splice{Offset: o, DeleteLen: end - o, Insert: splicePieces[rng.Intn(len(splicePieces))]}
			}
			if _, err := st.ApplySplice("d", sp); err != nil {
				t.Fatalf("splice %d %+v on %q: %v", i, sp, cur, err)
			}
			cur = cur[:sp.Offset] + sp.Insert + cur[sp.Offset+sp.DeleteLen:]
			if i == int(n) || rng.Intn(2) == 0 {
				assertByReference(t, svc, q, "d")
			}
		}
		if got := svc.Stats().Documents.IncrementalRebuilds; got != rebuilds {
			t.Fatalf("%d catch-ups rebuilt the session instead of replaying the journal", got-rebuilds)
		}
	})
}
