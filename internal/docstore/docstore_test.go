package docstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestPutGetDelete(t *testing.T) {
	s := New(1 << 20)
	d, err := s.Put("a", "hello")
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if d.ID != "a" || d.Version != 1 || d.Text != "hello" {
		t.Fatalf("put snapshot: %+v", d)
	}
	got, ok := s.Get("a")
	if !ok || got != d {
		t.Fatalf("get: %+v ok=%v", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("get of unknown id succeeded")
	}
	d2, err := s.Put("a", "replaced")
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if d2.Version != 2 || d2.Text != "replaced" {
		t.Fatalf("replace snapshot: %+v", d2)
	}
	if !s.Delete("a") {
		t.Fatal("delete reported missing")
	}
	if s.Delete("a") {
		t.Fatal("double delete succeeded")
	}
	st := s.Stats()
	if st.Documents != 0 || st.Bytes != 0 {
		t.Fatalf("stats after delete: %+v", st)
	}
	if st.Puts != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestPutTooLarge(t *testing.T) {
	s := New(1024)
	if _, err := s.Put("big", strings.Repeat("x", 2048)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized put: %v", err)
	}
}

func TestSplice(t *testing.T) {
	s := New(1 << 20)
	if _, err := s.Put("d", "hello world"); err != nil {
		t.Fatalf("put: %v", err)
	}
	cases := []struct {
		sp   Splice
		want string
	}{
		{Splice{Offset: 5, DeleteLen: 6, Insert: ", doc"}, "hello, doc"},
		{Splice{Offset: 0, DeleteLen: 1, Insert: "H"}, "Hello, doc"},
		{Splice{Offset: 10, DeleteLen: 0, Insert: "!"}, "Hello, doc!"}, // pure append
		{Splice{Offset: 5, DeleteLen: 5, Insert: ""}, "Hello!"},        // delete-only
	}
	for i, tc := range cases {
		d, err := s.ApplySplice("d", tc.sp)
		if err != nil {
			t.Fatalf("splice %d: %v", i, err)
		}
		if d.Text != tc.want {
			t.Fatalf("splice %d: got %q want %q", i, d.Text, tc.want)
		}
		if d.Version != int64(i+2) {
			t.Fatalf("splice %d: version %d", i, d.Version)
		}
	}
}

func TestSpliceErrors(t *testing.T) {
	s := New(1 << 20)
	if _, err := s.Put("d", "héllo"); err != nil { // é is two bytes at offsets 1-2
		t.Fatalf("put: %v", err)
	}
	if _, err := s.ApplySplice("nope", Splice{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
	for name, sp := range map[string]Splice{
		"offset-past-eof": {Offset: 7},
		"delete-past-eof": {Offset: 4, DeleteLen: 5},
		"negative-offset": {Offset: -1},
		"negative-delete": {DeleteLen: -1},
		"mid-rune-offset": {Offset: 2},
		"mid-rune-end":    {Offset: 1, DeleteLen: 1},
		"bad-utf8-insert": {Offset: 0, Insert: "\xff\xfe"},
	} {
		if _, err := s.ApplySplice("d", sp); !errors.Is(err, ErrBadSplice) {
			t.Fatalf("%s: got %v, want ErrBadSplice", name, err)
		}
	}
	if d, _ := s.Get("d"); d.Text != "héllo" || d.Version != 1 {
		t.Fatalf("rejected splices disturbed the document: %+v", d)
	}
	if _, err := s.ApplySplice("d", Splice{Offset: 0, DeleteLen: 3}); err != nil {
		t.Fatalf("rune-boundary delete of é: %v", err)
	}
}

func TestSpliceBudget(t *testing.T) {
	s := New(1024)
	if _, err := s.Put("d", strings.Repeat("x", 512)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := s.ApplySplice("d", Splice{Offset: 0, Insert: strings.Repeat("y", 1024)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-budget splice: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(4 * (512 + entryOverhead))
	for i := 0; i < 4; i++ {
		if _, err := s.Put(fmt.Sprintf("d%d", i), strings.Repeat("x", 512)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	s.Get("d0") // refresh d0 so d1 is the LRU victim
	if _, err := s.Put("d4", strings.Repeat("x", 512)); err != nil {
		t.Fatalf("put d4: %v", err)
	}
	if _, ok := s.Get("d1"); ok {
		t.Fatal("LRU victim d1 survived")
	}
	for _, id := range []string{"d0", "d2", "d3", "d4"} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("%s was evicted; want only d1 gone", id)
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions: %+v", st)
	}
}

func TestJournalAndSplicesSince(t *testing.T) {
	s := New(1 << 20)
	if _, err := s.Put("d", "base"); err != nil {
		t.Fatalf("put: %v", err)
	}
	var applied []Splice
	for i := 0; i < 5; i++ {
		sp := Splice{Offset: 0, Insert: fmt.Sprintf("%d", i)}
		applied = append(applied, sp)
		if _, err := s.ApplySplice("d", sp); err != nil {
			t.Fatalf("splice %d: %v", i, err)
		}
	}
	// Catch up from version 3: expect the last 3 splices, ending at the
	// current text.
	got, end, ok := s.SplicesSince("d", 3)
	if !ok || len(got) != 3 {
		t.Fatalf("SplicesSince(3): %v ok=%v", got, ok)
	}
	for i, sp := range got {
		if sp != applied[i+2] {
			t.Fatalf("SplicesSince(3)[%d] = %+v, want %+v", i, sp, applied[i+2])
		}
	}
	if end.Version != 6 || end.Text != "43210base" {
		t.Fatalf("SplicesSince(3) ends at %+v, want version 6, text 43210base", end)
	}
	if got, end, ok := s.SplicesSince("d", 6); !ok || len(got) != 0 || end.Version != 6 {
		t.Fatalf("SplicesSince(current): %v %+v ok=%v", got, end, ok)
	}
	if _, _, ok := s.SplicesSince("missing", 1); ok {
		t.Fatal("SplicesSince on unknown id succeeded")
	}
	// Replacing the document resets the journal: version 6's journal no
	// longer reaches back to pre-replace versions.
	if _, err := s.Put("d", "fresh"); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if _, _, ok := s.SplicesSince("d", 3); ok {
		t.Fatal("journal survived a full replace")
	}
}

func TestJournalBound(t *testing.T) {
	s := New(1 << 20)
	if _, err := s.Put("d", ""); err != nil {
		t.Fatalf("put: %v", err)
	}
	for i := 0; i < maxJournal+10; i++ {
		if _, err := s.ApplySplice("d", Splice{Insert: "x"}); err != nil {
			t.Fatalf("splice %d: %v", i, err)
		}
	}
	if _, _, ok := s.SplicesSince("d", 1); ok {
		t.Fatal("journal reached back past its bound")
	}
	d, _ := s.Get("d")
	if got, _, ok := s.SplicesSince("d", d.Version-maxJournal); !ok || len(got) != maxJournal {
		t.Fatalf("full-journal catch-up: %d ok=%v", len(got), ok)
	}
}

func TestAttachments(t *testing.T) {
	s := New(1 << 20)
	if _, err := s.Put("d", "text"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if s.Attach("missing", 1, "v", 8) {
		t.Fatal("attach to unknown id succeeded")
	}
	if !s.Attach("d", 42, "session", 100) {
		t.Fatal("attach failed")
	}
	v, ok := s.Attachment("d", 42)
	if !ok || v != "session" {
		t.Fatalf("attachment: %v ok=%v", v, ok)
	}
	if _, ok := s.Attachment("d", 43); ok {
		t.Fatal("unknown key returned a value")
	}
	if _, ok := s.Attachment("missing", 42); ok {
		t.Fatal("unknown id returned a value")
	}
	// Cap: after maxAttach+2 distinct keys only maxAttach remain.
	for k := uint64(0); k < maxAttach+2; k++ {
		s.Attach("d", k, k, 8)
	}
	kept := 0
	for k := uint64(0); k < maxAttach+2; k++ {
		if _, ok := s.Attachment("d", k); ok {
			kept++
		}
	}
	if kept != maxAttach {
		t.Fatalf("kept %d attachments; cap is %d", kept, maxAttach)
	}
	// A full replace drops attachments.
	if _, err := s.Put("d", "new text"); err != nil {
		t.Fatalf("replace: %v", err)
	}
	for k := uint64(0); k < maxAttach+2; k++ {
		if _, ok := s.Attachment("d", k); ok {
			t.Fatalf("attachment %d survived a full replace", k)
		}
	}
}

// TestAttachEvictsLeastRecentlyAttached: a full attachment set drops
// the entry attached longest ago, so a session re-attached after every
// use survives a stream of one-off ones.
func TestAttachEvictsLeastRecentlyAttached(t *testing.T) {
	s := New(1 << 20)
	if _, err := s.Put("d", "text"); err != nil {
		t.Fatalf("put: %v", err)
	}
	const hot = 100
	s.Attach("d", hot, "hot", 8)
	for k := uint64(0); k < 3*maxAttach; k++ {
		s.Attach("d", k, k, 8)
		s.Attach("d", hot, "hot", 8)
		if _, ok := s.Attachment("d", hot); !ok {
			t.Fatalf("after attaching %d, the re-attached session was evicted", k)
		}
		// Besides the hot one, the maxAttach-1 latest stay.
		for old := uint64(0); old <= k; old++ {
			_, ok := s.Attachment("d", old)
			if want := old+maxAttach-1 > k; ok != want {
				t.Fatalf("after attaching %d, attachment %d kept = %v, want %v; cap is %d", k, old, ok, want, maxAttach)
			}
		}
	}
}

func TestAttachmentBytesCountAgainstBudget(t *testing.T) {
	s := New(2*(64+entryOverhead) + 512)
	if _, err := s.Put("a", strings.Repeat("x", 64)); err != nil {
		t.Fatalf("put a: %v", err)
	}
	if _, err := s.Put("b", strings.Repeat("x", 64)); err != nil {
		t.Fatalf("put b: %v", err)
	}
	// Attaching a large value to b must evict a (the LRU victim).
	if !s.Attach("b", 1, "big", 600) {
		t.Fatal("attach failed")
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("a survived an over-budget attachment on b")
	}
	if _, ok := s.Get("b"); !ok {
		t.Fatal("b itself was evicted")
	}
}

func TestDefaultBudget(t *testing.T) {
	if got := New(0).Budget(); got != 64<<20 {
		t.Fatalf("default budget: %d", got)
	}
	if got := New(123).Budget(); got != 123 {
		t.Fatalf("explicit budget: %d", got)
	}
}
