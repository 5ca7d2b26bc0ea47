// Package docstore is the bounded in-memory store behind the
// /v1/documents API: named, versioned documents that are edited by
// byte-offset splices rather than re-uploaded, so the service can
// maintain extraction results incrementally instead of recomputing
// them from byte 0 on every change.
//
// The store holds three things per document: the text, a short
// journal of recent splices (so extraction state attached at an older
// version can catch up by replaying edits instead of rebuilding), and
// a small set of opaque attachments keyed by compiled-program
// fingerprint (the service parks its incremental sessions there).
// Everything is accounted against one byte budget with LRU eviction
// of whole documents, so a long-running server cannot be grown
// without bound by PUTs.
package docstore

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"sync"
	"unicode/utf8"
)

// Typed errors, mapped to stable API error codes by the server.
var (
	// ErrNotFound reports an unknown document id.
	ErrNotFound = errors.New("docstore: document not found")
	// ErrTooLarge reports a document that cannot fit the byte budget
	// even with every other document evicted.
	ErrTooLarge = errors.New("docstore: document exceeds the store's byte budget")
	// ErrBadSplice reports an edit outside the document, off a UTF-8
	// rune boundary, or inserting invalid UTF-8.
	ErrBadSplice = errors.New("docstore: bad splice")
)

// Splice is one edit: delete DeleteLen bytes at byte offset Offset,
// then insert Insert there. A pure append is {Offset: len(text)}.
type Splice struct {
	Offset    int    `json:"offset"`
	DeleteLen int    `json:"delete_len"`
	Insert    string `json:"insert"`
}

// Doc is an immutable snapshot of a stored document.
type Doc struct {
	ID      string `json:"id"`
	Version int64  `json:"version"`
	Text    string `json:"text"`
}

// Stats is a counter snapshot for /v1/healthz and /v1/metrics.
type Stats struct {
	Documents   int    `json:"documents"`
	Bytes       int64  `json:"bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
	Puts        uint64 `json:"puts"`
	Splices     uint64 `json:"splices"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
}

type attachment struct {
	val  any
	size int
	seq  uint64 // when it was last attached: the entry's attachSeq then
}

type entry struct {
	id          string
	text        string
	version     int64
	journalBase int64 // version the document had before journal[0]
	journal     []Splice
	attach      map[uint64]attachment
	attachSeq   uint64 // attachments made so far
	elem        *list.Element
	bytes       int64 // accounted: text + attachments + fixed overhead
}

const (
	entryOverhead = 256
	maxJournal    = 32
	maxAttach     = 4
)

// Store is a byte-budgeted LRU document store, safe for concurrent
// use.
type Store struct {
	mu     sync.Mutex
	budget int64
	used   int64
	docs   map[string]*entry
	lru    *list.List // front = most recently used

	puts, splices, hits, misses, evictions uint64
}

// New returns a store bounded by budgetBytes (minimum one page's
// worth; a non-positive budget gets a 64 MiB default).
func New(budgetBytes int64) *Store {
	if budgetBytes <= 0 {
		budgetBytes = 64 << 20
	}
	return &Store{budget: budgetBytes, docs: map[string]*entry{}, lru: list.New()}
}

// Budget returns the store's byte budget.
func (s *Store) Budget() int64 { return s.budget }

func (e *entry) snapshot() Doc { return Doc{ID: e.id, Version: e.version, Text: e.text} }

func (s *Store) touch(e *entry) { s.lru.MoveToFront(e.elem) }

// resize recomputes an entry's accounted bytes and evicts other
// documents (least recently used first) until the store fits its
// budget again.
func (s *Store) resize(e *entry) {
	nb := int64(len(e.text)) + entryOverhead
	for _, a := range e.attach {
		nb += int64(a.size)
	}
	s.used += nb - e.bytes
	e.bytes = nb
	for s.used > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		if victim == e {
			// The hot document alone overflows; nothing else to evict.
			break
		}
		s.dropLocked(victim)
		s.evictions++
	}
}

func (s *Store) dropLocked(e *entry) {
	s.lru.Remove(e.elem)
	delete(s.docs, e.id)
	s.used -= e.bytes
}

// Put creates or fully replaces a document, bumping its version and
// discarding any splice journal and attachments (a replacement
// invalidates extraction state wholesale). It fails with ErrTooLarge
// when the text alone cannot fit the budget.
func (s *Store) Put(id, text string) (Doc, error) {
	if int64(len(text))+entryOverhead > s.budget {
		return Doc{}, fmt.Errorf("%w: %d bytes against a %d-byte budget", ErrTooLarge, len(text), s.budget)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[id]
	if !ok {
		e = &entry{id: id}
		e.elem = s.lru.PushFront(e)
		s.docs[id] = e
	} else {
		s.touch(e)
	}
	e.text = text
	e.version++
	e.journalBase = e.version
	e.journal = nil
	e.attach = nil
	s.puts++
	s.resize(e)
	return e.snapshot(), nil
}

// Get returns a snapshot of the document.
func (s *Store) Get(id string) (Doc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[id]
	if !ok {
		s.misses++
		return Doc{}, false
	}
	s.hits++
	s.touch(e)
	return e.snapshot(), true
}

// Delete removes the document, reporting whether it existed.
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[id]
	if !ok {
		return false
	}
	s.dropLocked(e)
	return true
}

func byteBoundaryOK(t string, off int) bool {
	return off == len(t) || utf8.RuneStart(t[off])
}

// ApplySplice validates and applies one edit, bumps the version, and
// appends the edit to the document's journal (truncating the journal's
// reach when it exceeds its bound). Unknown ids return ErrNotFound;
// malformed edits return ErrBadSplice without changing anything.
func (s *Store) ApplySplice(id string, sp Splice) (Doc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[id]
	if !ok {
		s.misses++
		return Doc{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	t := e.text
	if sp.Offset < 0 || sp.DeleteLen < 0 || sp.Offset > len(t) || sp.Offset+sp.DeleteLen > len(t) {
		return Doc{}, fmt.Errorf("%w: range [%d,+%d) outside the %d-byte document", ErrBadSplice, sp.Offset, sp.DeleteLen, len(t))
	}
	if !byteBoundaryOK(t, sp.Offset) || !byteBoundaryOK(t, sp.Offset+sp.DeleteLen) {
		return Doc{}, fmt.Errorf("%w: offsets must fall on UTF-8 rune boundaries", ErrBadSplice)
	}
	if !utf8.ValidString(sp.Insert) {
		return Doc{}, fmt.Errorf("%w: insert is not valid UTF-8", ErrBadSplice)
	}
	nt := int64(len(t)-sp.DeleteLen+len(sp.Insert)) + entryOverhead
	if nt > s.budget {
		return Doc{}, fmt.Errorf("%w: splice grows the document past the %d-byte budget", ErrTooLarge, s.budget)
	}
	e.text = t[:sp.Offset] + sp.Insert + t[sp.Offset+sp.DeleteLen:]
	e.version++
	e.journal = append(e.journal, sp)
	if len(e.journal) > maxJournal {
		drop := len(e.journal) - maxJournal
		e.journal = append(e.journal[:0], e.journal[drop:]...)
		e.journalBase += int64(drop)
	}
	s.splices++
	s.touch(e)
	s.resize(e)
	return e.snapshot(), nil
}

// SplicesSince returns the edits that carry a reader at version v to
// the document's current version, oldest first, and the document at
// that version. Both are read under one lock, so the text is exactly
// what the last returned edit produced and a reader may adopt it
// instead of building its own. The third result is false when the
// journal no longer reaches back to v (or the id is unknown): the
// reader must rebuild from the full text instead.
func (s *Store) SplicesSince(id string, v int64) ([]Splice, Doc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[id]
	if !ok || v < e.journalBase {
		return nil, Doc{}, false
	}
	if v >= e.version {
		return nil, e.snapshot(), true
	}
	out := make([]Splice, e.version-v)
	copy(out, e.journal[v-e.journalBase:])
	return out, e.snapshot(), true
}

// Attach parks an opaque value (the service's incremental extraction
// session) on the document under a fingerprint key, accounting size
// bytes against the store budget. At most a handful of attachments
// are kept per document; when full, the least recently attached one
// is dropped, so a session its owner re-attaches after every use
// outlives one nobody touched since. Attaching to an unknown id is a
// no-op returning false.
func (s *Store) Attach(id string, key uint64, val any, size int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[id]
	if !ok {
		return false
	}
	if e.attach == nil {
		e.attach = make(map[uint64]attachment, maxAttach)
	}
	if _, exists := e.attach[key]; !exists && len(e.attach) >= maxAttach {
		oldest, seq := uint64(0), uint64(math.MaxUint64)
		for k, a := range e.attach {
			if a.seq < seq {
				oldest, seq = k, a.seq
			}
		}
		delete(e.attach, oldest)
	}
	e.attachSeq++
	e.attach[key] = attachment{val: val, size: size, seq: e.attachSeq}
	s.touch(e)
	s.resize(e)
	return true
}

// Attachment returns the value attached under key, if any.
func (s *Store) Attachment(id string, key uint64) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.docs[id]
	if !ok {
		return nil, false
	}
	a, ok := e.attach[key]
	if !ok {
		return nil, false
	}
	s.touch(e)
	return a.val, true
}

// Stats returns a counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Documents:   len(s.docs),
		Bytes:       s.used,
		BudgetBytes: s.budget,
		Puts:        s.puts,
		Splices:     s.splices,
		Hits:        s.hits,
		Misses:      s.misses,
		Evictions:   s.evictions,
	}
}
