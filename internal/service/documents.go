package service

import (
	"context"
	"fmt"
	"sync"
	"unicode/utf8"

	"spanners/internal/docstore"
	"spanners/internal/eval"
	"spanners/internal/span"
)

// ErrDocumentNotFound is returned by the by-reference extraction paths
// when the document id is unknown (or was evicted by the byte budget).
var ErrDocumentNotFound = docstore.ErrNotFound

// Documents returns the service's document store — the backing of the
// /v1/documents API. Nil only when the service predates the store
// (never in practice; New always builds one).
func (s *Service) Documents() *docstore.Store { return s.docs }

// incSession is an incremental extraction session parked on a stored
// document, keyed by the compiled program's fingerprint. The mutex
// serializes catch-up and result encoding: the underlying session is
// single-writer, and EachTuple borrows its tuples.
type incSession struct {
	mu      sync.Mutex
	eng     *eval.Engine
	inc     *eval.IncState
	version int64
}

// DocumentStats extends the store's counters with the incremental
// serving paths: hits served straight from an up-to-date session,
// replays that caught a session up through the splice journal,
// rebuilds that re-extracted from the full text to (re)seed a session,
// and full extractions by spanners that cannot maintain results
// incrementally.
type DocumentStats struct {
	Store               docstore.Stats `json:"store"`
	IncrementalHits     uint64         `json:"incremental_hits"`
	IncrementalReplays  uint64         `json:"incremental_replays"`
	IncrementalRebuilds uint64         `json:"incremental_rebuilds"`
	FullExtractions     uint64         `json:"full_extractions"`
}

func (s *Service) documentStats() DocumentStats {
	return DocumentStats{
		Store:               s.docs.Stats(),
		IncrementalHits:     s.incHits.Load(),
		IncrementalReplays:  s.incReplays.Load(),
		IncrementalRebuilds: s.incRebuilds.Load(),
		FullExtractions:     s.incFull.Load(),
	}
}

// ExtractDocument is ExtractDocumentInto for callers that keep the
// results: it returns the document's results, copied out of the Batch.
func (s *Service) ExtractDocument(ctx context.Context, q Query, id string) ([]Result, error) {
	b := NewBatch()
	if err := s.ExtractDocumentInto(ctx, q, id, b); err != nil {
		b.Release()
		return nil, err
	}
	return b.detach()[0], nil
}

// ExtractDocumentInto evaluates q over the stored document id and
// appends its results to b.Docs. When the query resolves to a compiled
// sequential spanner, results come from an incremental session
// attached to the document: an unchanged document re-serves its cached
// result set, and a spliced one pays only the edit-neighbourhood
// resweep (journal replay) rather than a from-scratch extraction.
// Everything else falls back to plain extraction of the stored text.
func (s *Service) ExtractDocumentInto(ctx context.Context, q Query, id string, b *Batch) error {
	doc, ok := s.docs.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrDocumentNotFound, id)
	}
	c, err := s.CompileQueryCtx(ctx, q)
	if err != nil {
		return err
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	e := c.newEncoder(b.newBuf())
	if err := s.encodeDocument(ctx, c, doc, e); err != nil {
		return err
	}
	b.view([]docSpan{e.end()})
	return nil
}

// encodeDocument encodes the results of q over doc with e, from its
// incremental session when it has one.
func (s *Service) encodeDocument(ctx context.Context, c *Compiled, doc docstore.Doc, e *encoder) error {
	sess, fresh := s.sessionFor(c, doc)
	if sess == nil {
		if err := c.Affordable(doc.Text); err != nil {
			return fmt.Errorf("document %q: %w", doc.ID, err)
		}
		s.incFull.Add(1)
		return e.extract(ctx, doc.Text, nil)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := s.catchUp(sess, doc, fresh); err != nil {
		// The journal or session failed us; extract the snapshot text.
		s.incFull.Add(1)
		return e.extract(ctx, doc.Text, nil)
	}
	s.docs.Attach(doc.ID, c.fingerprint(), sess, sess.inc.MemoryBytes())

	// Encode under the session lock: EachTuple borrows its tuples.
	e.begin(sess.inc.Doc())
	cols := sess.eng.Columns()
	sess.inc.EachTuple(func(t []span.Span) bool { return e.yield(cols, t) })
	return nil
}

// fingerprint is the compiled program's fingerprint, the key sessions
// attach under; 0 when the query has no compiled program.
func (c *Compiled) fingerprint() uint64 {
	if c.eng == nil || !c.eng.Compiled() {
		return 0
	}
	return c.eng.Program().Fingerprint()
}

// sessionFor finds or creates the incremental session for the compiled
// query on doc (fresh reports a newly seeded session), or returns nil
// when the query cannot be served incrementally (rules, interpreted or
// non-sequential spanners).
func (s *Service) sessionFor(c *Compiled, doc docstore.Doc) (sess *incSession, fresh bool) {
	fp := c.fingerprint()
	if fp == 0 {
		return nil, false
	}
	if v, ok := s.docs.Attachment(doc.ID, fp); ok {
		if sess, ok := v.(*incSession); ok {
			return sess, false
		}
	}
	inc, ok := eval.NewIncremental(c.eng, span.NewDocument(doc.Text))
	if !ok {
		return nil, false
	}
	s.incRebuilds.Add(1)
	sess = &incSession{eng: c.eng, inc: inc, version: doc.Version}
	s.docs.Attach(doc.ID, fp, sess, inc.MemoryBytes())
	return sess, true
}

// catchUp brings a session from its recorded version to the store's
// current one, by journal replay when the journal still reaches back
// that far and by a full rebuild otherwise. A concurrent PATCH may
// carry the session past doc.Version; it then serves that later
// version. Callers hold sess.mu.
func (s *Service) catchUp(sess *incSession, doc docstore.Doc, fresh bool) error {
	if sess.version == doc.Version {
		if !fresh {
			s.incHits.Add(1)
		}
		return nil
	}
	if splices, end, ok := s.docs.SplicesSince(doc.ID, sess.version); ok && replay(sess, splices, end) {
		s.incReplays.Add(1)
		return nil
	}
	// Journal truncated (or the replay raced a concurrent edit):
	// re-seed the session from the store's current text.
	cur, found := s.docs.Get(doc.ID)
	if !found {
		return fmt.Errorf("%w: %q", ErrDocumentNotFound, doc.ID)
	}
	inc, incOK := eval.NewIncremental(sess.eng, span.NewDocument(cur.Text))
	if !incOK {
		return fmt.Errorf("service: could not rebuild incremental session for %q", doc.ID)
	}
	sess.inc = inc
	sess.version = cur.Version
	s.incRebuilds.Add(1)
	return nil
}

// replay applies the journal's splices to the session, reporting
// whether every one applied. The last splice ends at end's version, so
// it adopts the store's text instead of building its own: catching up
// after one edit copies nothing of the document. Earlier splices have
// no text in the store and build theirs.
func replay(sess *incSession, splices []docstore.Splice, end docstore.Doc) bool {
	for i, sp := range splices {
		d := sess.inc.Doc()
		text := d.Text()
		if sp.Offset > len(text) || sp.Offset+sp.DeleteLen > len(text) {
			return false
		}
		// In an ASCII document byte offsets are rune offsets.
		off, del := sp.Offset, sp.DeleteLen
		if d.Len() != len(text) {
			off = utf8.RuneCountInString(text[:sp.Offset])
			del = utf8.RuneCountInString(text[sp.Offset : sp.Offset+sp.DeleteLen])
		}
		var next *span.Document
		if i < len(splices)-1 {
			next = d.Splice(off, del, sp.Insert)
		} else if len(end.Text) == len(text)-sp.DeleteLen+len(sp.Insert) {
			next = d.Edited(off, del, sp.Insert, end.Text)
		} else {
			return false // the document was replaced under the session
		}
		if _, err := sess.inc.SpliceDoc(off, del, next); err != nil {
			return false
		}
		sess.version++
	}
	return true
}
