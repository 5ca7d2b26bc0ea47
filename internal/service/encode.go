package service

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"spanners"
	"spanners/internal/span"
)

// Result is the wire form of one output mapping, already encoded: the
// JSON object {"x":{"start":1,"end":5,"content":"…"},…} over the
// assigned variables only — a variable absent from it was not
// extracted, which is the incomplete-information semantics, not an
// error. Spans are 1-based rune positions (start, end) in the paper's
// convention, and content saves clients re-slicing the document. The
// bytes are exactly those encoding/json writes for the equivalent
// map[string]struct{Start, End int; Content string}: keys sorted, HTML
// characters and U+2028/U+2029 escaped. The results of one document are
// slices of one buffer; a streamed Result is borrowed until its yield
// returns.
type Result = json.RawMessage

// appendResult is the service's one result encoder. It appends the
// encoding of one mapping — the tuple t over cols, sorted by name, in
// which the zero Span is ⊥ — to buf, reading span contents straight
// from d.
func appendResult(buf []byte, d *span.Document, cols []span.Var, t []span.Span) []byte {
	buf = append(buf, '{')
	open := len(buf)
	for i, sp := range t {
		if sp == (span.Span{}) {
			continue
		}
		if len(buf) > open {
			buf = append(buf, ',')
		}
		buf = appendString(buf, string(cols[i]))
		buf = append(buf, `:{"start":`...)
		buf = strconv.AppendInt(buf, int64(sp.Start), 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendInt(buf, int64(sp.End), 10)
		buf = append(buf, `,"content":`...)
		buf = appendContent(buf, d, sp)
		buf = append(buf, '}')
	}
	return append(buf, '}')
}

// mappingTuple is the Mapping adapter for the paths that hold maps —
// rule queries and the library's Enumerate: the domain of m, sorted,
// as the columns, and its spans as the tuple.
func mappingTuple(m spanners.Mapping) ([]span.Var, []span.Span) {
	cols := m.Domain()
	t := make([]span.Span, len(cols))
	for i, v := range cols {
		t[i] = m[v]
	}
	return cols, t
}

// EncodeMapping renders m against d as a wire result, through the same
// encoder as the tuple path.
func EncodeMapping(d *spanners.Document, m spanners.Mapping) Result {
	cols, t := mappingTuple(m)
	return appendResult(nil, d, cols, t)
}

// appendContent appends the JSON string of d's content at sp: the
// document's own bytes when it is ASCII, its runes otherwise (where an
// invalid UTF-8 byte already reads as U+FFFD).
func appendContent(buf []byte, d *span.Document, sp span.Span) []byte {
	if text := d.ASCIIText(); text != "" {
		return appendString(buf, text[sp.Start-1:sp.End-1])
	}
	buf = append(buf, '"')
	for pos := sp.Start; pos < sp.End; pos++ {
		r := d.RuneAt(pos)
		switch {
		case r < utf8.RuneSelf:
			buf = appendByte(buf, byte(r))
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			buf = utf8.AppendRune(buf, r)
		}
	}
	return append(buf, '"')
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it: invalid UTF-8 becomes \ufffd.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if !htmlSafe[b] {
				buf = appendByte(append(buf, s[start:i]...), b)
				start = i + 1
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(append(buf, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(append(buf, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(buf, s[start:]...), '"')
}

// appendByte appends one ASCII byte of a JSON string, escaped when it
// must be.
func appendByte(buf []byte, b byte) []byte {
	if htmlSafe[b] {
		return append(buf, b)
	}
	switch b {
	case '\\', '"':
		return append(buf, '\\', b)
	case '\b':
		return append(buf, '\\', 'b')
	case '\f':
		return append(buf, '\\', 'f')
	case '\n':
		return append(buf, '\\', 'n')
	case '\r':
		return append(buf, '\\', 'r')
	case '\t':
		return append(buf, '\\', 't')
	}
	return append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string holds verbatim: not a
// control byte, quote or backslash, and none of the HTML characters
// <, > and & that encoding/json escapes by default.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// Batch holds the encoded results of one request's documents in
// pooled buffers: each encoder (a batch worker, a stored-document
// extraction) appends its documents' results back to back into a
// buffer of its own, so every result is written once, and Docs views
// them in input order. The Batch owns the buffers until Release, which
// returns them for reuse and ends the views. One request uses a Batch
// at a time.
type Batch struct {
	// Docs holds each document's results, in the order the documents
	// were extracted into the Batch.
	Docs  [][]Result
	views []Result
	bufs  []*resultBuf
	spans []docSpan
}

// resultBuf is one encoder's buffer: results back to back, the k-th
// ending at ends[k].
type resultBuf struct {
	b    []byte
	ends []int
}

// docSpan locates one document's results: ends[lo:hi] of rb.
type docSpan struct {
	rb     *resultBuf
	lo, hi int
}

var (
	batchPool     = sync.Pool{New: func() any { return new(Batch) }}
	resultBufPool = sync.Pool{New: func() any { return new(resultBuf) }}
)

// maxPooledResultBytes and maxPooledResults keep the buffers of huge
// result sets out of the pools.
const (
	maxPooledResultBytes = 1 << 20
	maxPooledResults     = 1 << 14
)

// NewBatch returns an empty Batch, recycled from earlier requests.
func NewBatch() *Batch { return batchPool.Get().(*Batch) }

// Release returns the Batch and its buffers for reuse. The results in
// Docs must not be read after it.
func (b *Batch) Release() {
	for _, rb := range b.bufs {
		if cap(rb.b) <= maxPooledResultBytes {
			rb.b, rb.ends = rb.b[:0], rb.ends[:0]
			resultBufPool.Put(rb)
		}
	}
	if cap(b.views) > maxPooledResults || cap(b.Docs) > maxPooledResults {
		return
	}
	clear(b.bufs)
	clear(b.views)
	clear(b.Docs)
	clear(b.spans)
	b.Docs, b.views, b.bufs, b.spans = b.Docs[:0], b.views[:0], b.bufs[:0], b.spans[:0]
	batchPool.Put(b)
}

// detach copies the results in Docs into one buffer the caller owns,
// releases b and returns them, one slice per document.
func (b *Batch) detach() [][]Result {
	n, size := 0, 0
	for _, doc := range b.Docs {
		n += len(doc)
		for _, r := range doc {
			size += len(r)
		}
	}
	buf := make([]byte, 0, size)
	views := make([]Result, 0, n)
	out := make([][]Result, len(b.Docs))
	for i, doc := range b.Docs {
		first := len(views)
		for _, r := range doc {
			buf = append(buf, r...)
			views = append(views, buf[len(buf)-len(r):len(buf):len(buf)])
		}
		out[i] = views[first:len(views):len(views)]
	}
	b.Release()
	return out
}

// newBuf gives the Batch one more encoder buffer.
func (b *Batch) newBuf() *resultBuf {
	rb := resultBufPool.Get().(*resultBuf)
	b.bufs = append(b.bufs, rb)
	return rb
}

// view appends to Docs the documents spans locates, once their
// encoders have finished writing.
func (b *Batch) view(spans []docSpan) {
	n := 0
	for _, sp := range spans {
		n += sp.hi - sp.lo
	}
	b.views = slices.Grow(b.views, n)
	for _, sp := range spans {
		first, start := len(b.views), 0
		if sp.lo > 0 {
			start = sp.rb.ends[sp.lo-1]
		}
		for _, end := range sp.rb.ends[sp.lo:sp.hi] {
			b.views = append(b.views, sp.rb.b[start:end:end])
			start = end
		}
		b.Docs = append(b.Docs, b.views[first:len(b.views):len(b.views)])
	}
}

func (rb *resultBuf) add(d *span.Document, cols []span.Var, t []span.Span) {
	rb.b = appendResult(rb.b, d, cols, t)
	rb.ends = append(rb.ends, len(rb.b))
}
