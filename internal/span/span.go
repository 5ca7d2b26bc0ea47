// Package span defines the basic objects of the document-spanner
// framework of Maturana, Riveros and Vrgoč (PODS 2018): documents,
// spans, and (partial) mappings from variables to spans.
//
// A document is a finite string over an alphabet Σ. A span of a
// document d is a pair (i, j) with 1 ≤ i ≤ j ≤ |d|+1 denoting the
// contiguous region of d between positions i and j-1; its content is
// the substring d[i..j-1] (possibly empty when i = j). Information
// extraction is modelled as producing partial mappings from a set of
// variables to spans, which is what allows incomplete information:
// a variable simply absent from a mapping's domain is "not extracted".
package span

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Var is an extraction variable. Variables are disjoint from the
// document alphabet and are compared by name.
type Var string

// Span is a region (Start, End) of a document, 1-based, with
// 1 ≤ Start ≤ End ≤ len(document)+1. The content of the span is the
// substring from position Start to End-1; a span with Start == End has
// empty content but still carries positional information, which is why
// spans rather than substrings are the unit of extraction.
type Span struct {
	Start int
	End   int
}

// Sp is a shorthand constructor for Span{Start: start, End: end},
// mirroring the paper's (i, j) notation.
func Sp(start, end int) Span { return Span{Start: start, End: end} }

// String renders the span in the paper's (i, j) notation.
func (s Span) String() string { return fmt.Sprintf("(%d, %d)", s.Start, s.End) }

// Len returns the number of symbols covered by the span.
func (s Span) Len() int { return s.End - s.Start }

// IsEmpty reports whether the span has empty content (Start == End).
func (s Span) IsEmpty() bool { return s.Start == s.End }

// Valid reports whether the span is well formed for a document of
// length n, i.e. 1 ≤ Start ≤ End ≤ n+1.
func (s Span) Valid(n int) bool {
	return 1 <= s.Start && s.Start <= s.End && s.End <= n+1
}

// ContainedIn reports whether s lies inside t (t covers s).
func (s Span) ContainedIn(t Span) bool {
	return t.Start <= s.Start && s.End <= t.End
}

// Disjoint reports whether s and t share no positions. Adjacent spans
// (s.End == t.Start) are disjoint: they overlap only at a boundary.
func (s Span) Disjoint(t Span) bool {
	return s.End <= t.Start || t.End <= s.Start
}

// PointDisjoint reports whether the endpoint sets {Start, End} of the
// two spans are disjoint, the stronger notion used for the tractable
// containment fragment of Theorem 6.7.
func (s Span) PointDisjoint(t Span) bool {
	return s.Start != t.Start && s.Start != t.End &&
		s.End != t.Start && s.End != t.End
}

// Concat returns the concatenation s·t, defined when s.End == t.Start.
// The second result is false when the spans are not adjacent.
func (s Span) Concat(t Span) (Span, bool) {
	if s.End != t.Start {
		return Span{}, false
	}
	return Span{Start: s.Start, End: t.End}, true
}

// Document is a string over Σ together with its rune decomposition.
// Positions (and therefore spans) are measured in runes, so multi-byte
// UTF-8 documents behave like the paper's abstract alphabet strings.
// An ASCII document is its own decomposition, one byte per symbol, and
// keeps no rune slice.
type Document struct {
	text  string
	runes []rune // nil when text is ASCII
}

// NewDocument builds a document from text.
func NewDocument(text string) *Document {
	if isASCII(text) {
		return &Document{text: text}
	}
	return &Document{text: text, runes: []rune(text)}
}

// isASCII reports whether every byte of s is below utf8.RuneSelf,
// eight bytes to a test.
func isASCII(s string) bool {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if w&0x8080808080808080 != 0 {
			return false
		}
	}
	for ; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Len returns |d|, the number of symbols in the document.
func (d *Document) Len() int {
	if d.runes == nil {
		return len(d.text)
	}
	return len(d.runes)
}

// Text returns the underlying string.
func (d *Document) Text() string { return d.text }

// RuneAt returns the symbol at 1-based position i (1 ≤ i ≤ |d|).
func (d *Document) RuneAt(i int) rune {
	if d.runes == nil {
		return rune(d.text[i-1])
	}
	return d.runes[i-1]
}

// ASCIIText returns the document text when every symbol is ASCII —
// the precondition for byte-indexed scanning (memchr-style candidate
// jumps), where byte offsets and rune positions coincide — and ""
// otherwise.
func (d *Document) ASCIIText() string {
	if d.runes == nil {
		return d.text
	}
	return ""
}

// Splice returns the document obtained by replacing the del symbols
// starting at 0-based rune offset off with ins. It panics when the
// range is out of bounds, since a malformed splice indicates a bug in
// the caller rather than bad input (the service layer validates byte
// offsets before they reach this level). When both the document and
// the insertion are pure ASCII the text splices by substring
// concatenation, a single copy of the text.
func (d *Document) Splice(off, del int, ins string) *Document {
	d.checkSplice(off, del)
	if d.runes == nil {
		return d.Edited(off, del, ins, d.text[:off]+ins+d.text[off+del:])
	}
	nr := d.splicedRunes(off, del, ins)
	return withRunes(string(nr), nr)
}

// Edited is Splice for a caller that already holds the edited text:
// text must equal the document's text with the del symbols at rune
// offset off replaced by ins. The document adopts text without
// copying or rescanning it, so an ASCII document edited by an ASCII
// insert costs O(|ins|). A non-ASCII document splices its rune slice
// as Splice does.
func (d *Document) Edited(off, del int, ins, text string) *Document {
	d.checkSplice(off, del)
	if d.runes == nil {
		if len(text) != len(d.text)-del+len(ins) {
			panic(fmt.Sprintf("edited text of %d bytes, want %d", len(text), len(d.text)-del+len(ins)))
		}
		if isASCII(ins) {
			return &Document{text: text}
		}
		return &Document{text: text, runes: []rune(text)}
	}
	return withRunes(text, d.splicedRunes(off, del, ins))
}

func (d *Document) checkSplice(off, del int) {
	if off < 0 || del < 0 || off+del > d.Len() {
		panic(fmt.Sprintf("splice [%d,+%d) invalid for document of length %d", off, del, d.Len()))
	}
}

// splicedRunes returns a fresh rune slice of the non-ASCII document
// with the del runes at off replaced by ins.
func (d *Document) splicedRunes(off, del int, ins string) []rune {
	insRunes := []rune(ins)
	nr := make([]rune, 0, len(d.runes)+len(insRunes)-del)
	nr = append(nr, d.runes[:off]...)
	nr = append(nr, insRunes...)
	return append(nr, d.runes[off+del:]...)
}

// withRunes is the document of text whose rune decomposition is nr.
func withRunes(text string, nr []rune) *Document {
	if len(text) == len(nr) {
		return &Document{text: text} // the edit removed every multi-byte rune
	}
	return &Document{text: text, runes: nr}
}

// Whole returns the span (1, |d|+1) covering the entire document.
func (d *Document) Whole() Span { return Span{Start: 1, End: d.Len() + 1} }

// Content returns the content of s, the substring of d from position
// s.Start to s.End-1. It panics if s is not a valid span of d, since a
// malformed span indicates a bug in the caller rather than bad input.
func (d *Document) Content(s Span) string {
	if !s.Valid(d.Len()) {
		panic(fmt.Sprintf("span %v invalid for document of length %d", s, d.Len()))
	}
	if d.runes == nil {
		// A copy, so the content never pins the whole text.
		return strings.Clone(d.text[s.Start-1 : s.End-1])
	}
	return string(d.runes[s.Start-1 : s.End-1])
}

// Spans returns all spans of d in lexicographic (Start, End) order.
// There are (n+1)(n+2)/2 of them for a document of length n.
func (d *Document) Spans() []Span {
	n := d.Len()
	out := make([]Span, 0, (n+1)*(n+2)/2)
	for i := 1; i <= n+1; i++ {
		for j := i; j <= n+1; j++ {
			out = append(out, Span{Start: i, End: j})
		}
	}
	return out
}

// Mapping is a partial function from variables to spans. A variable
// not present in the map is undefined, which is how the framework
// represents missing or optional information.
type Mapping map[Var]Span

// Domain returns dom(µ), sorted by variable name for determinism.
func (m Mapping) Domain() []Var {
	vars := make([]Var, 0, len(m))
	for v := range m {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	return vars
}

// Copy returns an independent copy of the mapping.
func (m Mapping) Copy() Mapping {
	out := make(Mapping, len(m))
	for v, s := range m {
		out[v] = s
	}
	return out
}

// Equal reports whether two mappings are identical as partial
// functions: same domain, same values.
func (m Mapping) Equal(other Mapping) bool {
	if len(m) != len(other) {
		return false
	}
	for v, s := range m {
		if t, ok := other[v]; !ok || t != s {
			return false
		}
	}
	return true
}

// Compatible reports µ1 ~ µ2: the mappings agree on every variable in
// the intersection of their domains.
func (m Mapping) Compatible(other Mapping) bool {
	small, large := m, other
	if len(large) < len(small) {
		small, large = large, small
	}
	for v, s := range small {
		if t, ok := large[v]; ok && t != s {
			return false
		}
	}
	return true
}

// Union returns µ1 ∪ µ2, the extension of m with the values of other
// on the variables where m is undefined. The second result is false
// when the mappings are incompatible, in which case no union exists.
func (m Mapping) Union(other Mapping) (Mapping, bool) {
	if !m.Compatible(other) {
		return nil, false
	}
	out := m.Copy()
	for v, s := range other {
		out[v] = s
	}
	return out, true
}

// DisjointDomain reports whether dom(µ1) ∩ dom(µ2) = ∅, the condition
// required when joining the two sides of a concatenation in Table 2.
func (m Mapping) DisjointDomain(other Mapping) bool {
	small, large := m, other
	if len(large) < len(small) {
		small, large = large, small
	}
	for v := range small {
		if _, ok := large[v]; ok {
			return false
		}
	}
	return true
}

// Hierarchical reports whether for every pair of assigned variables
// the two spans are nested or disjoint. RGX and VAstk can only define
// hierarchical mappings (Section 3.2).
func (m Mapping) Hierarchical() bool {
	vars := m.Domain()
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			s, t := m[vars[i]], m[vars[j]]
			if !s.ContainedIn(t) && !t.ContainedIn(s) && !s.Disjoint(t) {
				return false
			}
		}
	}
	return true
}

// PointDisjoint reports whether the spans assigned to distinct
// variables share no endpoints (Section 6, Theorem 6.7).
func (m Mapping) PointDisjoint() bool {
	vars := m.Domain()
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			if !m[vars[i]].PointDisjoint(m[vars[j]]) {
				return false
			}
		}
	}
	return true
}

// Key returns a canonical string form of the mapping, usable as a map
// key for deduplication. Variables appear in sorted order.
func (m Mapping) Key() string {
	vars := m.Domain()
	var b strings.Builder
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%d,%d", v, m[v].Start, m[v].End)
	}
	return b.String()
}

// String renders the mapping as {x -> (i, j), ...} with variables in
// sorted order; the empty mapping renders as {}.
func (m Mapping) String() string {
	vars := m.Domain()
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range vars {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s -> %s", v, m[v])
	}
	b.WriteByte('}')
	return b.String()
}

// Project restricts the mapping to the given variables, dropping all
// other assignments. Variables absent from m are simply not included.
func (m Mapping) Project(vars []Var) Mapping {
	out := make(Mapping)
	for _, v := range vars {
		if s, ok := m[v]; ok {
			out[v] = s
		}
	}
	return out
}
