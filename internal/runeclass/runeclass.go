// Package runeclass implements character classes over runes: finite
// unions of inclusive rune ranges with the usual boolean operations.
// Classes are the letter predicates on RGX literals and VA transitions,
// giving the framework a practical Σ (any Unicode subset) while keeping
// the paper's abstract-alphabet semantics: a class transition stands
// for the disjunction of all its letters.
//
// The package also provides alphabet partitioning: given all classes
// mentioned by one or more expressions, Representatives returns one
// witness rune per equivalence class of "indistinguishable" letters.
// Decision procedures that must quantify over all documents (e.g.
// containment, satisfiability) only need to consider witness letters,
// which keeps them finite without restricting generality.
package runeclass

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// MaxRune is the upper bound of the alphabet. Classes never contain
// runes above it.
const MaxRune = unicode.MaxRune

// Range is an inclusive range of runes.
type Range struct {
	Lo, Hi rune
}

// Class is a set of runes stored as sorted, disjoint, non-adjacent
// inclusive ranges. The zero value is the empty class.
type Class struct {
	ranges []Range
}

// Empty returns the class containing no runes.
func Empty() Class { return Class{} }

// Single returns the class containing exactly r.
func Single(r rune) Class { return Class{ranges: []Range{{r, r}}} }

// Any returns the class containing every rune (the paper's Σ).
func Any() Class { return Class{ranges: []Range{{0, MaxRune}}} }

// FromRanges builds a class from arbitrary (possibly overlapping,
// unordered) ranges. Ranges with Lo > Hi are ignored.
func FromRanges(rs ...Range) Class {
	valid := make([]Range, 0, len(rs))
	for _, r := range rs {
		if r.Lo <= r.Hi {
			if r.Lo < 0 {
				r.Lo = 0
			}
			if r.Hi > MaxRune {
				r.Hi = MaxRune
			}
			valid = append(valid, r)
		}
	}
	sort.Slice(valid, func(i, j int) bool {
		if valid[i].Lo != valid[j].Lo {
			return valid[i].Lo < valid[j].Lo
		}
		return valid[i].Hi < valid[j].Hi
	})
	var out []Range
	for _, r := range valid {
		if n := len(out); n > 0 && r.Lo <= out[n-1].Hi+1 {
			if r.Hi > out[n-1].Hi {
				out[n-1].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return Class{ranges: out}
}

// FromRunes builds a class containing exactly the given runes.
func FromRunes(runes ...rune) Class {
	rs := make([]Range, len(runes))
	for i, r := range runes {
		rs[i] = Range{r, r}
	}
	return FromRanges(rs...)
}

// Ranges returns the normalized ranges of the class. The slice is
// shared and must not be modified.
func (c Class) Ranges() []Range { return c.ranges }

// IsEmpty reports whether the class contains no runes.
func (c Class) IsEmpty() bool { return len(c.ranges) == 0 }

// Contains reports whether r belongs to the class.
func (c Class) Contains(r rune) bool {
	lo, hi := 0, len(c.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case r < c.ranges[mid].Lo:
			hi = mid
		case r > c.ranges[mid].Hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Size returns the number of runes in the class (may be large for
// negated classes; callers should treat it as informational).
func (c Class) Size() int64 {
	var n int64
	for _, r := range c.ranges {
		n += int64(r.Hi-r.Lo) + 1
	}
	return n
}

// Union returns the set union of the two classes.
func (c Class) Union(other Class) Class {
	return FromRanges(append(append([]Range(nil), c.ranges...), other.ranges...)...)
}

// Negate returns the complement of the class within [0, MaxRune].
func (c Class) Negate() Class {
	var out []Range
	next := rune(0)
	for _, r := range c.ranges {
		if r.Lo > next {
			out = append(out, Range{next, r.Lo - 1})
		}
		next = r.Hi + 1
	}
	if next <= MaxRune {
		out = append(out, Range{next, MaxRune})
	}
	return Class{ranges: out}
}

// Intersect returns the set intersection of the two classes.
func (c Class) Intersect(other Class) Class {
	var out []Range
	i, j := 0, 0
	for i < len(c.ranges) && j < len(other.ranges) {
		a, b := c.ranges[i], other.ranges[j]
		lo, hi := maxRune(a.Lo, b.Lo), minRune(a.Hi, b.Hi)
		if lo <= hi {
			out = append(out, Range{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return Class{ranges: out}
}

// Minus returns the set difference c \ other.
func (c Class) Minus(other Class) Class {
	return c.Intersect(other.Negate())
}

// Equal reports whether the two classes contain the same runes.
func (c Class) Equal(other Class) bool {
	if len(c.ranges) != len(other.ranges) {
		return false
	}
	for i, r := range c.ranges {
		if other.ranges[i] != r {
			return false
		}
	}
	return true
}

// Sample returns an arbitrary rune in the class. The second result is
// false when the class is empty.
func (c Class) Sample() (rune, bool) {
	if c.IsEmpty() {
		return 0, false
	}
	return c.ranges[0].Lo, true
}

// String renders the class in a compact regex-like form, preferring a
// readable notation for small and co-small classes.
func (c Class) String() string {
	if c.IsEmpty() {
		return "[]"
	}
	if c.Equal(Any()) {
		return "."
	}
	neg := c.Negate()
	if neg.Size() < c.Size() && !neg.IsEmpty() {
		return "[^" + rangesBody(neg.ranges) + "]"
	}
	if len(c.ranges) == 1 && c.ranges[0].Lo == c.ranges[0].Hi {
		return escapeRune(c.ranges[0].Lo)
	}
	return "[" + rangesBody(c.ranges) + "]"
}

func rangesBody(rs []Range) string {
	var b strings.Builder
	for _, r := range rs {
		switch {
		case r.Lo == r.Hi:
			b.WriteString(escapeClassRune(r.Lo))
		case r.Hi == r.Lo+1:
			b.WriteString(escapeClassRune(r.Lo))
			b.WriteString(escapeClassRune(r.Hi))
		default:
			b.WriteString(escapeClassRune(r.Lo))
			b.WriteByte('-')
			b.WriteString(escapeClassRune(r.Hi))
		}
	}
	return b.String()
}

func escapeRune(r rune) string {
	switch r {
	case '\\', '.', '*', '+', '?', '|', '(', ')', '[', ']', '{', '}':
		return "\\" + string(r)
	case '\n':
		return "\\n"
	case '\t':
		return "\\t"
	case '\r':
		return "\\r"
	}
	if unicode.IsPrint(r) {
		return string(r)
	}
	return hexEscape(r)
}

// hexEscape renders a non-printable rune in the form the rgx parser
// reads back: \u with exactly four hex digits inside the Basic
// Multilingual Plane, \U with exactly eight above it.
func hexEscape(r rune) string {
	if r > 0xFFFF {
		return fmt.Sprintf("\\U%08x", r)
	}
	return fmt.Sprintf("\\u%04x", r)
}

func escapeClassRune(r rune) string {
	switch r {
	case '\\', ']', '-', '^':
		return "\\" + string(r)
	case '\n':
		return "\\n"
	case '\t':
		return "\\t"
	case '\r':
		return "\\r"
	}
	if unicode.IsPrint(r) {
		return string(r)
	}
	return hexEscape(r)
}

// Representatives returns one witness rune per equivalence class of
// the boolean algebra generated by the given classes: two runes are
// equivalent when exactly the same classes contain them. The result
// always includes (when it exists) a witness contained in none of the
// classes, so quantification "over all letters" may be replaced by
// quantification over the witnesses.
func Representatives(classes []Class) []rune {
	// Collect boundary points: the start of every range and the
	// position just after its end. Between consecutive boundaries all
	// classes are constant.
	boundarySet := map[rune]bool{0: true}
	for _, c := range classes {
		for _, r := range c.ranges {
			boundarySet[r.Lo] = true
			if r.Hi+1 <= MaxRune {
				boundarySet[r.Hi+1] = true
			}
		}
	}
	boundaries := make([]rune, 0, len(boundarySet))
	for b := range boundarySet {
		boundaries = append(boundaries, b)
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })

	seen := map[string]bool{}
	var out []rune
	for _, b := range boundaries {
		sig := make([]byte, len(classes))
		for i, c := range classes {
			if c.Contains(b) {
				sig[i] = '1'
			} else {
				sig[i] = '0'
			}
		}
		if !seen[string(sig)] {
			seen[string(sig)] = true
			out = append(out, b)
		}
	}
	return out
}

// Atoms returns the atoms of the boolean algebra generated by the
// given classes, restricted to their union: a partition of ⋃classes
// into maximal classes whose runes all have the same membership
// signature. Every input class is a disjoint union of atoms, so a
// transition guarded by a class can be split into atom-guarded
// transitions, which is how determinization handles overlapping
// letter predicates.
func Atoms(classes []Class) []Class {
	boundarySet := map[rune]bool{}
	for _, c := range classes {
		for _, r := range c.ranges {
			boundarySet[r.Lo] = true
			if r.Hi+1 <= MaxRune {
				boundarySet[r.Hi+1] = true
			}
		}
	}
	boundaries := make([]rune, 0, len(boundarySet))
	for b := range boundarySet {
		boundaries = append(boundaries, b)
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })

	bySig := map[string][]Range{}
	var order []string
	for i, b := range boundaries {
		hi := MaxRune
		if i+1 < len(boundaries) {
			hi = boundaries[i+1] - 1
		}
		sig := make([]byte, len(classes))
		inAny := false
		for ci, c := range classes {
			if c.Contains(b) {
				sig[ci] = '1'
				inAny = true
			} else {
				sig[ci] = '0'
			}
		}
		if !inAny {
			continue
		}
		key := string(sig)
		if _, ok := bySig[key]; !ok {
			order = append(order, key)
		}
		bySig[key] = append(bySig[key], Range{Lo: b, Hi: hi})
	}
	out := make([]Class, 0, len(order))
	for _, key := range order {
		out = append(out, FromRanges(bySig[key]...))
	}
	return out
}

func minRune(a, b rune) rune {
	if a < b {
		return a
	}
	return b
}

func maxRune(a, b rune) rune {
	if a > b {
		return a
	}
	return b
}
