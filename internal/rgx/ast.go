// Package rgx implements variable regex (RGX), the core extraction
// language of Section 3.1: regular expressions extended with capture
// variables x{γ} that bind the span matched by γ. The mapping-based
// semantics (Table 2) is implemented by package naive (reference,
// denotational) and by package eval via compilation to variable-set
// automata (package va).
//
// The grammar is
//
//	γ := ε | a | x{γ} | γ·γ | γ|γ | γ*
//
// with a ranging over character classes (a single letter is a
// singleton class). The package provides a parser for a concrete
// syntax, classification predicates (functional, sequential, spanRGX),
// and the decomposition of an arbitrary RGX into an equivalent union
// of functional RGX, which powers several of the paper's
// constructions (Propositions 4.8, 5.6 and Theorem 4.10).
package rgx

import (
	"sort"
	"strings"
	"unicode/utf8"

	"spanners/internal/runeclass"
	"spanners/internal/span"
)

// Node is an RGX syntax-tree node. The concrete types are Empty,
// Class, Var, Concat, Alt and Star. Nodes are immutable once built;
// transformations always construct new nodes, so subtrees may be
// shared freely.
type Node interface {
	// String renders the node in the package's concrete syntax; the
	// output re-parses to an equal tree.
	String() string

	isNode()
}

// Empty is ε, matching only the empty word.
type Empty struct{}

// Class matches any single letter belonging to the character class.
// The paper's letter expression a is Class with a singleton class; its
// Σ is Class with the full class.
type Class struct {
	C runeclass.Class
}

// Var is the capture expression x{Sub}: it matches whatever Sub
// matches and binds the matched span to x (provided x is not already
// bound by Sub, which the semantics rules out).
type Var struct {
	Name span.Var
	Sub  Node
}

// Concat is the concatenation of its parts, in order. An empty Parts
// list behaves like ε; the parser never produces arity below 2.
type Concat struct {
	Parts []Node
}

// Alt is the disjunction of its parts. An empty Parts list behaves
// like the empty language; the parser never produces arity below 2.
type Alt struct {
	Parts []Node
}

// Star is the Kleene closure Sub*.
type Star struct {
	Sub Node
}

func (Empty) isNode()  {}
func (Class) isNode()  {}
func (Var) isNode()    {}
func (Concat) isNode() {}
func (Alt) isNode()    {}
func (Star) isNode()   {}

// Lit returns the expression matching exactly the single letter r.
func Lit(r rune) Node { return Class{C: runeclass.Single(r)} }

// AnyChar returns the expression Σ matching any single letter.
func AnyChar() Node { return Class{C: runeclass.Any()} }

// Literal returns the expression matching exactly the string s,
// i.e. the concatenation of its letters (ε for the empty string).
func Literal(s string) Node {
	runes := []rune(s)
	switch len(runes) {
	case 0:
		return Empty{}
	case 1:
		return Lit(runes[0])
	}
	parts := make([]Node, len(runes))
	for i, r := range runes {
		parts[i] = Lit(r)
	}
	return Concat{Parts: parts}
}

// Seq concatenates the given expressions, flattening nested
// concatenations and eliding ε parts.
func Seq(parts ...Node) Node {
	var flat []Node
	for _, p := range parts {
		switch p := p.(type) {
		case Empty:
			// ε is the unit of concatenation.
		case Concat:
			flat = append(flat, p.Parts...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return Empty{}
	case 1:
		return flat[0]
	}
	return Concat{Parts: flat}
}

// Or builds the disjunction of the given expressions, flattening
// nested disjunctions. Or() with no arguments is invalid and panics:
// the grammar has no empty language.
func Or(parts ...Node) Node {
	var flat []Node
	for _, p := range parts {
		if a, ok := p.(Alt); ok {
			flat = append(flat, a.Parts...)
			continue
		}
		flat = append(flat, p)
	}
	switch len(flat) {
	case 0:
		panic("rgx.Or: empty disjunction (the grammar has no ∅)")
	case 1:
		return flat[0]
	}
	return Alt{Parts: flat}
}

// Capture returns the expression x{sub}.
func Capture(x span.Var, sub Node) Node { return Var{Name: x, Sub: sub} }

// Kleene returns sub*.
func Kleene(sub Node) Node { return Star{Sub: sub} }

// Opt returns sub? ≡ (sub | ε).
func Opt(sub Node) Node { return Or(sub, Empty{}) }

// Plus returns sub+ ≡ sub·sub*.
func Plus(sub Node) Node { return Seq(sub, Star{Sub: sub}) }

// SpanVar returns the spanRGX variable atom x ≡ x{Σ*}, the only form
// of capture allowed in span regular expressions (Section 3.3).
func SpanVar(x span.Var) Node { return Var{Name: x, Sub: Star{Sub: AnyChar()}} }

// Vars returns var(γ), the set of variables occurring in n, sorted.
func Vars(n Node) []span.Var {
	set := map[span.Var]bool{}
	collectVars(n, set)
	out := make([]span.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collectVars(n Node, set map[span.Var]bool) {
	switch n := n.(type) {
	case Var:
		set[n.Name] = true
		collectVars(n.Sub, set)
	case Concat:
		for _, p := range n.Parts {
			collectVars(p, set)
		}
	case Alt:
		for _, p := range n.Parts {
			collectVars(p, set)
		}
	case Star:
		collectVars(n.Sub, set)
	}
}

// HasVars reports whether any variable occurs in n.
func HasVars(n Node) bool {
	switch n := n.(type) {
	case Var:
		return true
	case Concat:
		for _, p := range n.Parts {
			if HasVars(p) {
				return true
			}
		}
	case Alt:
		for _, p := range n.Parts {
			if HasVars(p) {
				return true
			}
		}
	case Star:
		return HasVars(n.Sub)
	}
	return false
}

// Equal reports structural equality of two expressions.
func Equal(a, b Node) bool {
	switch a := a.(type) {
	case Empty:
		_, ok := b.(Empty)
		return ok
	case Class:
		bc, ok := b.(Class)
		return ok && a.C.Equal(bc.C)
	case Var:
		bv, ok := b.(Var)
		return ok && a.Name == bv.Name && Equal(a.Sub, bv.Sub)
	case Concat:
		bc, ok := b.(Concat)
		if !ok || len(a.Parts) != len(bc.Parts) {
			return false
		}
		for i := range a.Parts {
			if !Equal(a.Parts[i], bc.Parts[i]) {
				return false
			}
		}
		return true
	case Alt:
		ba, ok := b.(Alt)
		if !ok || len(a.Parts) != len(ba.Parts) {
			return false
		}
		for i := range a.Parts {
			if !Equal(a.Parts[i], ba.Parts[i]) {
				return false
			}
		}
		return true
	case Star:
		bs, ok := b.(Star)
		return ok && Equal(a.Sub, bs.Sub)
	}
	return false
}

// Size returns the number of nodes in the expression tree, a crude
// but monotone measure used to report construction blowups.
func Size(n Node) int {
	switch n := n.(type) {
	case Empty, Class:
		return 1
	case Var:
		return 1 + Size(n.Sub)
	case Concat:
		s := 1
		for _, p := range n.Parts {
			s += Size(p)
		}
		return s
	case Alt:
		s := 1
		for _, p := range n.Parts {
			s += Size(p)
		}
		return s
	case Star:
		return 1 + Size(n.Sub)
	}
	return 1
}

// precedence levels for printing: Alt < Concat < Star/unary < atom.
const (
	precAlt = iota
	precConcat
	precUnary
	precAtom
)

func (Empty) String() string { return "()" }

func (c Class) String() string { return c.C.String() }

func (v Var) String() string {
	return string(v.Name) + "{" + v.Sub.String() + "}"
}

func (c Concat) String() string {
	var b strings.Builder
	for _, p := range c.Parts {
		printed := p.String()
		if prec(p) < precConcat {
			b.WriteByte('(')
			b.WriteString(printed)
			b.WriteByte(')')
			continue
		}
		// A part whose printed form begins with a variable capture
		// would merge with a preceding identifier letter under the
		// parser's maximal-munch rule ("ab{..}" is the variable ab,
		// not literal a then b{..}); parenthesize to keep printing
		// and parsing inverse to each other.
		if needsVarGuard(&b, printed) {
			b.WriteByte('(')
			b.WriteString(printed)
			b.WriteByte(')')
			continue
		}
		b.WriteString(printed)
	}
	return b.String()
}

// needsVarGuard reports whether printed starts with an identifier run
// immediately followed by '{' (a variable capture) while the builder
// ends with an identifier rune that would extend the variable name.
func needsVarGuard(b *strings.Builder, printed string) bool {
	if last, _ := utf8.DecodeLastRuneInString(b.String()); !isIdentRune(last) {
		return false
	}
	i := 0
	runes := []rune(printed)
	for i < len(runes) && isIdentRune(runes[i]) {
		i++
	}
	return i > 0 && i < len(runes) && runes[i] == '{'
}

func (a Alt) String() string {
	var b strings.Builder
	for i, p := range a.Parts {
		if i > 0 {
			b.WriteByte('|')
		}
		writeWithPrec(&b, p, precAlt+1)
	}
	return b.String()
}

func (s Star) String() string {
	var b strings.Builder
	writeWithPrec(&b, s.Sub, precUnary+1)
	b.WriteByte('*')
	return b.String()
}

func prec(n Node) int {
	switch n.(type) {
	case Alt:
		return precAlt
	case Concat:
		return precConcat
	case Star:
		return precUnary
	default:
		return precAtom
	}
}

func writeWithPrec(b *strings.Builder, n Node, min int) {
	if prec(n) < min {
		b.WriteByte('(')
		b.WriteString(n.String())
		b.WriteByte(')')
		return
	}
	b.WriteString(n.String())
}
