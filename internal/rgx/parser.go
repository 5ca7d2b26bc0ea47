package rgx

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"spanners/internal/runeclass"
	"spanners/internal/span"
)

// ParseError describes a syntax error with its rune offset in the
// input expression.
type ParseError struct {
	Pos int    // 0-based rune offset
	Msg string // what went wrong
	Err error  // the cause a caller can match, ErrTooLarge or nil
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rgx: parse error at position %d: %s", e.Pos, e.Msg)
}

func (e *ParseError) Unwrap() error { return e.Err }

// MaxSize is the most nodes (Size) the tree of an accepted expression
// may have. A larger tree is refused with a ParseError wrapping
// ErrTooLarge: the compilers downstream build automata and tables that
// grow with every node, so one 60 KB alternation would otherwise cost
// seconds and gigabytes before the first letter is read.
const MaxSize = 1 << 14

// ErrTooLarge is the cause of the ParseError for an expression whose
// tree has more than MaxSize nodes.
var ErrTooLarge = errors.New("rgx: expression too large")

// Parse parses the concrete RGX syntax:
//
//	expr    := alt
//	alt     := concat ('|' concat)*
//	concat  := repeat*
//	repeat  := atom ('*' | '+' | '?')*
//	atom    := '(' alt ')'           grouping
//	         | '()'                  ε
//	         | IDENT '{' alt '}'     variable capture x{γ}
//	         | '[' class ']'         character class, '^' negates
//	         | '.'                   any letter (Σ)
//	         | '\' escape            escaped letter or class (\d \w \s),
//	                                 or a rune as \uXXXX / \UXXXXXXXX
//	         | letter                a single literal letter
//
// Identifiers are maximal runs of [A-Za-z0-9_] starting with a letter
// or '_'; a run not followed by '{' is read as a sequence of literal
// letters. Whitespace is significant (documents contain spaces), so
// there is no layout skipping. The empty input parses to ε. An
// expression nested deeper than maxDepth, or whose tree has more than
// MaxSize nodes, is refused.
func Parse(input string) (Node, error) {
	p := &parser{src: []rune(input)}
	if len(p.src) == 0 {
		return Empty{}, nil
	}
	n, _, err := p.alt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected %q", p.src[p.pos])
	}
	if left := MaxSize; countNodes(n, &left) < 0 {
		return nil, &ParseError{Pos: 0, Msg: fmt.Sprintf("expression has more than %d nodes", MaxSize), Err: ErrTooLarge}
	}
	return n, nil
}

// countNodes takes the nodes of n, counted as Size counts them, from
// *left and returns what is left, stopping once it is negative: e+
// shares e, so a chain of them has a tree exponentially larger than
// its text, which must not be walked whole.
func countNodes(n Node, left *int) int {
	if *left--; *left < 0 {
		return *left
	}
	switch n := n.(type) {
	case Var:
		return countNodes(n.Sub, left)
	case Star:
		return countNodes(n.Sub, left)
	case Concat:
		for _, p := range n.Parts {
			if countNodes(p, left) < 0 {
				break
			}
		}
	case Alt:
		for _, p := range n.Parts {
			if countNodes(p, left) < 0 {
				break
			}
		}
	}
	return *left
}

// MustParse is Parse that panics on error, for tests and examples
// with constant expressions.
func MustParse(input string) Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

// maxDepth bounds how deeply an expression nests, in two measures: the
// height of its tree (each variable, repetition, alternation and
// concatenation is a level; a group is none) and the groups and
// variable bodies open at any point of the input, which is what the
// parser recurses on. The compilers downstream recurse on the tree and
// build automata whose size grows with every level, so a deeper
// expression is refused with a ParseError instead. The printed form of
// an accepted tree opens at most one group per level, so it parses
// back.
const maxDepth = 256

type parser struct {
	src  []rune
	pos  int
	open int // groups and variable bodies open at pos
	// lits is the end of the identifier run last found to be literal
	// letters: every letter before it is one without a rescan, which
	// keeps a run of n letters O(n) rather than O(n²).
	lits int
}

// tooDeep is the error for an expression nested deeper than maxDepth.
func (p *parser) tooDeep() error {
	return p.errf("expression nests deeper than %d", maxDepth)
}

// enter opens a group or variable body at pos.
func (p *parser) enter() error {
	if p.open++; p.open > maxDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() rune { return p.src[p.pos] }

// alt, concat, repeat and atom return the height of the tree they
// parse with it (see maxDepth).
func (p *parser) alt() (Node, int, error) {
	first, h, err := p.concat()
	if err != nil {
		return nil, 0, err
	}
	parts := []Node{first}
	for !p.eof() && p.peek() == '|' {
		p.pos++
		next, hn, err := p.concat()
		if err != nil {
			return nil, 0, err
		}
		parts = append(parts, next)
		h = max(h, hn)
	}
	if len(parts) == 1 {
		return parts[0], h, nil
	}
	return p.level(Alt{Parts: parts}, h+1)
}

// level returns n, of height h, unless h is over maxDepth.
func (p *parser) level(n Node, h int) (Node, int, error) {
	if h > maxDepth {
		return nil, 0, p.tooDeep()
	}
	return n, h, nil
}

func (p *parser) concat() (Node, int, error) {
	var parts []Node
	h := 0 // the tallest part once flattened (finishConcat)
	for !p.eof() {
		switch p.peek() {
		case '|', ')', '}':
			// Concatenation ends at alternation or a closing bracket.
			return p.finishConcat(parts, h)
		}
		part, hp, err := p.repeat()
		if err != nil {
			return nil, 0, err
		}
		if _, ok := part.(Concat); ok {
			hp-- // its parts are flattened in; none of them is a Concat
		}
		parts = append(parts, part)
		h = max(h, hp)
	}
	return p.finishConcat(parts, h)
}

// finishConcat joins the parts of a concatenation, of which the
// tallest is h high once flattened: a part that is itself a Concat (a
// group, or e+) has its parts flattened in.
func (p *parser) finishConcat(parts []Node, h int) (Node, int, error) {
	switch len(parts) {
	case 0:
		return Empty{}, 0, nil
	case 1:
		if _, ok := parts[0].(Concat); ok {
			h++ // nothing was flattened
		}
		return parts[0], h, nil
	}
	var flat []Node
	for _, part := range parts {
		if c, ok := part.(Concat); ok {
			flat = append(flat, c.Parts...)
			continue
		}
		flat = append(flat, part)
	}
	return p.level(Concat{Parts: flat}, h+1)
}

func (p *parser) repeat() (Node, int, error) {
	atom, h, err := p.atom()
	if err != nil {
		return nil, 0, err
	}
	for !p.eof() {
		switch p.peek() {
		case '*':
			atom, h = Star{Sub: atom}, h+1
		case '+':
			// e·e*, with e's parts flattened in when e is a Concat and
			// e dropped when it is ε.
			if _, ok := atom.(Empty); ok {
				h--
			}
			atom, h = Seq(atom, Star{Sub: atom}), h+2
		case '?':
			// e|ε, with e's parts flattened in when e is an Alt.
			if _, ok := atom.(Alt); !ok {
				h++
			}
			atom = Or(atom, Empty{})
		default:
			return atom, h, nil
		}
		if atom, h, err = p.level(atom, h); err != nil {
			return nil, 0, err
		}
		p.pos++
	}
	return atom, h, nil
}

func (p *parser) atom() (Node, int, error) {
	leaf := func(n Node, err error) (Node, int, error) { return n, 0, err }
	switch r := p.peek(); r {
	case '(':
		p.pos++
		if !p.eof() && p.peek() == ')' {
			p.pos++
			return Empty{}, 0, nil
		}
		if err := p.enter(); err != nil {
			return nil, 0, err
		}
		inner, h, err := p.alt()
		if err != nil {
			return nil, 0, err
		}
		if p.eof() || p.peek() != ')' {
			return nil, 0, p.errf("missing ')'")
		}
		p.pos++
		p.open--
		return inner, h, nil
	case '[':
		return leaf(p.class())
	case '.':
		p.pos++
		return AnyChar(), 0, nil
	case '\\':
		return leaf(p.escape(false))
	case '*', '+', '?':
		return nil, 0, p.errf("repetition %q with nothing to repeat", r)
	case '{':
		return nil, 0, p.errf("'{' must follow a variable name")
	default:
		if isIdentStart(r) {
			return p.identOrLiterals()
		}
		p.pos++
		return Lit(r), 0, nil
	}
}

// identOrLiterals reads a maximal identifier run. If it is followed by
// '{' it is a variable capture; otherwise the run is a sequence of
// literal letters, of which we consume only the first so that postfix
// operators bind to single letters (ab* is a·b*, as usual in regex).
func (p *parser) identOrLiterals() (Node, int, error) {
	start := p.pos
	if start < p.lits {
		p.pos++
		return Lit(p.src[start]), 0, nil
	}
	for !p.eof() && isIdentRune(p.peek()) {
		p.pos++
	}
	if !p.eof() && p.peek() == '{' {
		name := string(p.src[start:p.pos])
		p.pos++ // consume '{'
		if err := p.enter(); err != nil {
			return nil, 0, err
		}
		sub, h, err := p.alt()
		if err != nil {
			return nil, 0, err
		}
		if p.eof() || p.peek() != '}' {
			return nil, 0, p.errf("missing '}' closing variable %s", name)
		}
		p.pos++
		p.open--
		return p.level(Var{Name: span.Var(name), Sub: sub}, h+1)
	}
	// Not a variable: rewind and take a single literal letter.
	p.lits, p.pos = p.pos, start+1
	return Lit(p.src[start]), 0, nil
}

// class parses a bracketed character class.
func (p *parser) class() (Node, error) {
	p.pos++ // consume '['
	negate := false
	if !p.eof() && p.peek() == '^' {
		negate = true
		p.pos++
	}
	var ranges []runeclass.Range
	for {
		if p.eof() {
			return nil, p.errf("missing ']'")
		}
		if p.peek() == ']' {
			p.pos++
			break
		}
		lo, cls, err := p.classAtom()
		if err != nil {
			return nil, err
		}
		if cls != nil {
			// An embedded class escape such as \d contributes all of
			// its ranges and cannot form a range endpoint.
			ranges = append(ranges, cls.Ranges()...)
			continue
		}
		hi := lo
		if !p.eof() && p.peek() == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++ // consume '-'
			var err error
			hi, cls, err = p.classAtom()
			if err != nil {
				return nil, err
			}
			if cls != nil {
				return nil, p.errf("class escape cannot end a range")
			}
			if hi < lo {
				return nil, p.errf("invalid range %q-%q", lo, hi)
			}
		}
		ranges = append(ranges, runeclass.Range{Lo: lo, Hi: hi})
	}
	c := runeclass.FromRanges(ranges...)
	if negate {
		c = c.Negate()
	}
	if c.IsEmpty() {
		return nil, p.errf("empty character class")
	}
	return Class{C: c}, nil
}

// classAtom parses one class element: either a single rune (possibly
// escaped) or a class escape like \d. Exactly one of the results is
// meaningful: cls is non-nil for class escapes.
func (p *parser) classAtom() (rune, *runeclass.Class, error) {
	if p.peek() == '\\' {
		n, err := p.escape(true)
		if err != nil {
			return 0, nil, err
		}
		c := n.(Class).C
		if c.Size() == 1 {
			r, _ := c.Sample()
			return r, nil, nil
		}
		return 0, &c, nil
	}
	r := p.peek()
	p.pos++
	return r, nil, nil
}

// escape parses a backslash escape. inClass relaxes which runes need
// escaping but the accepted forms are identical.
func (p *parser) escape(inClass bool) (Node, error) {
	p.pos++ // consume '\'
	if p.eof() {
		return nil, p.errf("dangling escape")
	}
	r := p.peek()
	p.pos++
	switch r {
	case 'n':
		return Lit('\n'), nil
	case 't':
		return Lit('\t'), nil
	case 'r':
		return Lit('\r'), nil
	case 'd':
		return Class{C: runeclass.FromRanges(runeclass.Range{Lo: '0', Hi: '9'})}, nil
	case 'w':
		return Class{C: runeclass.FromRanges(
			runeclass.Range{Lo: 'a', Hi: 'z'},
			runeclass.Range{Lo: 'A', Hi: 'Z'},
			runeclass.Range{Lo: '0', Hi: '9'},
			runeclass.Range{Lo: '_', Hi: '_'},
		)}, nil
	case 's':
		return Class{C: runeclass.FromRunes(' ', '\t', '\n', '\r')}, nil
	case 'u', 'U':
		// \u takes exactly four hex digits, \U exactly eight (a rune
		// above U+FFFF), as in Go string literals.
		digits := 4
		if r == 'U' {
			digits = 8
		}
		if p.pos+digits > len(p.src) {
			return nil, p.errf("\\%c needs %d hex digits", r, digits)
		}
		hex := string(p.src[p.pos : p.pos+digits])
		v, err := strconv.ParseUint(hex, 16, 32)
		if err != nil || v > unicode.MaxRune {
			return nil, p.errf("bad \\%c escape %q", r, hex)
		}
		p.pos += digits
		return Lit(rune(v)), nil
	}
	if unicode.IsLetter(r) || unicode.IsDigit(r) {
		return nil, p.errf("unknown escape \\%c", r)
	}
	return Lit(r), nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// quoteMeta escapes every syntax metacharacter of the concrete RGX
// grammar in s, so that Parse(QuoteMeta(s)) matches s literally.
func quoteMeta(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\', '.', '*', '+', '?', '|', '(', ')', '[', ']', '{', '}':
			b.WriteByte('\\')
			b.WriteRune(r)
		case '\n':
			b.WriteString("\\n")
		case '\t':
			b.WriteString("\\t")
		case '\r':
			b.WriteString("\\r")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// QuoteMeta returns s with all RGX metacharacters escaped.
func QuoteMeta(s string) string { return quoteMeta(s) }
