package rgx

import (
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
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rgx: parse error at position %d: %s", e.Pos, e.Msg)
}

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
// there is no layout skipping. The empty input parses to ε.
func Parse(input string) (Node, error) {
	p := &parser{src: []rune(input)}
	if len(p.src) == 0 {
		return Empty{}, nil
	}
	n, err := p.alt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected %q", p.src[p.pos])
	}
	return n, nil
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

type parser struct {
	src []rune
	pos int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() rune { return p.src[p.pos] }

func (p *parser) alt() (Node, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	parts := []Node{first}
	for !p.eof() && p.peek() == '|' {
		p.pos++
		next, err := p.concat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Alt{Parts: parts}, nil
}

func (p *parser) concat() (Node, error) {
	var parts []Node
	for !p.eof() {
		switch p.peek() {
		case '|', ')', '}':
			// Concatenation ends at alternation or a closing bracket.
			return finishConcat(parts), nil
		}
		part, err := p.repeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return finishConcat(parts), nil
}

func finishConcat(parts []Node) Node {
	switch len(parts) {
	case 0:
		return Empty{}
	case 1:
		return parts[0]
	}
	// Flatten literal runs parsed one letter at a time.
	var flat []Node
	for _, p := range parts {
		if c, ok := p.(Concat); ok {
			flat = append(flat, c.Parts...)
			continue
		}
		flat = append(flat, p)
	}
	return Concat{Parts: flat}
}

func (p *parser) repeat() (Node, error) {
	atom, err := p.atom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		switch p.peek() {
		case '*':
			p.pos++
			atom = Star{Sub: atom}
		case '+':
			p.pos++
			atom = Seq(atom, Star{Sub: atom})
		case '?':
			p.pos++
			atom = Or(atom, Empty{})
		default:
			return atom, nil
		}
	}
	return atom, nil
}

func (p *parser) atom() (Node, error) {
	switch r := p.peek(); r {
	case '(':
		p.pos++
		if !p.eof() && p.peek() == ')' {
			p.pos++
			return Empty{}, nil
		}
		inner, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek() != ')' {
			return nil, p.errf("missing ')'")
		}
		p.pos++
		return inner, nil
	case '[':
		return p.class()
	case '.':
		p.pos++
		return AnyChar(), nil
	case '\\':
		return p.escape(false)
	case '*', '+', '?':
		return nil, p.errf("repetition %q with nothing to repeat", r)
	case '{':
		return nil, p.errf("'{' must follow a variable name")
	default:
		if isIdentStart(r) {
			return p.identOrLiterals()
		}
		p.pos++
		return Lit(r), nil
	}
}

// identOrLiterals reads a maximal identifier run. If it is followed by
// '{' it is a variable capture; otherwise the run is a sequence of
// literal letters, of which we consume only the first so that postfix
// operators bind to single letters (ab* is a·b*, as usual in regex).
func (p *parser) identOrLiterals() (Node, error) {
	start := p.pos
	for !p.eof() && isIdentRune(p.peek()) {
		p.pos++
	}
	if !p.eof() && p.peek() == '{' {
		name := string(p.src[start:p.pos])
		p.pos++ // consume '{'
		sub, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek() != '}' {
			return nil, p.errf("missing '}' closing variable %s", name)
		}
		p.pos++
		return Var{Name: span.Var(name), Sub: sub}, nil
	}
	// Not a variable: rewind and take a single literal letter.
	p.pos = start + 1
	return Lit(p.src[start]), nil
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
