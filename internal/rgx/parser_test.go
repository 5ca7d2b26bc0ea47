package rgx

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unicode"

	"spanners/internal/runeclass"
	"spanners/internal/span"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want Node
	}{
		{"", Empty{}},
		{"()", Empty{}},
		{"a", Lit('a')},
		{"ab", Seq(Lit('a'), Lit('b'))},
		{"a|b", Or(Lit('a'), Lit('b'))},
		{"a*", Kleene(Lit('a'))},
		{"a+", Plus(Lit('a'))},
		{"a?", Opt(Lit('a'))},
		{".", AnyChar()},
		{"(a|b)c", Seq(Or(Lit('a'), Lit('b')), Lit('c'))},
		{"x{a}", Capture("x", Lit('a'))},
		{"x{a|b}", Capture("x", Or(Lit('a'), Lit('b')))},
		{"x{.*}", SpanVar("x")},
		{"name_1{a}", Capture("name_1", Lit('a'))},
		{"\\.", Lit('.')},
		{"\\n", Lit('\n')},
		{"a b", Seq(Lit('a'), Lit(' '), Lit('b'))},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// Star binds tighter than concat, which binds tighter than alt.
	got := MustParse("ab*|c")
	want := Or(Seq(Lit('a'), Kleene(Lit('b'))), Lit('c'))
	if !Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestParseIdentifierMaximalMunch(t *testing.T) {
	// "ab{...}" is the variable named ab.
	got := MustParse("ab{c}")
	want := Capture("ab", Lit('c'))
	if !Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// "ab" with no brace is two literals.
	got = MustParse("ab")
	if !Equal(got, Seq(Lit('a'), Lit('b'))) {
		t.Errorf("got %v", got)
	}
	// Literal a followed by variable b needs parentheses.
	got = MustParse("a(b{c})")
	want = Seq(Lit('a'), Capture("b", Lit('c')))
	if !Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestParseClasses(t *testing.T) {
	n := MustParse("[a-c]")
	c, ok := n.(Class)
	if !ok {
		t.Fatalf("got %T", n)
	}
	for _, r := range "abc" {
		if !c.C.Contains(r) {
			t.Errorf("missing %q", r)
		}
	}
	if c.C.Contains('d') {
		t.Error("should not contain d")
	}

	neg := MustParse("[^,\\n]").(Class)
	if neg.C.Contains(',') || neg.C.Contains('\n') {
		t.Error("negated class contains excluded rune")
	}
	if !neg.C.Contains('x') {
		t.Error("negated class should contain x")
	}

	multi := MustParse("[a-cx-z]").(Class)
	if !multi.C.Contains('y') || multi.C.Contains('m') {
		t.Error("multi-range broken")
	}

	digit := MustParse("[\\d_]").(Class)
	if !digit.C.Contains('5') || !digit.C.Contains('_') || digit.C.Contains('a') {
		t.Error("class escape in class broken")
	}
}

func TestParseEscapeClasses(t *testing.T) {
	d := MustParse("\\d").(Class)
	if !d.C.Contains('7') || d.C.Contains('a') {
		t.Error("\\d broken")
	}
	w := MustParse("\\w").(Class)
	if !w.C.Contains('q') || !w.C.Contains('_') || w.C.Contains('-') {
		t.Error("\\w broken")
	}
	s := MustParse("\\s").(Class)
	if !s.C.Contains(' ') || !s.C.Contains('\t') || s.C.Contains('x') {
		t.Error("\\s broken")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(",
		"(a",
		"x{a",
		"[a",
		"[z-a]",
		"*",
		"a|*",
		"\\",
		"\\q",
		"a)",
		"{a}",
		"[]",
		"[a-\\d]",
		"x{a}}",
		"\\u00zz",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("Parse(%q) error type %T", in, err)
		}
	}
}

// TestParseRefusesDeepNesting: an expression nested past maxDepth —
// by groups the parser recurses on, or by a postfix chain that nests
// the tree without recursing — is refused with a ParseError, quickly,
// and one at the limit parses.
func TestParseRefusesDeepNesting(t *testing.T) {
	nested := func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) }
	chain := func(n int) string { return "x{a" + strings.Repeat("*", n) + "}" }
	for _, in := range []string{
		nested(600_000), // 1.2 MB: recursing on each group overflowed the stack
		chain(16_000),   // compiling the nested stars took 42 s
		nested(maxDepth + 1),
		chain(maxDepth),
		strings.Repeat("x{", maxDepth+1) + strings.Repeat("}", maxDepth+1),
		strings.Repeat("(a|", maxDepth+1) + "b" + strings.Repeat(")", maxDepth+1),
	} {
		start := time.Now()
		_, err := Parse(in)
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nests deeper") {
			t.Errorf("Parse(%.40q…, %d runes) = %v, want a nesting ParseError", in, len(in), err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("Parse(%.40q…, %d runes) took %v", in, len(in), took)
		}
	}
	for _, in := range []string{nested(maxDepth), chain(maxDepth - 1), "a" + strings.Repeat("*", maxDepth)} {
		if _, err := Parse(in); err != nil {
			t.Errorf("Parse(%.40q…) at the limit: %v", in, err)
		}
	}
}

// TestParseHeightIsTreeHeight: the height the parser measures against
// maxDepth is the height of the tree it returns, flattening included,
// so a printed tree measures what its source did.
func TestParseHeightIsTreeHeight(t *testing.T) {
	var height func(n Node) int
	height = func(n Node) int {
		h := 0
		switch n := n.(type) {
		case Concat:
			for _, p := range n.Parts {
				h = max(h, height(p)+1)
			}
		case Alt:
			for _, p := range n.Parts {
				h = max(h, height(p)+1)
			}
		case Star:
			h = height(n.Sub) + 1
		case Var:
			h = height(n.Sub) + 1
		}
		return h
	}
	rng := rand.New(rand.NewSource(35))
	const syntax = "ab()|*+?x{}"
	parsed := 0
	for i := 0; i < 20000; i++ {
		in := make([]byte, 1+rng.Intn(14))
		for j := range in {
			in[j] = syntax[rng.Intn(len(syntax))]
		}
		p := &parser{src: []rune(string(in))}
		n, h, err := p.alt()
		if err != nil || p.pos != len(p.src) {
			continue
		}
		parsed++
		if want := height(n); h != want {
			t.Fatalf("%q: parser height %d, tree height %d (%#v)", in, h, want, n)
		}
	}
	if parsed < 1000 {
		t.Fatalf("only %d random inputs parsed", parsed)
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("abc(de")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("got %T", err)
	}
	if pe.Pos != 6 {
		t.Errorf("Pos = %d, want 6", pe.Pos)
	}
	if !strings.Contains(pe.Error(), "position 6") {
		t.Errorf("Error = %q", pe.Error())
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	exprs := []string{
		"a",
		"abc",
		"a|b|c",
		"(a|b)*c",
		"x{a*}y{b*}",
		"x{a(y{b})c}",
		"[a-z]*",
		"[^,]*",
		".*Seller: (x{[^,]*}),.*",
		"\\.\\*\\\\",
		"a?b+c*",
		"()",
		"(a|())b",
	}
	for _, in := range exprs {
		n1 := MustParse(in)
		printed := n1.String()
		n2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q (printed %q): %v", in, printed, err)
			continue
		}
		if !Equal(n1, n2) {
			t.Errorf("round trip %q -> %q: trees differ:\n  %v\n  %v", in, printed, n1, n2)
		}
	}
}

// TestPrintAstralRuneRoundTrip: a non-printable rune above U+FFFF
// prints in a form that parses back to the same rune. U+A4282 used to
// print as a \u escape with five hex digits, which parses as U+A428
// followed by the letter 2.
func TestPrintAstralRuneRoundTrip(t *testing.T) {
	for _, n := range []Node{
		Lit(0xA4282),
		Seq(Lit(0xA4282), Lit('2')),
		Class{C: runeclass.FromRanges(runeclass.Range{Lo: 0xA4282, Hi: 0xA4290}, runeclass.Range{Lo: 'a', Hi: 'a'})},
		Capture("x", Lit(unicode.MaxRune)),
	} {
		printed := n.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("%v printed %q: %v", n, printed, err)
		}
		if !Equal(n, back) {
			t.Fatalf("%v printed %q, which parses as %v", n, printed, back)
		}
	}
	if got := MustParse(`\U000a4282`); !Equal(got, Lit(0xA4282)) {
		t.Fatalf(`\U000a4282 parses as %v`, got)
	}
	for _, bad := range []string{`\U0011ffff`, `\U000a428`, `\Uzzzzzzzz`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestPrintVarGuard(t *testing.T) {
	// Concat(Lit a, Var b) must not print as "ab{...}", nor with a
	// multi-byte letter before the variable as "éb{...}".
	for _, n := range []Node{
		Seq(Lit('a'), Capture("b", Lit('c'))),
		Seq(Lit('é'), Capture("b", Lit('c'))),
	} {
		printed := n.String()
		back := MustParse(printed)
		if !Equal(n, back) {
			t.Errorf("guard failed: printed %q, reparsed %v", printed, back)
		}
	}
}

func TestQuoteMeta(t *testing.T) {
	raw := "a.b*c\\d(e)"
	quoted := QuoteMeta(raw)
	n := MustParse(quoted)
	// The parse must be the literal sequence of raw's runes.
	want := Literal(raw)
	if !Equal(Simplify(n), Simplify(want)) {
		t.Errorf("QuoteMeta parse = %v, want %v", n, want)
	}
}

func TestVarsAndHasVars(t *testing.T) {
	n := MustParse("x{a}(y{b}|c)*z{d}")
	_ = n
	// Note: starred variables are not sequential but Vars must still
	// report them.
	got := Vars(n)
	want := []span.Var{"x", "y", "z"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	if !HasVars(n) || HasVars(MustParse("a*b")) {
		t.Error("HasVars broken")
	}
}

func TestLiteralHelper(t *testing.T) {
	if !Equal(Literal(""), Empty{}) {
		t.Error("empty Literal should be ε")
	}
	if !Equal(Literal("a"), Lit('a')) {
		t.Error("single Literal should be a letter")
	}
	if !Equal(Literal("ab"), Seq(Lit('a'), Lit('b'))) {
		t.Error("Literal broken")
	}
}

func TestSizeMonotone(t *testing.T) {
	small := MustParse("ab")
	big := MustParse("x{ab}|cd*")
	if Size(small) >= Size(big) {
		t.Errorf("Size(%v) = %d, Size(%v) = %d", small, Size(small), big, Size(big))
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestParseRefusesLargeTree: a tree of more than MaxSize nodes is
// refused with a ParseError wrapping ErrTooLarge, quickly, however
// much larger it is — a chain of e+ doubles the tree per link — while
// a 1 000-word dictionary (9 007 nodes) parses. The refusal is held to
// 100 ms except under the race detector, whose instrumentation slows
// it by a factor the bound does not measure.
func TestParseRefusesLargeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := make([]string, 1000)
	for i := range words {
		w := make([]byte, 8)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(w)
	}
	n, err := Parse(".*x{" + strings.Join(words, "|") + "}.*")
	if err != nil {
		t.Fatalf("the 1 000-word dictionary: %v", err)
	}
	if Size(n) != 9007 {
		t.Fatalf("the 1 000-word dictionary has %d nodes, want 9007", Size(n))
	}
	for _, in := range []string{
		".*x{" + strings.Repeat("ab|", 19_999) + "c}.*", // 60 005 nodes
		"x{a" + strings.Repeat("+", 100) + "}",          // 2^100 nodes
		strings.Repeat("a", MaxSize),                    // MaxSize+1 nodes
	} {
		start := time.Now()
		_, err := Parse(in)
		if took := time.Since(start); took > 100*time.Millisecond && !raceEnabled {
			t.Errorf("refusing %.20q… took %v, want under 100ms", in, took)
		}
		var pe *ParseError
		if !errors.As(err, &pe) || !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%.20q…: got %v, want a ParseError wrapping ErrTooLarge", in, err)
		}
	}
	if _, err := Parse(strings.Repeat("a", MaxSize-1)); err != nil {
		t.Fatalf("a tree of MaxSize nodes: %v", err)
	}
}
