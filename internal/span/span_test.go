package span

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSpanBasics(t *testing.T) {
	d := NewDocument("Information extraction")
	if d.Len() != 22 {
		t.Fatalf("Len = %d, want 22", d.Len())
	}
	whole := d.Whole()
	if whole != (Span{1, 23}) {
		t.Fatalf("Whole = %v", whole)
	}
	p1 := Span{1, 12}
	if got := d.Content(p1); got != "Information" {
		t.Errorf("Content(p1) = %q, want %q", got, "Information")
	}
	p2 := Span{13, 23}
	if got := d.Content(p2); got != "extraction" {
		t.Errorf("Content(p2) = %q, want %q", got, "extraction")
	}
	if got := d.Content(Span{5, 5}); got != "" {
		t.Errorf("empty span content = %q, want empty", got)
	}
}

func TestSpanValid(t *testing.T) {
	cases := []struct {
		s    Span
		n    int
		want bool
	}{
		{Span{1, 1}, 0, true},
		{Span{0, 1}, 5, false},
		{Span{1, 7}, 5, false},
		{Span{3, 2}, 5, false},
		{Span{2, 6}, 5, true},
		{Span{6, 6}, 5, true},
	}
	for _, c := range cases {
		if got := c.s.Valid(c.n); got != c.want {
			t.Errorf("%v.Valid(%d) = %v, want %v", c.s, c.n, got, c.want)
		}
	}
}

func TestSpanConcat(t *testing.T) {
	s, ok := Span{1, 4}.Concat(Span{4, 7})
	if !ok || s != (Span{1, 7}) {
		t.Fatalf("Concat = %v, %v", s, ok)
	}
	if _, ok := (Span{1, 4}).Concat(Span{5, 7}); ok {
		t.Fatal("non-adjacent spans should not concatenate")
	}
	// Empty spans concatenate on both sides.
	s, ok = Span{3, 3}.Concat(Span{3, 8})
	if !ok || s != (Span{3, 8}) {
		t.Fatalf("empty-left Concat = %v, %v", s, ok)
	}
}

func TestSpanRelations(t *testing.T) {
	a, b := Span{1, 5}, Span{2, 4}
	if !b.ContainedIn(a) || a.ContainedIn(b) {
		t.Error("containment broken")
	}
	if !(Span{1, 3}).Disjoint(Span{3, 5}) {
		t.Error("adjacent spans should be disjoint")
	}
	if (Span{1, 4}).Disjoint(Span{3, 5}) {
		t.Error("overlapping spans reported disjoint")
	}
	if (Span{1, 3}).PointDisjoint(Span{3, 5}) {
		t.Error("spans sharing a boundary are not point-disjoint")
	}
	if !(Span{1, 3}).PointDisjoint(Span{4, 6}) {
		t.Error("separated spans should be point-disjoint")
	}
}

func TestDocumentSpansCount(t *testing.T) {
	d := NewDocument("abc")
	spans := d.Spans()
	if len(spans) != 10 { // (n+1)(n+2)/2 with n = 3
		t.Fatalf("got %d spans, want 10", len(spans))
	}
	seen := map[Span]bool{}
	for _, s := range spans {
		if !s.Valid(3) {
			t.Errorf("invalid span %v produced", s)
		}
		if seen[s] {
			t.Errorf("duplicate span %v", s)
		}
		seen[s] = true
	}
}

func TestUnicodeDocument(t *testing.T) {
	d := NewDocument("añ→b")
	if d.Len() != 4 {
		t.Fatalf("rune length = %d, want 4", d.Len())
	}
	if got := d.Content(Span{2, 4}); got != "ñ→" {
		t.Errorf("Content = %q", got)
	}
	if d.RuneAt(3) != '→' {
		t.Errorf("RuneAt(3) = %q", d.RuneAt(3))
	}
}

// TestSpliceAcrossRepresentations: splices that keep, gain or lose
// multi-byte runes agree symbol for symbol with a document built from
// the spliced text, ASCII view included, whether the document builds
// the edited text (Splice) or adopts it (Edited).
func TestSpliceAcrossRepresentations(t *testing.T) {
	for _, c := range []struct {
		text     string
		off, del int
		ins      string
	}{
		{"abcdef", 2, 1, "XY"}, // ASCII stays ASCII
		{"abcdef", 6, 0, "ñ→"}, // ASCII gains runes
		{"aññb", 1, 2, "c"},    // loses every multi-byte rune
		{"añ→b", 1, 1, "é"},    // stays multi-byte
		{"añb", 0, 3, ""},      // empties
		{"", 0, 0, "plain"},    // grows from empty
	} {
		r := []rune(c.text)
		want := NewDocument(string(r[:c.off]) + c.ins + string(r[c.off+c.del:]))
		for how, got := range map[string]*Document{
			"Splice": NewDocument(c.text).Splice(c.off, c.del, c.ins),
			"Edited": NewDocument(c.text).Edited(c.off, c.del, c.ins, want.Text()),
		} {
			if got.Text() != want.Text() || got.Len() != want.Len() || got.ASCIIText() != want.ASCIIText() {
				t.Fatalf("%q.%s(%d,%d,%q) = %q (len %d, ascii %q), want %q (len %d, ascii %q)",
					c.text, how, c.off, c.del, c.ins, got.Text(), got.Len(), got.ASCIIText(), want.Text(), want.Len(), want.ASCIIText())
			}
			for i := 1; i <= want.Len(); i++ {
				if got.RuneAt(i) != want.RuneAt(i) {
					t.Fatalf("%s %q: RuneAt(%d) = %q, want %q", how, got.Text(), i, got.RuneAt(i), want.RuneAt(i))
				}
			}
			if got.Len() > 0 && got.Content(got.Whole()) != want.Text() {
				t.Fatalf("%s %q: Content of the whole document = %q", how, want.Text(), got.Content(got.Whole()))
			}
		}
	}
}

// TestEditedAdoptsText: an edited ASCII document shares the text it was
// handed and allocates nothing that grows with it.
func TestEditedAdoptsText(t *testing.T) {
	old := NewDocument(strings.Repeat("GET /index.html 200\n", 1<<12))
	text := old.Text() + "GET /a 404\n"
	var got *Document
	allocs := testing.AllocsPerRun(10, func() { got = old.Edited(old.Len(), 0, "GET /a 404\n", text) })
	if unsafe.StringData(got.Text()) != unsafe.StringData(text) {
		t.Fatal("Edited copied the text it was handed")
	}
	if allocs > 1 {
		t.Fatalf("Edited allocated %.0f times, want at most the Document itself", allocs)
	}
}

func TestMappingCompatibleUnion(t *testing.T) {
	m1 := Mapping{"x": {1, 4}}
	m2 := Mapping{"y": {4, 7}}
	m3 := Mapping{"x": {2, 4}}

	if !m1.Compatible(m2) {
		t.Error("disjoint-domain mappings must be compatible")
	}
	if m1.Compatible(m3) {
		t.Error("conflicting mappings reported compatible")
	}
	u, ok := m1.Union(m2)
	if !ok || !u.Equal(Mapping{"x": {1, 4}, "y": {4, 7}}) {
		t.Fatalf("Union = %v, %v", u, ok)
	}
	if _, ok := m1.Union(m3); ok {
		t.Error("incompatible union should fail")
	}
	// Union with overlapping but agreeing domains.
	m4 := Mapping{"x": {1, 4}, "z": {5, 6}}
	u, ok = m1.Union(m4)
	if !ok || len(u) != 2 {
		t.Fatalf("agreeing union = %v, %v", u, ok)
	}
}

func TestMappingDisjointDomain(t *testing.T) {
	m1 := Mapping{"x": {1, 2}}
	m2 := Mapping{"y": {1, 2}}
	m3 := Mapping{"x": {3, 4}}
	if !m1.DisjointDomain(m2) {
		t.Error("want disjoint")
	}
	if m1.DisjointDomain(m3) {
		t.Error("same variable must not be disjoint")
	}
}

func TestMappingHierarchical(t *testing.T) {
	if !(Mapping{"x": {1, 5}, "y": {2, 4}}).Hierarchical() {
		t.Error("nested mapping should be hierarchical")
	}
	if !(Mapping{"x": {1, 3}, "y": {3, 5}}).Hierarchical() {
		t.Error("disjoint mapping should be hierarchical")
	}
	if (Mapping{"x": {1, 4}, "y": {2, 6}}).Hierarchical() {
		t.Error("properly overlapping mapping must not be hierarchical")
	}
	if !(Mapping{}).Hierarchical() || !(Mapping{"x": {1, 2}}).Hierarchical() {
		t.Error("trivial mappings are hierarchical")
	}
}

func TestMappingPointDisjoint(t *testing.T) {
	if !(Mapping{"x": {1, 3}, "y": {4, 6}}).PointDisjoint() {
		t.Error("want point-disjoint")
	}
	if (Mapping{"x": {1, 3}, "y": {3, 6}}).PointDisjoint() {
		t.Error("shared endpoint is not point-disjoint")
	}
}

func TestMappingKeyString(t *testing.T) {
	m := Mapping{"b": {1, 2}, "a": {3, 4}}
	if m.Key() != "a=3,4;b=1,2" {
		t.Errorf("Key = %q", m.Key())
	}
	if m.String() != "{a -> (3, 4), b -> (1, 2)}" {
		t.Errorf("String = %q", m.String())
	}
	if (Mapping{}).String() != "{}" {
		t.Errorf("empty String = %q", Mapping{}.String())
	}
}

func TestMappingProject(t *testing.T) {
	m := Mapping{"x": {1, 2}, "y": {2, 3}, "z": {3, 4}}
	p := m.Project([]Var{"x", "z", "w"})
	if !p.Equal(Mapping{"x": {1, 2}, "z": {3, 4}}) {
		t.Errorf("Project = %v", p)
	}
}

func TestCompatibleSymmetric(t *testing.T) {
	// Property: compatibility is symmetric, and union (when defined)
	// is an extension of both arguments.
	f := func(a, b uint8, c, d uint8) bool {
		m1 := Mapping{"x": {int(a%5 + 1), int(a%5+1) + int(b%3)}}
		m2 := Mapping{"x": {int(c%5 + 1), int(c%5+1) + int(d%3)}}
		if m1.Compatible(m2) != m2.Compatible(m1) {
			return false
		}
		if u, ok := m1.Union(m2); ok {
			return u["x"] == m1["x"] && u["x"] == m2["x"]
		}
		return m1["x"] != m2["x"]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIsASCIIWordAtATime: a byte from 0x80 up — alone, or the first or
// last byte of a valid or an invalid multi-byte rune — at every offset
// 0–15 of ASCII strings 16–24 bytes long makes isASCII false, as the
// byte loop says, and without it isASCII is true.
func TestIsASCIIWordAtATime(t *testing.T) {
	byteLoop := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if s[i] >= 0x80 {
				return false
			}
		}
		return true
	}
	for _, ins := range []string{"", `"`, `\`, "\x1f", "\x7f", "\x80", "é", "€", "\xe2\x82", "\xff"} {
		for n := 16; n <= 24; n++ {
			for off := 0; off < 16; off++ {
				base := strings.Repeat("a~ z0", 5)[:n]
				s := base[:off] + ins + base[off:]
				if got, want := isASCII(s), byteLoop(s); got != want {
					t.Errorf("%q: isASCII %v, the byte loop %v", s, got, want)
				}
			}
		}
	}
}
