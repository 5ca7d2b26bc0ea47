package program

import (
	"math/rand"
	"testing"

	"spanners/internal/rgx"
	"spanners/internal/runeclass"
	"spanners/internal/span"
	"spanners/internal/va"
)

func compileExpr(t *testing.T, expr string) *Program {
	t.Helper()
	p, err := Compile(va.FromRGX(rgx.MustParse(expr)))
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	return p
}

// TestClassOfMatchesPredicates: the rune classifier must agree with
// the original class predicates — two runes get the same class id iff
// exactly the same letter predicates contain them, and runes outside
// every predicate classify to -1.
func TestClassOfMatchesPredicates(t *testing.T) {
	a := va.FromRGX(rgx.MustParse(`x{[a-m]*}[k-z]\d(…|.)`))
	p, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	classes := a.LetterClasses()
	sig := func(r rune) string {
		s := make([]byte, len(classes))
		for i, c := range classes {
			if c.Contains(r) {
				s[i] = '1'
			} else {
				s[i] = '0'
			}
		}
		return string(s)
	}
	probe := []rune{'a', 'k', 'm', 'n', 'z', '0', '9', ' ', '…', 0, runeclass.MaxRune}
	for _, r1 := range probe {
		for _, r2 := range probe {
			c1, c2 := p.ClassOf(r1), p.ClassOf(r2)
			if (sig(r1) == sig(r2)) != (c1 == c2) {
				t.Errorf("runes %q/%q: sig %s/%s but classes %d/%d",
					r1, r2, sig(r1), sig(r2), c1, c2)
			}
		}
	}
	// '.' covers everything here, so no rune should be classless.
	if p.ClassOf(' ') < 0 {
		t.Error("rune covered by '.' classified as -1")
	}
}

// TestProgramIsEpsFreeAndDense: compiled structure invariants.
func TestProgramStructure(t *testing.T) {
	p := compileExpr(t, `a*x{b+}(y{c}|d)`)
	st := p.Stats()
	if st.States != p.NumStates || st.States == 0 {
		t.Fatalf("stats states = %d, program %d", st.States, p.NumStates)
	}
	if st.Classes != p.NumClasses {
		t.Fatalf("stats classes mismatch")
	}
	if got := len(p.OpEdges); got != st.OpEdges || got == 0 {
		t.Fatalf("op edges = %d, stats %d", got, st.OpEdges)
	}
	if p.OpHead[len(p.OpHead)-1] != int32(len(p.OpEdges)) {
		t.Fatal("CSR op index does not cover the edge array")
	}
	for q := 0; q < p.NumStates; q++ {
		for _, e := range p.OpsFrom(q) {
			want := CloseBit(int(e.Var))
			if e.Open {
				want = OpenBit(int(e.Var))
			}
			if e.Mask != want {
				t.Fatalf("edge mask %x, want %x", e.Mask, want)
			}
		}
	}
	if p.OpenedMask == 0 {
		t.Fatal("no opened variables recorded")
	}
	for i, v := range p.Vars {
		if id, ok := p.VarID(v); !ok || id != i {
			t.Fatalf("VarID(%s) = %d,%v, want %d", v, id, ok, i)
		}
	}
	if _, ok := p.VarID("nosuch"); ok {
		t.Fatal("VarID invented a variable")
	}
}

// TestReverseEdgesMirror: every forward op edge appears reversed.
func TestReverseEdgesMirror(t *testing.T) {
	p := compileExpr(t, `x{a*}y{(b|c)*}|z{d}`)
	fwd := map[[2]int32]int{}
	for q := 0; q < p.NumStates; q++ {
		for _, e := range p.OpsFrom(q) {
			fwd[[2]int32{int32(q), e.To}]++
		}
	}
	rev := map[[2]int32]int{}
	for q := 0; q < p.NumStates; q++ {
		for _, e := range p.OpsInto(q) {
			rev[[2]int32{e.To, int32(q)}]++
		}
	}
	if len(fwd) != len(rev) {
		t.Fatalf("forward %d edge pairs, reverse %d", len(fwd), len(rev))
	}
	for k, n := range fwd {
		if rev[k] != n {
			t.Fatalf("edge %v: forward count %d, reverse %d", k, n, rev[k])
		}
	}
	// Dispatch symmetry: to ∈ Succ(q,c) iff q ∈ Pred(to,c).
	for q := 0; q < p.NumStates; q++ {
		for c := 0; c < p.NumClasses; c++ {
			p.Succ(q, c).ForEach(func(to int) {
				if !p.Pred(to, c).Has(q) {
					t.Fatalf("rdelta missing %d<-%d on class %d", q, to, c)
				}
			})
		}
	}
}

// TestCompileRejectsTooManyVars: the fallback contract.
func TestCompileRejectsTooManyVars(t *testing.T) {
	a := &va.VA{NumStates: 2, Start: 0, Finals: []int{1}}
	cur := 0
	for i := 0; i <= MaxVars; i++ {
		mid := a.AddState()
		end := a.AddState()
		v := span.Var(string(rune('A'+i/26)) + string(rune('a'+i%26)))
		a.AddOpen(cur, mid, v)
		a.AddClose(mid, end, v)
		cur = end
	}
	a.AddEps(cur, 1)
	if _, err := Compile(a); err == nil {
		t.Fatalf("expected compile error beyond %d variables", MaxVars)
	}
}

// TestBitsBasics exercises the bitset helpers the engines rely on.
func TestBitsBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		b := NewBits(n)
		ref := map[int]bool{}
		for i := 0; i < 30; i++ {
			x := rng.Intn(n)
			b.Set(x)
			ref[x] = true
		}
		if b.Count() != len(ref) {
			t.Fatalf("Count = %d, want %d", b.Count(), len(ref))
		}
		got := map[int]bool{}
		b.ForEach(func(i int) { got[i] = true })
		for x := range ref {
			if !b.Has(x) || !got[x] {
				t.Fatalf("bit %d lost", x)
			}
		}
		c := b.Clone()
		if c.Key() != b.Key() {
			t.Fatal("clone key differs")
		}
		o := NewBits(n)
		o.Set(rng.Intn(n))
		inter := b.Intersects(o)
		var want bool
		o.ForEach(func(i int) { want = want || ref[i] })
		if inter != want {
			t.Fatal("Intersects wrong")
		}
		b.Or(o)
		o.ForEach(func(i int) {
			if !b.Has(i) {
				t.Fatal("Or lost a bit")
			}
		})
	}
}
