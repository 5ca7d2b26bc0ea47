package eval

import (
	"math/rand"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/runeclass"
	"spanners/internal/span"
	"spanners/internal/va"
)

// This file is the differential property suite for the compiled
// execution core: on randomized RGX expressions and documents, the
// compiled program path, the pre-refactor interpreted path, and the
// va.Mappings reference run semantics must agree — for both decision
// engines, for enumeration, and for Eval under random partial
// constraints. It extends the randomExpr generator of
// enumerate_test.go.

// engines builds the engine configurations under test from one
// automaton: {compiled (DFA on), compiled without DFA, compiled with
// a 3-state DFA budget (permanent flush/fallback boundary),
// interpreted} × {auto-selected, forced FPT}.
func engines(a *va.VA) map[string]*Engine {
	compiled := NewEngine(a)
	nodfa := NewEngine(a)
	nodfa.ForceNoDFA()
	tiny := NewEngine(a)
	if p := tiny.Program(); p != nil {
		tiny.UseDFA(program.NewDFA(p, 3))
	}
	interp := NewEngine(a)
	interp.ForceInterpreted()
	cFPT := NewEngine(a)
	cFPT.ForceFPT()
	tFPT := NewEngine(a)
	tFPT.ForceFPT()
	if p := tFPT.Program(); p != nil {
		tFPT.UseDFA(program.NewDFA(p, 3))
	}
	iFPT := NewEngine(a)
	iFPT.ForceInterpreted()
	iFPT.ForceFPT()
	return map[string]*Engine{
		"compiled":         compiled,
		"compiled-nodfa":   nodfa,
		"compiled-tinydfa": tiny,
		"interpreted":      interp,
		"compiled-fpt":     cFPT,
		"tinydfa-fpt":      tFPT,
		"interpreted-fpt":  iFPT,
	}
}

// randomDoc draws a short document over {a, b}.
func randomDoc(rng *rand.Rand) string {
	n := rng.Intn(5)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('a' + rng.Intn(2))
	}
	return string(buf)
}

func TestDifferentialCompiledVsInterpretedVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 150; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "y"})
		a := va.FromRGX(n)
		engs := engines(a)
		if !engs["compiled"].Compiled() {
			t.Fatalf("trial %d: program compilation unexpectedly rejected %v", trial, n)
		}
		for _, text := range []string{"", "a", "b", randomDoc(rng), randomDoc(rng)} {
			d := span.NewDocument(text)
			want := a.Mappings(d) // reference run semantics
			for name, eng := range engs {
				got := eng.All(d)
				if !got.Equal(want) {
					t.Fatalf("trial %d: %s engine disagrees with reference on %v / %q:\ngot  %v\nwant %v",
						trial, name, n, text, got.Mappings(), want.Mappings())
				}
			}
		}
	}
}

// randomExtended draws a partial constraint over {x, y}: each variable
// independently free, pinned to a random (possibly invalid-for-the-
// language) span, or ⊥.
func randomExtended(rng *rand.Rand, n int) span.Extended {
	mu := span.Extended{}
	for _, v := range []span.Var{"x", "y"} {
		switch rng.Intn(3) {
		case 0:
			// free
		case 1:
			s := 1 + rng.Intn(n+1)
			e := s + rng.Intn(n+2-s)
			mu = mu.With(v, span.Assigned(span.Sp(s, e)))
		case 2:
			mu = mu.With(v, span.Unassigned())
		}
	}
	return mu
}

func TestDifferentialEvalUnderRandomConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	for trial := 0; trial < 120; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "y"})
		a := va.FromRGX(n)
		engs := engines(a)
		text := randomDoc(rng)
		d := span.NewDocument(text)
		for probe := 0; probe < 6; probe++ {
			mu := randomExtended(rng, d.Len())
			want := engs["interpreted"].Eval(d, mu)
			for name, eng := range engs {
				if got := eng.Eval(d, mu); got != want {
					t.Fatalf("trial %d: Eval disagreement (%s=%v, interpreted=%v) on %v / %q / %v",
						trial, name, got, want, n, text, mu)
				}
			}
		}
	}
}

// TestDifferentialEnumerationOrder: on sequential automata the
// compiled and interpreted enumerators must emit the same mappings in
// the same order, not just the same set — callers observe streaming
// order.
func TestDifferentialEnumerationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	checked := 0
	for trial := 0; trial < 300 && checked < 80; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "y"})
		eng, interp, ok := orderEngines(n)
		if !ok {
			continue
		}
		checked++
		for _, text := range []string{"", "ab", randomDoc(rng)} {
			assertSameOrder(t, eng, interp, n, text)
		}
	}
	if checked == 0 {
		t.Fatal("generator produced no sequential automata")
	}

	// Names where one is a prefix of another: the interpreted key
	// strings terminate tokens with ';', which sorts after digits and
	// before letters and '_', so {open x1} precedes {open x} although
	// "ox" < "ox1". The compiled rank table must reproduce that.
	for _, expr := range []string{
		`x{a}|x1{a}`,
		`.*(x{a}|x1{a}|x_{a}|X{a}|é{a}).*`,
		`(x{a}|x1{a})(x_{b}|X{b}|)`,
		`x{y1{a}}|x1{y{a}}|y{x1{a}}|y1{x{a}}`,
		`.*(x{a}b|x1{ab}|x{a}x1{b}).*`,
	} {
		n := rgx.MustParse(expr)
		eng, interp, ok := orderEngines(n)
		if !ok {
			t.Fatalf("%q is not a compiled sequential spanner", expr)
		}
		for _, text := range []string{"", "a", "ab", "aab", "abab"} {
			assertSameOrder(t, eng, interp, n, text)
		}
	}
	for trial := 0; trial < 150; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "x1", "x_", "X"})
		if eng, interp, ok := orderEngines(n); ok {
			assertSameOrder(t, eng, interp, n, "ab")
			assertSameOrder(t, eng, interp, n, randomDoc(rng))
		}
	}
	var first span.Mapping
	CompileRGX(rgx.MustParse(`x{a}|x1{a}`)).Enumerate(span.NewDocument("a"), func(m span.Mapping) bool {
		first = m
		return false
	})
	if _, ok := first["x1"]; !ok {
		t.Fatalf("x{a}|x1{a}: first mapping is %v, want the x1 branch (\"ox1;\" < \"ox;\")", first)
	}
}

// orderEngines returns the compiled and interpreted engines of n; ok
// is false when n is not a compiled sequential spanner.
func orderEngines(n rgx.Node) (eng, interp *Engine, ok bool) {
	a := va.FromRGX(n)
	eng = NewEngine(a)
	interp = NewEngine(a)
	interp.ForceInterpreted()
	return eng, interp, eng.Sequential() && eng.Compiled()
}

// assertSameOrder compares the two enumerators on text, mapping by
// mapping.
func assertSameOrder(t *testing.T, eng, interp *Engine, n rgx.Node, text string) {
	t.Helper()
	d := span.NewDocument(text)
	var got, want []string
	eng.Enumerate(d, func(m span.Mapping) bool { got = append(got, m.Key()); return true })
	interp.Enumerate(d, func(m span.Mapping) bool { want = append(want, m.Key()); return true })
	if len(got) != len(want) {
		t.Fatalf("%d vs %d outputs on %v / %q", len(got), len(want), n, text)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d on %v / %q:\ncompiled    %v\ninterpreted %v",
				i, n, text, got, want)
		}
	}
}

// TestDifferentialCount: the counting DP agrees across engine forms.
func TestDifferentialCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2029))
	for trial := 0; trial < 80; trial++ {
		n := randomExpr(rng, 3, []span.Var{"x", "y"})
		a := va.FromRGX(n)
		eng := NewEngine(a)
		interp := NewEngine(a)
		interp.ForceInterpreted()
		d := span.NewDocument(randomDoc(rng))
		if got, want := eng.Count(d), interp.Count(d); got != want {
			t.Fatalf("trial %d: Count %d (compiled) vs %d (interpreted) on %v / %q",
				trial, got, want, n, d.Text())
		}
	}
}

// TestDifferentialOnRandomAutomata drives the same comparison on raw
// random automata (including non-sequential, junk-transition ones)
// rather than Thompson compilations.
func TestDifferentialOnRandomAutomata(t *testing.T) {
	rng := rand.New(rand.NewSource(2030))
	for trial := 0; trial < 100; trial++ {
		a := randomJunkVA(rng, 5, 9)
		engs := engines(a)
		for _, text := range []string{"", "a", "ab", "ba"} {
			d := span.NewDocument(text)
			want := a.Mappings(d)
			for name, eng := range engs {
				got := eng.All(d)
				if !got.Equal(want) {
					t.Fatalf("trial %d: %s engine disagrees with reference on %q:\ngot  %v\nwant %v\n%s",
						trial, name, text, got.Mappings(), want.Mappings(), a)
				}
			}
		}
	}
}

// randomJunkVA mirrors va's randomVA test helper: arbitrary structure,
// no discipline guarantees.
func randomJunkVA(rng *rand.Rand, states, transitions int) *va.VA {
	a := va.New(states, 0, states-1)
	vars := []span.Var{"x", "y"}
	for i := 0; i < transitions; i++ {
		from, to := rng.Intn(states), rng.Intn(states)
		switch rng.Intn(4) {
		case 0:
			a.AddEps(from, to)
		case 1:
			a.AddLetter(from, to, runeclass.Single(rune('a'+rng.Intn(2))))
		case 2:
			a.AddOpen(from, to, vars[rng.Intn(2)])
		case 3:
			a.AddClose(from, to, vars[rng.Intn(2)])
		}
	}
	return a
}
