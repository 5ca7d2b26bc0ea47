package spanners

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"spanners/internal/workload"
)

// The paper's running example: extract seller names always and the
// optional tax amount when present.
const sellerExpr = `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`

func TestQuickstartSellerExtraction(t *testing.T) {
	doc := NewDocument("Seller: John, ID75\nBuyer: Marcelo, ID832, P78\nSeller: Mark, ID7, $35,000\n")
	s := MustCompile(sellerExpr)
	if !s.Sequential() {
		t.Error("the seller pattern should be sequential")
	}
	got := s.ExtractAll(doc)
	var names, taxes []string
	for _, m := range got {
		names = append(names, doc.Content(m["x"]))
		if tax, ok := m["y"]; ok {
			taxes = append(taxes, doc.Content(tax))
		}
	}
	if len(names) != 2 || names[0] != "John" || names[1] != "Mark" {
		t.Errorf("names = %v", names)
	}
	if len(taxes) != 1 || taxes[0] != "35,000" {
		t.Errorf("taxes = %v", taxes)
	}
}

func TestOptionalFieldYieldsPartialMappings(t *testing.T) {
	doc := NewDocument("Seller: John, ID75\n")
	s := MustCompile(sellerExpr)
	m, ok := s.First(doc)
	if !ok {
		t.Fatal("no match")
	}
	if _, bound := m["y"]; bound {
		t.Error("tax variable must be unassigned on the tax-free row")
	}
	if doc.Content(m["x"]) != "John" {
		t.Errorf("x = %q", doc.Content(m["x"]))
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("x{a"); err == nil {
		t.Error("unclosed capture must fail")
	}
	if _, err := Compile("["); err == nil {
		t.Error("unclosed class must fail")
	}
}

func TestMatchesAndModelCheck(t *testing.T) {
	s := MustCompile("x{a*}y{b*}")
	d := NewDocument("aabb")
	if !s.Matches(d) {
		t.Fatal("should match")
	}
	if !s.ModelCheck(d, Mapping{"x": Sp(1, 3), "y": Sp(3, 5)}) {
		t.Error("exact split must model-check")
	}
	if s.ModelCheck(d, Mapping{"x": Sp(1, 3)}) {
		t.Error("partial mapping is not a member here")
	}
}

func TestExtendable(t *testing.T) {
	s := MustCompile("x{a*}y{b*}")
	d := NewDocument("aabb")
	c := NewConstraints().WithSpan("x", Sp(1, 3))
	if !s.Extendable(d, c) {
		t.Error("x = aa extends")
	}
	if s.Extendable(d, c.WithUnassigned("y")) {
		t.Error("y cannot stay unassigned")
	}
}

func TestEnumerateDeterministicAndEarlyStop(t *testing.T) {
	s := MustCompile(".*x{ab}.*")
	d := NewDocument("abab")
	var first []string
	s.Enumerate(d, func(m Mapping) bool {
		first = append(first, m.Key())
		return true
	})
	if len(first) != 2 {
		t.Fatalf("matches = %v", first)
	}
	count := 0
	s.Enumerate(d, func(m Mapping) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop delivered %d", count)
	}
}

func TestAlgebra(t *testing.T) {
	a := MustCompile("x{a}.*")
	b := MustCompile(".*y{b}")
	d := NewDocument("ab")

	u := Union(a, b)
	if got := len(u.ExtractAll(d)); got != 2 {
		t.Errorf("union outputs = %d", got)
	}

	j := Join(a, b)
	all := j.ExtractAll(d)
	if len(all) != 1 {
		t.Fatalf("join outputs = %v", all)
	}
	if all[0]["x"] != Sp(1, 2) || all[0]["y"] != Sp(2, 3) {
		t.Errorf("join mapping = %v", all[0])
	}

	p := Project(j, "x")
	pm := p.ExtractAll(d)
	if len(pm) != 1 || len(pm[0]) != 1 || pm[0]["x"] != Sp(1, 2) {
		t.Errorf("projection = %v", pm)
	}
}

func TestJoinExpressesOverlap(t *testing.T) {
	// Two captures that properly overlap — inexpressible by a single
	// RGX, the motivating power of the algebra.
	a := MustCompile(".*x{..}.*")
	b := MustCompile(".*y{..}.*")
	j := Join(a, b)
	d := NewDocument("abc")
	found := false
	for _, m := range j.ExtractAll(d) {
		if m["x"] == Sp(1, 3) && m["y"] == Sp(2, 4) {
			found = true
		}
	}
	if !found {
		t.Error("overlapping mapping missing from join")
	}
}

func TestSequentializeAPI(t *testing.T) {
	s := MustCompile("(x{a}|b)*")
	if s.Sequential() {
		t.Fatal("star over variables is not sequential")
	}
	seq, err := Sequentialize(s, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Sequential() {
		t.Fatal("result must be sequential")
	}
	for _, text := range []string{"", "b", "ab", "bab", "aa"} {
		d := NewDocument(text)
		if !equalMappings(s.ExtractAll(d), seq.ExtractAll(d)) {
			t.Errorf("semantics changed on %q", text)
		}
	}
}

func TestStaticAnalysisAPI(t *testing.T) {
	if !Satisfiable(MustCompile("x{a*}b")) {
		t.Error("satisfiable formula reported unsatisfiable")
	}
	if Satisfiable(MustCompile("x{a}x{b}")) {
		t.Error("x{a}x{b} must be unsatisfiable")
	}
	if w, ok := Witness(MustCompile("x{a+}b")); !ok || !MustCompile("x{a+}b").Matches(w) {
		t.Errorf("witness broken: %v %v", w, ok)
	}

	left := MustCompile("x{ab}")
	right := MustCompile("x{a.}")
	if ok, _ := Contained(left, right); !ok {
		t.Error("x{ab} ⊆ x{a.} must hold")
	}
	ok, cex := Contained(right, left)
	if ok || cex == nil {
		t.Fatal("x{a.} ⊄ x{ab}")
	}
	if !right.ModelCheck(cex.Doc, cex.Mapping) || left.ModelCheck(cex.Doc, cex.Mapping) {
		t.Errorf("counterexample does not separate: %v", cex)
	}

	if !Equivalent(MustCompile("x{a|b}"), MustCompile("x{b|a}")) {
		t.Error("commuted disjunction must be equivalent")
	}
}

func TestDeterminizeAPI(t *testing.T) {
	s := MustCompile("x{a}|y{a}")
	d := Determinize(s)
	if !d.Automaton().IsDeterministic() {
		t.Fatal("not deterministic")
	}
	doc := NewDocument("a")
	if !equalMappings(s.ExtractAll(doc), d.ExtractAll(doc)) {
		t.Error("determinization changed outputs")
	}
}

func TestContainedDetSeqAPI(t *testing.T) {
	a := Determinize(MustCompile("x{a}b(y{c})"))
	ok, err := ContainedDetSeq(a, a)
	if err != nil || !ok {
		t.Errorf("self containment: %v %v", ok, err)
	}
}

func TestRuleAPI(t *testing.T) {
	r := MustParseRule("(<x>|<y>) && x.(ab*) && y.(ba*)")
	d := NewDocument("abb")
	got := r.ExtractAll(d)
	if len(got) != 1 || got[0]["x"] != Sp(1, 4) {
		t.Fatalf("rule outputs = %v", got)
	}
	if !r.Simple() || !r.TreeLike() || !r.DagLike() || !r.Sequential() {
		t.Error("classification broken")
	}
	if !r.Matches(d) || r.Matches(NewDocument("c")) {
		t.Error("Matches broken")
	}
	sat, err := r.Satisfiable(DefaultBudget)
	if err != nil || !sat {
		t.Errorf("Satisfiable = %v, %v", sat, err)
	}
}

func TestRuleToSpanner(t *testing.T) {
	// Tree-like: direct Lemma B.1 conversion.
	tree := MustParseRule("a(<x>)b && x.(c*)")
	s, err := tree.ToSpanner(DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"ab", "acb", "accb", "ba"} {
		d := NewDocument(text)
		if !equalMappings(tree.ExtractAll(d), s.ExtractAll(d)) {
			t.Errorf("tree conversion differs on %q", text)
		}
	}

	// Cyclic rule: full pipeline with auxiliary projection.
	cyc := MustParseRule("a*(<x>)b* && x.(<y>) && y.(<x>)")
	s2, err := cyc.ToSpanner(DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"", "a", "ab", "aab"} {
		d := NewDocument(text)
		if !equalMappings(cyc.ExtractAll(d), s2.ExtractAll(d)) {
			t.Errorf("pipeline conversion differs on %q:\nrule: %v\nspanner: %v",
				text, cyc.ExtractAll(d), s2.ExtractAll(d))
		}
	}
}

func TestWorkloadIntegration(t *testing.T) {
	text := workload.LandRegistry(workload.LandRegistryOptions{Rows: 60, TaxProb: 0.4, Seed: 3})
	d := NewDocument(text)
	s := MustCompile(`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	rows := strings.Count(text, "Seller: ")
	var withTax, total int
	s.Enumerate(d, func(m Mapping) bool {
		total++
		if _, ok := m["y"]; ok {
			withTax++
		}
		return true
	})
	if total != rows {
		t.Errorf("extracted %d sellers, want %d", total, rows)
	}
	if withTax == 0 || withTax == total {
		t.Errorf("tax should be optional: %d/%d", withTax, total)
	}
}

func equalMappings(a, b []Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	index := map[string]bool{}
	for _, m := range a {
		index[m.Key()] = true
	}
	for _, m := range b {
		if !index[m.Key()] {
			return false
		}
	}
	return true
}

func TestProgramStatsExposed(t *testing.T) {
	s := MustCompile(sellerExpr)
	if !s.Compiled() {
		t.Fatal("seller spanner should execute a compiled program")
	}
	st := s.ProgramStats()
	if !st.Compiled || !st.Sequential {
		t.Fatalf("ProgramStats = %+v, want compiled sequential", st)
	}
	if st.States == 0 || st.Classes == 0 || st.Vars != 2 || st.OpEdges == 0 {
		t.Fatalf("ProgramStats sizes look wrong: %+v", st)
	}
	if st.CompileNS <= 0 {
		t.Fatalf("compile time not recorded: %+v", st)
	}

	// Algebra results carry their own compiled programs.
	u := Union(s, MustCompile(`z{a}`))
	if !u.Compiled() {
		t.Error("union spanner should also compile")
	}
	if got := u.ProgramStats().Vars; got != 3 {
		t.Errorf("union program has %d vars, want 3", got)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestFirstPaysForThePrefix: First stops the walk at its first mapping,
// and the walk sweeps forward only as far as that mapping needs, so on
// 2 MiB of a under a*x{a*}a* — where every boundary is a DAG node and
// a whole sweep held the DAG of all of them (about 630 B per document
// byte, 1.9 s) — it costs the co-reach, 8 B per byte, and a short
// stretch of the sweep. The engine warms its DFA on a short document
// first, so the timed call interns no state.
func TestFirstPaysForThePrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("walks a 2 MiB document")
	}
	s := MustCompile(`a*x{a*}a*`)
	if m, ok := s.First(NewDocument("aaaa")); !ok || m["x"] != Sp(1, 1) {
		t.Fatalf("First on aaaa = %v, %v; want x = %v", m, ok, Sp(1, 1))
	}
	d := NewDocument(strings.Repeat("a", 2<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	m, ok := s.First(d)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if !ok || m["x"] != Sp(1, 1) {
		t.Fatalf("First = %v, %v; want x = %v", m, ok, Sp(1, 1))
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(2<<20)
	t.Logf("%v, %.2f B per document byte", took, perByte)
	if raceEnabled {
		// The race detector slows the sweeps several times over, and
		// slices.Grow allocates its buffer twice under it.
		return
	}
	if took > 250*time.Millisecond {
		t.Errorf("First on 2 MiB took %v, want under 250ms", took)
	}
	if perByte > 16 {
		t.Errorf("First on 2 MiB allocated %.2f B per document byte, want under 16", perByte)
	}
}
