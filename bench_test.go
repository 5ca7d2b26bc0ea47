// Benchmarks reproducing the paper's complexity claims, one per
// experiment of spanbench's index (E1–E13, cmd/spanbench). The paper
// is a theory paper, so each "figure" is a complexity shape: the
// polynomial fragments must scale polynomially (near-linearly in
// document length for evaluation) and the hard families must blow up.
// `go run ./cmd/spanbench` prints the measured shapes next to the
// claims.
package spanners

import (
	"fmt"
	"math/rand"
	"testing"

	"spanners/internal/eval"
	"spanners/internal/reductions"
	"spanners/internal/rgx"
	"spanners/internal/rules"
	"spanners/internal/static"
	"spanners/internal/va"
	"spanners/internal/workload"
)

// E1 — Theorems 4.1/4.2: the mapping semantics evaluates functional
// RGX (the regex formulas of Fagin et al.) with relation outputs; the
// bench measures full evaluation of a functional formula.
func BenchmarkE1Subsumption(b *testing.B) {
	s := MustCompile(`.*(Seller: x{[^,\n]*}, ID(y{\d*})\n).*`)
	if !s.Functional() {
		b.Fatal("pattern must be functional")
	}
	text := workload.LandRegistry(workload.LandRegistryOptions{Rows: 64, TaxProb: 0, Seed: 1})
	d := NewDocument(text)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := s.ExtractAll(d)
		for _, m := range ms {
			if len(m) != 2 {
				b.Fatal("functional output must be a relation row")
			}
		}
	}
}

// E2 — Theorems 4.3/4.4: RGX → VA → RGX round trips; the bench
// measures the path-union extraction for growing expressions.
func BenchmarkE2RoundTrip(b *testing.B) {
	exprs := map[string]string{
		"2vars": "x{a*}y{b*}",
		"3vars": "x{a*}(y{b}|c)z{d*}",
		"4vars": "(x{a}|y{b})(z{c}|w{d})",
	}
	for name, e := range exprs {
		b.Run(name, func(b *testing.B) {
			a := va.FromRGX(rgx.MustParse(e))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := va.ToRGX(a.Clone(), 1_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3 — Theorem 4.5: the algebra. Join blows up with shared
// variables; union and projection stay cheap.
func BenchmarkE3Algebra(b *testing.B) {
	left := MustCompile("x{a*}y{b*}.*")
	right := MustCompile(".*y{b*}z{c*}")
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Union(left, right)
		}
	})
	b.Run("project", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Project(left, "x")
		}
	})
	b.Run("join-shared1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Join(left, right)
		}
	})
	b.Run("join-shared2", func(b *testing.B) {
		l2 := MustCompile("x{a*}y{b*}.*")
		r2 := MustCompile(".*x{a*}y{b*}")
		for i := 0; i < b.N; i++ {
			Join(l2, r2)
		}
	})
}

// E4 — Theorem 4.7: cycle elimination runs in polynomial time; the
// bench grows the cycle length.
func BenchmarkE4CycleElim(b *testing.B) {
	for _, m := range []int{2, 8, 32, 64} {
		b.Run(fmt.Sprintf("cycle%d", m), func(b *testing.B) {
			r := cycleRule(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rules.EliminateCycles(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cycleRule builds doc = x0, x0.(x1), …, x_{m-1}.(x0): one green
// m-cycle.
func cycleRule(m int) *rules.Rule {
	src := "(<v0>)"
	for i := 0; i < m; i++ {
		src += fmt.Sprintf(" && v%d.(<v%d>)", i, (i+1)%m)
	}
	return rules.MustParse(src)
}

// E5 — Theorems 5.2/6.1: NonEmp of spanRGX is NP-hard; the 1-in-3-SAT
// family blows up with the clause count.
func BenchmarkE5NonEmpHard(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 6, 8} {
		ins := reductions.RandomOneInThreeSAT(rng, n+2, n)
		eng := eval.CompileRGX(ins.ToSpanRGX())
		d := NewDocument("")
		b.Run(fmt.Sprintf("clauses%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.NonEmpty(d)
			}
		})
	}
}

// E6 — Proposition 5.3 / Theorem 5.7: Eval of sequential (hence
// functional) RGX is PTIME; time should grow near-linearly in |d|.
func BenchmarkE6SeqEval(b *testing.B) {
	s := MustCompile(`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	if !s.Sequential() {
		b.Fatal("expected sequential engine")
	}
	for _, rows := range []int{32, 128, 512, 2048} {
		text := workload.LandRegistry(workload.LandRegistryOptions{Rows: rows, TaxProb: 0.5, Seed: 2})
		d := NewDocument(text)
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if !s.Matches(d) {
					b.Fatal("no match")
				}
			}
		})
	}
}

// E7 — Theorems 5.1 + 5.7: polynomial-delay enumeration. The metric
// is time per output; the prefiltered enumerator is compared with the
// paper's verbatim Algorithm 2 (the ablation).
func BenchmarkE7EnumDelay(b *testing.B) {
	s := MustCompile(`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	for _, rows := range []int{4, 8, 16} {
		text := workload.LandRegistry(workload.LandRegistryOptions{Rows: rows, TaxProb: 0.5, Seed: 3})
		d := NewDocument(text)
		eng := eval.CompileRGX(s.Expr())
		b.Run(fmt.Sprintf("prefiltered/rows%d", rows), func(b *testing.B) {
			outputs := 0
			for i := 0; i < b.N; i++ {
				eng.Enumerate(d, func(m Mapping) bool { outputs++; return true })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(outputs), "ns/output")
		})
		if rows <= 4 {
			b.Run(fmt.Sprintf("algorithm2/rows%d", rows), func(b *testing.B) {
				outputs := 0
				for i := 0; i < b.N; i++ {
					eng.EnumerateOracle(d, func(m Mapping) bool { outputs++; return true })
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(outputs), "ns/output")
			})
		}
	}
}

// E8 — Proposition 5.4: NonEmp of relational VA is NP-hard; the
// Hamiltonian-path family blows up with the vertex count.
func BenchmarkE8RelationalVA(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 5, 6, 7} {
		g := reductions.RandomDigraph(rng, n, 0.35, n%2 == 0)
		eng := eval.NewEngine(g.ToRelationalVA())
		d := reductions.EmptyDocument()
		b.Run(fmt.Sprintf("vertices%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.NonEmpty(d)
			}
		})
	}
}

// E9 — Theorems 5.8/5.9: rule evaluation is NP-hard for dag-like
// rules (the 1-in-3-SAT family) and tractable for sequential
// tree-like rules (evaluated through the Lemma B.1 translation).
func BenchmarkE9Rules(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3} {
		ins := reductions.RandomOneInThreeSAT(rng, n+2, n)
		r := ins.ToDagRule()
		d := ins.RuleDocument()
		b.Run(fmt.Sprintf("dag-hard/clauses%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rules.NonEmpty(r, d)
			}
		})
	}
	for _, rows := range []int{8, 32, 128} {
		text := workload.LandRegistry(workload.LandRegistryOptions{Rows: rows, TaxProb: 0.5, Seed: 6})
		d := NewDocument(text)
		tree := rules.MustParse(`.*Seller: (<x>), ID.* && x.([^,\n]*)`)
		b.Run(fmt.Sprintf("tree-tractable/rows%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rules.NonEmpty(tree, d)
			}
		})
	}
}

// E10 — Theorem 5.10: Eval is FPT in the variable count: time is
// f(k)·poly(n). The k-sweep holds n fixed; the n-sweep holds k fixed
// and must stay near-linear.
func BenchmarkE10FPT(b *testing.B) {
	// (x1{a}|…|xk{a}|b)* is non-sequential (starred variables), so the
	// FPT engine runs; a document of a's and b's exercises it.
	mk := func(k int) *eval.Engine {
		expr := "("
		for i := 0; i < k; i++ {
			expr += fmt.Sprintf("x%d{a}|", i)
		}
		expr += "b)*"
		return eval.CompileRGX(rgx.MustParse(expr))
	}
	doc := func(n int) *Document { return NewDocument(workload.RepeatRow("ab", n/2)) }
	for _, k := range []int{1, 2, 4, 6} {
		eng := mk(k)
		d := doc(64)
		b.Run(fmt.Sprintf("k%d/n64", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.NonEmpty(d)
			}
		})
	}
	for _, n := range []int{64, 256, 1024} {
		eng := mk(3)
		d := doc(n)
		b.Run(fmt.Sprintf("k3/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.NonEmpty(d)
			}
		})
	}
}

// E11 — Theorems 6.2/6.3: satisfiability of sequential automata is
// reachability (linear in the automaton); tree-like rules are always
// satisfiable (the pipeline verifies it quickly).
func BenchmarkE11Sat(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		expr := ""
		for i := 0; i < size/10; i++ {
			expr += "(ab|cd)*e"
		}
		expr = "x{a*}" + expr
		a := va.FromRGX(rgx.MustParse(expr))
		b.Run(fmt.Sprintf("seq-states%d", a.NumStates), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !static.Satisfiable(a) {
					b.Fatal("should be satisfiable")
				}
			}
		})
	}
	tree := rules.MustParse("a*(<x>)b* && x.(c*(<y>)) && y.(d*)")
	b.Run("tree-rule-sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, err := rules.Satisfiable(tree, rules.DefaultRuleBudget)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}

// E12 — Theorems 6.4/6.6: containment is PSPACE-complete in general;
// the DNF-validity family (deterministic sequential automata, so the
// coNP bound of Theorem 6.6 applies) blows up with the variable
// count.
func BenchmarkE12Containment(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		f := reductions.Tautology(n)
		a1, a2 := f.ToContainment()
		b.Run(fmt.Sprintf("dnf-vars%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, _ := static.Contained(a1, a2)
				if !ok {
					b.Fatal("tautology must be contained")
				}
			}
		})
	}
}

// E13 — Theorem 6.7 + Proposition 6.5: containment of deterministic
// sequential point-disjoint automata is PTIME (linear-ish product),
// and determinization pays an automaton-size cost.
func BenchmarkE13DetContainment(b *testing.B) {
	for _, size := range []int{4, 16, 64} {
		expr := "x{a}"
		for i := 0; i < size; i++ {
			expr += "b"
		}
		expr += "(y{c})"
		a := va.Determinize(va.FromRGX(rgx.MustParse(expr))).Trim()
		b.Run(fmt.Sprintf("ptime-chain%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := static.ContainedDetSeq(a, a)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
	b.Run("determinize-blowup", func(b *testing.B) {
		// The classic (a|b)*a(a|b)^8: any DFA needs 2^9 states.
		n := rgx.MustParse("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)x{c}")
		a := va.FromRGX(n)
		b.ResetTimer()
		var states int
		for i := 0; i < b.N; i++ {
			det := va.Determinize(a)
			states = det.NumStates
		}
		b.ReportMetric(float64(states), "det-states")
		b.ReportMetric(float64(a.NumStates), "nfa-states")
	})
}
