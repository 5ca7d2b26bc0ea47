// Command spanbench prints the experiment tables E1–E13 (the README's
// "spanbench" section lists the invocations): for each complexity
// claim of the paper (Sections 4–6) it runs the corresponding workload
// sweep and prints the measured scaling, so the claimed
// tractable/intractable split can be eyeballed directly.
//
// Usage:
//
//	spanbench [-run E6] [-quick]
//	spanbench -engine [-quick] [-enginejson BENCH_engine.json]
//	spanbench -engine -gatebase BENCH_engine.json [-gatemult 2]
//	spanbench -dfa [-quick] [-dfajson BENCH_dfa.json]
//	spanbench -dfa -gatebase BENCH_dfa.json [-gatemult 2]
//	spanbench -incremental [-quick] [-incjson BENCH_incremental.json]
//	spanbench -incremental -gatebase BENCH_incremental.json [-gatemult 2]
//	spanbench -algebra [-quick] [-algebrajson BENCH_algebra.json]
//	spanbench -algebra -gatebase BENCH_algebra.json [-gatemult 2]
//	spanbench -obs [-quick] [-obsjson BENCH_obs.json] [-obsgate 0.03]
//
// The -engine mode instead benchmarks the compiled execution core
// against the interpreted engines (head-to-head on the same automata)
// and records the service-path numbers tracked in BENCH_engine.json.
// The -dfa mode benchmarks the lazy-DFA layer
// against plain bitset stepping on the same compiled programs,
// tracked in BENCH_dfa.json. The -incremental mode benchmarks
// incremental re-extraction under edits (frontier-snapshot sessions)
// against full re-extraction of the post-edit document, tracked in
// BENCH_incremental.json. The -algebra mode benchmarks the algebra
// planner: the same expression composed optimized vs literal and
// evaluated head-to-head, plus the registry-backed service path for
// join-heavy and difference queries, tracked in BENCH_algebra.json.
// With -gatebase any of these modes
// additionally compares the run against its committed record and
// exits nonzero on gross regressions (speedups below baseline/mult,
// service ns/op above baseline×mult) — the CI regression gates.
//
// The -obs mode A/B-measures the observability layer itself: the
// gated service-path workloads against a twin service built with
// DisableObservability. With -obsgate it exits nonzero when any
// scenario's overhead exceeds the given fraction — the CI check that
// tracing stays cheap enough to leave on in production.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"spanners"
	"spanners/internal/eval"
	"spanners/internal/reductions"
	"spanners/internal/rgx"
	"spanners/internal/rules"
	"spanners/internal/static"
	"spanners/internal/va"
	"spanners/internal/workload"
)

var (
	runFilter  = flag.String("run", "", "only experiments whose id contains this substring")
	quick      = flag.Bool("quick", false, "smaller sweeps")
	engineFlag = flag.Bool("engine", false, "run the compiled-vs-interpreted engine benchmarks instead of the experiment tables")
	engineJSON = flag.String("enginejson", "", "with -engine: write results as JSON to this file")
	dfaFlag    = flag.Bool("dfa", false, "run the lazy-DFA-vs-bitset-stepping benchmarks instead of the experiment tables")
	dfaJSON    = flag.String("dfajson", "", "with -dfa: write results as JSON to this file")
	incFlag    = flag.Bool("incremental", false, "run the incremental-vs-full re-extraction benchmarks instead of the experiment tables")
	incJSON    = flag.String("incjson", "", "with -incremental: write results as JSON to this file")
	algFlag    = flag.Bool("algebra", false, "run the planner-optimized-vs-literal algebra composition benchmarks instead of the experiment tables")
	algJSON    = flag.String("algebrajson", "", "with -algebra: write results as JSON to this file")
	clFlag     = flag.Bool("cluster", false, "run the spanload shard-scaling benchmarks (spangate over N in-process spand shards) instead of the experiment tables")
	clJSON     = flag.String("clusterjson", "", "with -cluster: write results as JSON to this file")
	gateBase   = flag.String("gatebase", "", "with -engine or -dfa: compare against the committed baseline JSON and exit nonzero on gross regressions")
	gateMult   = flag.Float64("gatemult", 2.0, "with -gatebase: allowed regression factor before the gate fails")
	obsFlag    = flag.Bool("obs", false, "measure the observability layer's overhead against a DisableObservability twin service")
	obsJSON    = flag.String("obsjson", "", "with -obs: write results as JSON to this file")
	obsGate    = flag.Float64("obsgate", 0, "with -obs: exit nonzero when any scenario's overhead exceeds this fraction (0 disables)")
)

type experiment struct {
	id    string
	claim string
	run   func(q bool)
}

func main() {
	flag.Parse()
	if *obsFlag {
		rep := runObsBench(*quick, *obsJSON, *obsGate)
		if *obsGate > 0 {
			failed := false
			for _, sc := range rep.Scenarios {
				if sc.Overhead > *obsGate {
					fmt.Fprintf(os.Stderr, "spanbench: OBSERVABILITY GATE FAILED: %s overhead %+.2f%% exceeds %.2f%%\n",
						sc.Name, sc.Overhead*100, *obsGate*100)
					failed = true
				}
			}
			if failed {
				os.Exit(1)
			}
			fmt.Printf("observability gate passed (max overhead %+.2f%% <= %.2f%%)\n",
				rep.MaxOverhead*100, *obsGate*100)
		}
		return
	}
	if *engineFlag || *dfaFlag || *incFlag || *algFlag || *clFlag {
		var (
			rep     any
			section string
		)
		switch {
		case *engineFlag:
			rep, section = runEngineBench(*quick, *engineJSON), "spanbench_engine"
		case *dfaFlag:
			rep, section = runDFABench(*quick, *dfaJSON), "spanbench_dfa"
		case *incFlag:
			rep, section = runIncrementalBench(*quick, *incJSON), "spanbench_incremental"
		case *clFlag:
			rep, section = runClusterBench(*quick, *clJSON), "spanbench_cluster"
		default:
			rep, section = runAlgebraBench(*quick, *algJSON), "spanbench_algebra"
		}
		if *gateBase != "" {
			if err := gateAgainstBaseline(rep, *gateBase, section, *gateMult); err != nil {
				fmt.Fprintln(os.Stderr, "spanbench: REGRESSION GATE FAILED")
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("\nregression gate passed (baseline %s §%s, threshold %.1fx)\n", *gateBase, section, *gateMult)
		}
		return
	}
	for _, e := range experiments {
		if *runFilter != "" && !strings.Contains(e.id, *runFilter) {
			continue
		}
		fmt.Printf("== %s — %s\n", e.id, e.claim)
		e.run(*quick)
		fmt.Println()
	}
}

// timed runs f once and returns the wall time.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// row prints one aligned table row.
func row(cols ...interface{}) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	fmt.Printf("   %-28s %-14s %s\n", parts[0], parts[1], strings.Join(parts[2:], "  "))
}

var experiments = []experiment{
	{"E1", "Thm 4.1/4.2: mapping semantics subsumes relation semantics", runE1},
	{"E2", "Thm 4.3/4.4: RGX ⇄ VA round trips", runE2},
	{"E4", "Thm 4.7: cycle elimination is polynomial", runE4},
	{"E5", "Thm 5.2/6.1: NonEmp of spanRGX is NP-hard (1-in-3-SAT)", runE5},
	{"E6", "Thm 5.7: sequential Eval scales near-linearly in |d|", runE6},
	{"E7", "Thm 5.1: polynomial-delay enumeration", runE7},
	{"E8", "Prop 5.4: NonEmp of relational VA is NP-hard (Ham. path)", runE8},
	{"E9", "Thm 5.8/5.9: dag rules hard, tree rules tractable", runE9},
	{"E10", "Thm 5.10: Eval is FPT in the number of variables", runE10},
	{"E11", "Thm 6.2: Sat of sequential VA is linear reachability", runE11},
	{"E12", "Thm 6.4/6.6: containment blows up (DNF validity)", runE12},
	{"E13", "Thm 6.7: det+seq+point-disjoint containment is PTIME", runE13},
}

func runE1(q bool) {
	s := spanners.MustCompile(`.*(Seller: x{[^,\n]*}, ID(y{\d*})\n).*`)
	text := workload.LandRegistry(workload.LandRegistryOptions{Rows: 64, TaxProb: 0, Seed: 1})
	d := spanners.NewDocument(text)
	var ms []spanners.Mapping
	el := timed(func() { ms = s.ExtractAll(d) })
	relational := true
	for _, m := range ms {
		if len(m) != 2 {
			relational = false
		}
	}
	row("functional formula", el, fmt.Sprintf("outputs=%d relation=%v", len(ms), relational))

	opt := spanners.MustCompile(`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	text2 := workload.LandRegistry(workload.LandRegistryOptions{Rows: 64, TaxProb: 0.5, Seed: 1})
	d2 := spanners.NewDocument(text2)
	var partial, total int
	el = timed(func() {
		for _, m := range opt.ExtractAll(d2) {
			total++
			if len(m) == 1 {
				partial++
			}
		}
	})
	row("optional-field formula", el, fmt.Sprintf("outputs=%d partial=%d (beyond relations)", total, partial))
}

func runE2(q bool) {
	for _, e := range []string{"x{a*}y{b*}", "x{a*}(y{b}|c)z{d*}", "(x{a}|y{b})(z{c}|w{d})"} {
		a := va.FromRGX(rgx.MustParse(e))
		var back rgx.Node
		el := timed(func() { back, _ = va.ToRGX(a, 1_000_000) })
		row(e, el, fmt.Sprintf("states=%d back-size=%d", a.NumStates, rgx.Size(back)))
	}
}

func runE4(q bool) {
	sizes := []int{2, 8, 32, 128}
	if q {
		sizes = []int{2, 8, 32}
	}
	for _, m := range sizes {
		src := "(<v0>)"
		for i := 0; i < m; i++ {
			src += fmt.Sprintf(" && v%d.(<v%d>)", i, (i+1)%m)
		}
		r := rules.MustParse(src)
		el := timed(func() {
			if _, err := rules.EliminateCycles(r); err != nil {
				panic(err)
			}
		})
		row(fmt.Sprintf("cycle length %d", m), el, "(polynomial growth expected)")
	}
}

func runE5(q bool) {
	rng := rand.New(rand.NewSource(1))
	ns := []int{2, 4, 6, 8, 10}
	if q {
		ns = []int{2, 4, 6}
	}
	for _, n := range ns {
		ins := reductions.RandomOneInThreeSAT(rng, n+2, n)
		eng := eval.CompileRGX(ins.ToSpanRGX())
		d := spanners.NewDocument("")
		var got bool
		el := timed(func() { got = eng.NonEmpty(d) })
		row(fmt.Sprintf("clauses=%d", n), el, fmt.Sprintf("sat=%v (exponential growth expected)", got))
	}
}

func runE6(q bool) {
	s := spanners.MustCompile(`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	rows := []int{128, 512, 2048, 8192}
	if q {
		rows = []int{128, 512}
	}
	for _, r := range rows {
		text := workload.LandRegistry(workload.LandRegistryOptions{Rows: r, TaxProb: 0.5, Seed: 2})
		d := spanners.NewDocument(text)
		el := timed(func() { s.Matches(d) })
		row(fmt.Sprintf("|d|=%d", d.Len()), el,
			fmt.Sprintf("%.2f µs/char (flat = linear)", float64(el.Microseconds())/float64(d.Len())))
	}
}

func runE7(q bool) {
	s := spanners.MustCompile(`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	eng := eval.CompileRGX(s.Expr())
	sizes := []int{4, 8, 16, 32}
	if q {
		sizes = []int{4, 8}
	}
	for _, r := range sizes {
		text := workload.LandRegistry(workload.LandRegistryOptions{Rows: r, TaxProb: 0.5, Seed: 3})
		d := spanners.NewDocument(text)
		outputs := 0
		el := timed(func() {
			eng.Enumerate(d, func(m spanners.Mapping) bool { outputs++; return true })
		})
		row(fmt.Sprintf("rows=%d prefiltered", r), el, fmt.Sprintf("outputs=%d delay=%v", outputs, el/time.Duration(max(1, outputs))))
		if r <= 4 {
			outputs = 0
			el = timed(func() {
				eng.EnumerateOracle(d, func(m spanners.Mapping) bool { outputs++; return true })
			})
			row(fmt.Sprintf("rows=%d algorithm-2", r), el, fmt.Sprintf("outputs=%d delay=%v (paper-verbatim baseline)", outputs, el/time.Duration(max(1, outputs))))
		}
	}
}

func runE8(q bool) {
	rng := rand.New(rand.NewSource(4))
	ns := []int{4, 5, 6, 7, 8}
	if q {
		ns = []int{4, 5, 6}
	}
	for _, n := range ns {
		g := reductions.RandomDigraph(rng, n, 0.35, n%2 == 0)
		eng := eval.NewEngine(g.ToRelationalVA())
		var got bool
		el := timed(func() { got = eng.NonEmpty(reductions.EmptyDocument()) })
		row(fmt.Sprintf("vertices=%d", n), el, fmt.Sprintf("ham-path=%v (exponential growth expected)", got))
	}
}

func runE9(q bool) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3} {
		ins := reductions.RandomOneInThreeSAT(rng, n+2, n)
		r := ins.ToDagRule()
		el := timed(func() { rules.NonEmpty(r, ins.RuleDocument()) })
		row(fmt.Sprintf("dag-like clauses=%d", n), el, "(NP-hard family)")
	}
	for _, rws := range []int{8, 32, 128} {
		text := workload.LandRegistry(workload.LandRegistryOptions{Rows: rws, TaxProb: 0.5, Seed: 6})
		d := spanners.NewDocument(text)
		tree := rules.MustParse(`.*Seller: (<x>), ID.* && x.([^,\n]*)`)
		el := timed(func() { rules.NonEmpty(tree, d) })
		row(fmt.Sprintf("tree-like rows=%d", rws), el, "(tractable family)")
	}
}

func runE10(q bool) {
	mk := func(k int) *eval.Engine {
		expr := "("
		for i := 0; i < k; i++ {
			expr += fmt.Sprintf("x%d{a}|", i)
		}
		expr += "b)*"
		return eval.CompileRGX(rgx.MustParse(expr))
	}
	for _, k := range []int{1, 2, 4, 6, 8} {
		eng := mk(k)
		d := spanners.NewDocument(workload.RepeatRow("ab", 32))
		el := timed(func() { eng.NonEmpty(d) })
		row(fmt.Sprintf("k=%d |d|=64", k), el, "(f(k) growth)")
	}
	for _, n := range []int{64, 256, 1024, 4096} {
		eng := mk(3)
		d := spanners.NewDocument(workload.RepeatRow("ab", n/2))
		el := timed(func() { eng.NonEmpty(d) })
		row(fmt.Sprintf("k=3 |d|=%d", n), el, "(near-linear in |d|)")
	}
}

func runE11(q bool) {
	for _, size := range []int{100, 1000, 10000} {
		expr := "x{a*}"
		for i := 0; i < size/10; i++ {
			expr += "(ab|cd)*e"
		}
		a := va.FromRGX(rgx.MustParse(expr))
		el := timed(func() { static.Satisfiable(a) })
		row(fmt.Sprintf("sequential states=%d", a.NumStates), el, "(linear reachability)")
	}
}

func runE12(q bool) {
	ns := []int{3, 4, 5, 6}
	if q {
		ns = []int{3, 4}
	}
	for _, n := range ns {
		f := reductions.Tautology(n)
		a1, a2 := f.ToContainment()
		var ok bool
		el := timed(func() { ok, _ = static.Contained(a1, a2) })
		row(fmt.Sprintf("dnf vars=%d", n), el, fmt.Sprintf("contained=%v (hard family)", ok))
	}
}

func runE13(q bool) {
	for _, size := range []int{4, 16, 64, 256} {
		expr := "x{a}" + strings.Repeat("b", size) + "(y{c})"
		a := va.Determinize(va.FromRGX(rgx.MustParse(expr))).Trim()
		el := timed(func() {
			if ok, err := static.ContainedDetSeq(a, a); err != nil || !ok {
				panic(fmt.Sprint(ok, err))
			}
		})
		row(fmt.Sprintf("chain=%d states=%d", size, a.NumStates), el, "(PTIME product)")
	}
	n := rgx.MustParse("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)x{c}")
	a := va.FromRGX(n)
	det := va.Determinize(a)
	row("determinization blowup", "-", fmt.Sprintf("nfa=%d det=%d states (Prop 6.5 cost)", a.NumStates, det.NumStates))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
