package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"spanners"
	"spanners/internal/eval"
	"spanners/internal/rgx"
	"spanners/internal/service"
	"spanners/internal/span"
	"spanners/internal/va"
	"spanners/internal/workload"
)

// The -dfa mode benchmarks the lazy-DFA layer head-to-head against
// the bitset-stepping engine on the same compiled programs, plus the
// service-path numbers tracked in BENCH_dfa.json. Both sides execute
// the compiled program — the only difference is ForceNoDFA — so the
// speedups isolate exactly what the determinization cache buys: the
// memoized reverse sweep behind NonEmpty, enumeration and pinned Eval,
// and the walk's interned layers.

// dfaScenario is one head-to-head measurement.
type dfaScenario struct {
	Name           string  `json:"name"`
	DFANsOp        int64   `json:"dfa_ns_op"`
	BitsetNsOp     int64   `json:"bitset_ns_op"`
	Speedup        float64 `json:"speedup"`
	OutputsPerIter int     `json:"outputs_per_iter,omitempty"`
}

type dfaReport struct {
	Generated  string            `json:"generated"`
	Quick      bool              `json:"quick"`
	HeadToHead []dfaScenario     `json:"head_to_head"`
	Service    []serviceScenario `json:"service_path"`
}

// dfaPair compiles one automaton twice: a DFA-enabled engine and a
// plain bitset-stepping twin (each with its own program, so the
// shared transition cache cannot leak across sides).
func dfaPair(expr string) (*eval.Engine, *eval.Engine) {
	n := rgx.MustParse(expr)
	withDFA := eval.NewEngine(va.FromRGX(n))
	bitset := eval.NewEngine(va.FromRGX(n))
	bitset.ForceNoDFA()
	if !withDFA.Compiled() || !withDFA.DFAEnabled() {
		panic(fmt.Sprintf("dfa benchmark: %q did not compile to a DFA-backed program", expr))
	}
	return withDFA, bitset
}

func runDFABench(quick bool, jsonPath string) dfaReport {
	budget := 300 * time.Millisecond
	if quick {
		budget = 25 * time.Millisecond
	}
	rep := dfaReport{Generated: time.Now().UTC().Format(time.RFC3339), Quick: quick}

	headToHead := func(name string, dfa, bitset func() int) {
		outs := dfa()
		dn := measure(func() { dfa() }, budget)
		bn := measure(func() { bitset() }, budget)
		sc := dfaScenario{
			Name: name, DFANsOp: dn, BitsetNsOp: bn,
			Speedup: float64(bn) / float64(dn), OutputsPerIter: outs,
		}
		rep.HeadToHead = append(rep.HeadToHead, sc)
		row(name, fmt.Sprintf("%.2fx", sc.Speedup),
			fmt.Sprintf("dfa=%v bitset=%v", time.Duration(dn), time.Duration(bn)))
	}

	fmt.Println("== lazy DFA vs bitset stepping (both compiled)")

	// Boolean evaluation on the letter-heavy registry workload: the
	// skip-loop home turf (most runes self-loop on the scan state).
	rows := 2048
	if quick {
		rows = 256
	}
	sellerExpr := `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`
	dEng, bEng := dfaPair(sellerExpr)
	regDoc := spanners.NewDocument(workload.LandRegistry(workload.LandRegistryOptions{Rows: rows, TaxProb: 0.5, Seed: 11}))
	headToHead(fmt.Sprintf("match/letter-heavy |d|=%d", regDoc.Len()),
		func() int { boolToInt(dEng.NonEmpty(regDoc)); return 0 },
		func() int { boolToInt(bEng.NonEmpty(regDoc)); return 0 })

	// Anchored literal prefix over a batch of log lines: one reverse
	// sweep decides each line, carrying the [^\n]* loop back to the
	// line start, where only a line that opens with "ERROR: " reaches
	// the start state.
	lines := 512
	if quick {
		lines = 64
	}
	dAnch, bAnch := dfaPair(`ERROR: x{[^\n]*}`)
	logDocs := make([]*spanners.Document, lines)
	for i := range logDocs {
		line := fmt.Sprintf("INFO: request %d served", i)
		if i%16 == 0 {
			line = fmt.Sprintf("ERROR: disk %d full", i)
		}
		logDocs[i] = spanners.NewDocument(line)
	}
	headToHead(fmt.Sprintf("match/anchored-literal lines=%d", lines),
		func() int {
			n := 0
			for _, d := range logDocs {
				if dAnch.NonEmpty(d) {
					n++
				}
			}
			return n
		},
		func() int {
			n := 0
			for _, d := range logDocs {
				if bAnch.NonEmpty(d) {
					n++
				}
			}
			return n
		})

	// Sequential enumeration: the reverse DFA memoizes the
	// co-reachability sweep that dominates on letter-heavy documents.
	enRows := 48
	if quick {
		enRows = 12
	}
	enDoc := spanners.NewDocument(workload.LandRegistry(workload.LandRegistryOptions{Rows: enRows, TaxProb: 0.5, Seed: 12}))
	headToHead(fmt.Sprintf("enumerate/sequential rows=%d", enRows),
		func() int {
			n := 0
			dEng.Enumerate(enDoc, func(spanners.Mapping) bool { n++; return true })
			return n
		},
		func() int {
			n := 0
			bEng.Enumerate(enDoc, func(spanners.Mapping) bool { n++; return true })
			return n
		})

	// Counting DP over the same sweeps.
	countDoc := spanners.NewDocument(strings.Repeat("a", 1200))
	dCnt, bCnt := dfaPair(`.*x{a+}.*`)
	headToHead("count/sequential |d|=1200",
		func() int { return dCnt.Count(countDoc) },
		func() int { return bCnt.Count(countDoc) })

	// Constrained eval: model-checking a pinned span on a long
	// document. Both sides run the enumeration walk with a choice
	// filter, stopped at its first completion; the DFA side sweeps the
	// co-reach on memoized reverse rows and glides the walk's layers,
	// the bitset side steps bitsets at every boundary.
	consFill := 3000
	if quick {
		consFill = 400
	}
	consPad := strings.Repeat("a", consFill)
	consDoc := spanners.NewDocument(consPad + "bbbb" + consPad)
	dCons, bCons := dfaPair(`a*x{b+}a*`)
	consMu := span.Extended{"x": {Span: span.Sp(consFill+1, consFill+5)}}
	headToHead(fmt.Sprintf("eval/constrained |d|=%d", consDoc.Len()),
		func() int { boolToInt(dCons.Eval(consDoc, consMu)); return 0 },
		func() int { boolToInt(bCons.Eval(consDoc, consMu)); return 0 })

	// Time to first streamed result: the service latency axis.
	streamDoc := spanners.NewDocument(strings.Repeat("a", 200))
	dStr, bStr := dfaPair(`a*x{a*}a*`)
	headToHead("stream/first-result |d|=200",
		func() int { dStr.Enumerate(streamDoc, func(spanners.Mapping) bool { return false }); return 1 },
		func() int { bStr.Enumerate(streamDoc, func(spanners.Mapping) bool { return false }); return 1 })

	fmt.Println()
	fmt.Println("== service path (DFA engines, full cache + worker pool)")
	svc := service.New(service.Config{Workers: 4})
	ctx := context.Background()
	nDocs := 64
	if quick {
		nDocs = 16
	}
	docs := make([]string, nDocs)
	for i := range docs {
		docs[i] = fmt.Sprintf("Seller: S%d, lot %d\nBuyer: B%d\nSeller: T%d, lot %d\n", i, i, i, i, i+1)
	}
	batchQ := service.Query{Expr: `.*(Seller: x{[^,\n]*},[^\n]*\n).*`}
	servicePath := func(name string, f func()) {
		ns := measure(f, budget)
		rep.Service = append(rep.Service, serviceScenario{Name: name, NsOp: ns})
		row(name, time.Duration(ns).String(), "")
	}
	servicePath("service/compile_cached", func() {
		if _, err := svc.Extract(ctx, batchQ, docs[0]); err != nil {
			panic(err)
		}
	})
	servicePath(fmt.Sprintf("service/batch docs=%d workers=4", nDocs), func() {
		if _, err := svc.ExtractBatch(ctx, batchQ, docs); err != nil {
			panic(err)
		}
	})
	streamQ := service.Query{Expr: `a*x{a*}a*`}
	streamText := strings.Repeat("a", 200)
	servicePath("service/stream_first_result", func() {
		if err := svc.ExtractStream(ctx, streamQ, streamText, func(service.Result) bool { return false }); err != nil {
			panic(err)
		}
	})

	// Cache self-report, so the committed JSON also records how hard
	// the DFA worked for these numbers.
	if st, ok := dEng.DFAStats(); ok {
		fmt.Printf("\n   letter-heavy cache: states=%d hits=%d misses=%d fallbacks=%d\n",
			st.States, st.Hits, st.Misses, st.Fallbacks)
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			panic(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "spanbench: write %s: %v\n", jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return rep
}
