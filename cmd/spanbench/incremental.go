package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"spanners"
	"spanners/internal/docstore"
	"spanners/internal/service"
	"spanners/internal/workload"
)

// The -incremental mode benchmarks the frontier-snapshot re-extraction
// layer (incremental sessions) head-to-head against full re-extraction
// of the post-edit document with the same compiled spanner. The
// headline scenario is the follow-mode append: a line lands at the
// tail of a web log and the session resweeps only the suffix until the
// frontiers re-converge, while the full side pays the whole document
// again. The -2x twin runs the identical append on a document twice
// the size — if append cost really scales with the suffix, its speedup
// roughly doubles instead of staying flat.

// incScenario is one head-to-head measurement.
type incScenario struct {
	Name           string  `json:"name"`
	IncNsOp        int64   `json:"inc_ns_op"`
	FullNsOp       int64   `json:"full_ns_op"`
	Speedup        float64 `json:"speedup"`
	MappingsPerDoc int     `json:"mappings_per_doc,omitempty"`
}

type incReport struct {
	Generated  string            `json:"generated"`
	Quick      bool              `json:"quick"`
	HeadToHead []incScenario     `json:"head_to_head"`
	Service    []serviceScenario `json:"service_path"`
}

// weblogExpr extracts method, path and status from every log line;
// it matches line-dense, which is what gives the backward frontiers
// something to re-converge with ahead of an edit.
const weblogExpr = `.*(m{GET|POST|PUT|DELETE} (p{[^ ]*}) st{\d\d\d} \d* "[^"]*"\n).*`

// incSession opens an incremental session over a generated web log,
// panicking if the spanner refuses incremental maintenance (the
// benchmark exists to measure it).
func incSession(sp *spanners.Spanner, lines int, seed int64) (*spanners.Incremental, string) {
	text := workload.WebLog(workload.WebLogOptions{Lines: lines, ReferProb: 0.3, Seed: seed})
	inc, ok := sp.Incremental(text)
	if !ok {
		panic("incremental benchmark: spanner refused an incremental session")
	}
	return inc, text
}

func runIncrementalBench(quick bool, jsonPath string) incReport {
	budget := 300 * time.Millisecond
	if quick {
		budget = 25 * time.Millisecond
	}
	rep := incReport{Generated: time.Now().UTC().Format(time.RFC3339), Quick: quick}

	headToHead := func(name string, outs int, inc, full func()) {
		in := measure(inc, budget)
		fn := measure(full, budget)
		sc := incScenario{
			Name: name, IncNsOp: in, FullNsOp: fn,
			Speedup: float64(fn) / float64(in), MappingsPerDoc: outs,
		}
		rep.HeadToHead = append(rep.HeadToHead, sc)
		row(name, fmt.Sprintf("%.2fx", sc.Speedup),
			fmt.Sprintf("inc=%v full=%v", time.Duration(in), time.Duration(fn)))
	}

	fmt.Println("== incremental re-extraction vs full re-extraction (same compiled spanner)")

	// Full re-extraction sweeps the whole document and emits every
	// mapping, linear in lines on this pattern; the session pays the
	// suffix. 1024 lines keep the full side's measured calls short in
	// CI and the suffix small against the document.
	lines := 1024
	if quick {
		lines = 256
	}
	sp := spanners.MustCompile(weblogExpr)
	newLine := `10.1.2.3 GET /api/items 200 512 "curl/8.0"` + "\n"

	// Follow-mode append: one line lands at the tail, the session pays
	// the suffix resweep; the full side re-extracts the appended
	// document. Each iteration appends and then deletes the line again
	// so the session stays at a fixed size across the measured loop.
	appendScenario := func(name string, logLines int, seed int64) {
		inc, text := incSession(sp, logLines, seed)
		base := len(text) // ASCII workload: byte and rune offsets agree
		full := spanners.NewDocument(text + newLine)
		headToHead(fmt.Sprintf("%s lines=%d", name, logLines), inc.MappingCount(),
			func() {
				if _, err := inc.Append(newLine); err != nil {
					panic(err)
				}
				if _, err := inc.Splice(base, len(newLine), ""); err != nil {
					panic(err)
				}
			},
			func() { sp.ExtractAll(full) })
	}
	appendScenario("weblog/tail-append", lines, 21)

	// The same append against a document twice the size: a suffix-cost
	// append keeps inc ns/op roughly flat, so the speedup over the
	// (now twice as expensive) full run should roughly double.
	appendScenario("weblog/tail-append-2x", 2*lines, 22)

	// Mid-document edit: delete and re-insert a slice in the middle of
	// the log, forcing both a forward and a backward re-convergence
	// around the dirty window. The rewritten text equals the original,
	// so the session is steady-state across iterations.
	{
		inc, text := incSession(sp, lines, 23)
		mid := len(text) / 2
		chunk := text[mid : mid+24]
		full := spanners.NewDocument(text)
		headToHead(fmt.Sprintf("weblog/mid-edit lines=%d", lines), inc.MappingCount(),
			func() {
				if _, err := inc.Splice(mid, len(chunk), chunk); err != nil {
					panic(err)
				}
			},
			func() { sp.ExtractAll(full) })
	}

	fmt.Println()
	fmt.Println("== service path (stored documents, incremental sessions)")
	svc := service.New(service.Config{Workers: 2})
	ctx := context.Background()
	text := workload.WebLog(workload.WebLogOptions{Lines: lines, ReferProb: 0.3, Seed: 24})
	if _, err := svc.Documents().Put("log", text); err != nil {
		panic(err)
	}
	q := service.Query{Expr: weblogExpr}
	// The head-to-head section leaves gigabytes of full-extraction
	// garbage behind; settle the heap and take the best of three
	// trials so the gated service numbers reflect the serving path,
	// not the collector's backlog.
	servicePath := func(name string, f func()) {
		runtime.GC()
		ns := measure(f, budget)
		for trial := 0; trial < 2; trial++ {
			if n := measure(f, budget); n < ns {
				ns = n
			}
		}
		rep.Service = append(rep.Service, serviceScenario{Name: name, NsOp: ns})
		row(name, time.Duration(ns).String(), "")
	}
	// Unchanged document: the session hit path — re-serve the cached
	// result set without touching the engine.
	servicePath("service/doc_extract_cached", func() {
		if _, err := svc.ExtractDocument(ctx, q, "log"); err != nil {
			panic(err)
		}
	})
	// Append + undo between extractions: each ExtractDocument replays
	// the journal through the incremental engine before serving.
	servicePath("service/doc_extract_spliced", func() {
		if _, err := svc.Documents().ApplySplice("log", docstore.Splice{Offset: len(text), Insert: newLine}); err != nil {
			panic(err)
		}
		if _, err := svc.Documents().ApplySplice("log", docstore.Splice{Offset: len(text), DeleteLen: len(newLine)}); err != nil {
			panic(err)
		}
		if _, err := svc.ExtractDocument(ctx, q, "log"); err != nil {
			panic(err)
		}
	})

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
