// Command spanload is the repo's end-to-end benchmark: four closed-loop
// workloads against a separately started spand over loopback HTTP, and
// an in-process traced layer ladder that splits a request's time across
// the repo's packages from outside. See bench/README.md.
//
//	bench/run.sh                      # every workload, end to end and traced
//	bench/run.sh --workload doc_edit --seed 7 --seconds 12 --trace 0
//
// With --workload the last line of standard output is one JSON object,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the machine-readable result of one workload's run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	spandBin string
	outDir   string
	seed     int64
	seconds  time.Duration
	trace    bool
	sz       sizes
	place    *placement
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds = flag.Int("seconds", 12, "how long the timed passes of a workload run, at least")
		trace   = flag.Int("trace", 0, "1 runs the traced layer ladder and reports the per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke-test sizes: a tenth of the requests, one pass, ladder on two requests")
		spand   = flag.String("spand", "", "path of the spand binary to start (required)")
		out     = flag.String("out", "bench/out", "directory for server logs, registries and trace files")
		compare = flag.String("compare", "", "path of BENCHMARK.json: run nothing, compare the run files given as arguments (sets A, B, A, B; see bench/repeat.sh)")
	)
	flag.Parse()
	if *compare != "" {
		if err := compareSets(os.Stdout, *compare, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "spanload:", err)
			os.Exit(1)
		}
		return
	}
	if *spand == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: spanload -spand BIN [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [-quick] [-out DIR]")
		os.Exit(2)
	}
	cfg := config{spandBin: *spand, outDir: *out, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace != 0, sz: fullSizes}
	if *quick {
		cfg.sz, cfg.seconds = quickSizes, 0
	}
	// The harness shares the machine's two cores with the server it
	// measures; both sides are pinned so that a bigger machine does not
	// change the shape of the run.
	runtime.GOMAXPROCS(2)
	place, err := placeSelf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spanload:", err)
		os.Exit(1)
	}
	cfg.place = &place
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	printEnvironment(&place)
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
		cfg.trace = true
	}
	ok := true
	var last report
	for _, n := range names {
		rep, err := runWorkload(ctx, cfg, n, *name == "all")
		if err != nil {
			fmt.Fprintf(os.Stderr, "spanload: %s: %v\n", n, err)
			os.Exit(1)
		}
		ok = ok && rep.Correct
		last = rep
	}
	if *name != "all" {
		line, _ := json.Marshal(last)
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// printEnvironment records what the numbers were measured on.
func printEnvironment(place *placement) {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("SPANLOAD_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("# cpu %q nproc %d %s commit %s loadavg1 %.2f\n", cpu, runtime.NumCPU(), runtime.Version(), commit, loadAvg1())
	fmt.Println("# server GOMAXPROCS=2 GOGC=100 -workers 2; loadgen GOMAXPROCS=2, one closed-loop client on one keep-alive connection")
	if place.split() {
		fmt.Printf("# loadgen on cpu %v, server on cpu %v\n", place.client.list(), place.server.list())
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "spanload: fewer than 2 CPUs: client and server share one, timings are not comparable with the recorded ones")
	}
}

// runWorkload runs one workload end to end and, when tracing, through
// the layer ladder, printing every metric as "workload/metric value
// unit". The report carries the per-layer metrics of a traced run, the
// end-to-end metrics otherwise; everything is printed when both is set.
func runWorkload(ctx context.Context, cfg config, name string, both bool) (report, error) {
	w, err := buildWorkload(name, cfg.seed, cfg.sz)
	if err != nil {
		return report{}, err
	}
	setups := cfg.sz.setups
	if cfg.trace && !both {
		setups = 1 // a traced run reports no setup_s; once is enough
	}
	e2e, layers, tl, err := runSpec(ctx, cfg, w, setups)
	if err != nil {
		return report{}, err
	}
	if tl.firstErr != nil {
		fmt.Fprintf(os.Stderr, "spanload: %v\n", tl.firstErr)
	}
	rep := report{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: e2e}
	if both || !cfg.trace {
		printMetrics(name, e2e)
	}
	if cfg.trace {
		printMetrics(name, layers)
		rep.Metrics = layers
	}
	return rep, nil
}

// runSpec measures an already generated workload: the end-to-end
// metrics and, when cfg.trace is set, the per-layer ones.
func runSpec(ctx context.Context, cfg config, w *workloadSpec, setups int) (e2e, layers map[string]metric, tl *tally, err error) {
	tl = &tally{}
	if e2e, layers, err = endToEnd(ctx, cfg, w, setups, tl); err != nil || !cfg.trace {
		return e2e, nil, tl, err
	}
	ladder, err := runLadder(ctx, cfg, w)
	if err != nil {
		return nil, nil, tl, err
	}
	maps.Copy(layers, ladder)
	p50 := e2e["req_p50_ms"].Value
	layers["harness.ladder_gap_pct"] = metric{100 * (p50 - layers["http.roundtrip_ms"].Value) / p50, "%"}
	return e2e, layers, tl, nil
}

// endToEnd measures the workload against `setups` servers in turn: each
// is set up from nothing (setup_s is the median of those times), gets
// its share of the timed passes, is sampled and stopped. Spreading the
// passes over every server of the run, not the last one alone, lets the
// per-request best reach over the whole run, which on a shared machine
// is longer than the slow spells that come and go. It returns the
// end-to-end metrics and the per-layer metrics that come from the
// server processes and the harness itself.
func endToEnd(ctx context.Context, cfg config, w *workloadSpec, setups int, tl *tally) (e2e, layers map[string]metric, err error) {
	load0 := loadAvg1()
	var (
		setupTimes            []time.Duration
		passes                []passStats
		srv                   serverStats
		docBytes, mappingsOut int64
	)
	for k := 0; k < setups; k++ {
		g, d, err := setUp(ctx, w, cfg, tl)
		if err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, d)
		share := (cfg.sz.minPasses + setups - 1) / setups
		ps, st, err := g.timedPasses(ctx, share, cfg.seconds/time.Duration(setups))
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, ps...)
		srv.add(st)
		docBytes, mappingsOut = g.totals()
	}

	n := float64(len(w.reqs))
	all := n * float64(len(passes))
	var lats, ttfms [][]time.Duration
	var cpu, sys, clientCPU time.Duration
	leastCPU := passes[0].cpu
	for _, p := range passes {
		lats, ttfms = append(lats, p.lat), append(ttfms, p.ttfm)
		cpu, sys, clientCPU, leastCPU = cpu+p.cpu, sys+p.sys, clientCPU+p.clientCPU, min(leastCPU, p.cpu)
	}
	lat, ttfm := bestOf(lats), bestOf(ttfms)
	busy := sum(lat).Seconds()
	fmt.Printf("# %s: %d requests/pass, %d timed passes over %d server(s), percentiles over %d requests, %d failed of %d attempted\n",
		w.name, len(w.reqs), len(passes), setups, len(lat), tl.failed, tl.attempted)
	e2e = map[string]metric{
		"setup_s":          {median(setupTimes).Seconds(), "s"},
		"doc_mb_s":         {float64(docBytes) / 1e6 / busy, "MB/s"},
		"mappings_s":       {float64(mappingsOut) / busy, "1/s"},
		"req_p50_ms":       {ms(percentile(lat, 0.50)), "ms"},
		"req_p90_ms":       {ms(percentile(lat, 0.90)), "ms"},
		"ttfm_p50_ms":      {ms(percentile(ttfm, 0.50)), "ms"},
		"cpu_ms_per_req":   {ms(leastCPU) / n, "ms"},
		"allocs_per_req":   {float64(srv.mallocs) / all, "count"},
		"alloc_kb_per_req": {float64(srv.allocated) / 1024 / all, "KB"},
	}
	layers = map[string]metric{
		"spand.rss_peak_mb":             {srv.rssPeakMB, "MB"},
		"spand.sys_cpu_pct":             {100 * float64(sys) / float64(cpu), "%"},
		"spand.gc_cpu_pct":              {100 * srv.gcCPU, "%"},
		"spand.gc_per_req":              {float64(srv.collections) / all, "count"},
		"spand.gc_pause_us_per_req":     {us(srv.pause) / all, "us"},
		"harness.pass_spread_pct":       {passSpreadPct(passes), "%"},
		"harness.client_cpu_ms_per_req": {ms(clientCPU) / all, "ms"},
		"harness.loadavg_start":         {load0, "count"},
	}
	return e2e, layers, nil
}

func printMetrics(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s/%s %.6g %s\n", workload, k, ms[k].Value, ms[k].Unit)
	}
}
