package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildSpand builds the server the way bench/run.sh does.
func buildSpand(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spand")
	if out, err := exec.Command("go", "build", "-o", bin, "spanners/cmd/spand").CombinedOutput(); err != nil {
		t.Fatalf("build spand: %v\n%s", err, out)
	}
	return bin
}

func quickConfig(t *testing.T, bin string) config {
	// No CPU placement: a test must not rebind the test binary's threads.
	return config{spandBin: bin, outDir: t.TempDir(), seed: 5, sz: quickSizes, place: &placement{}}
}

func names(ms map[string]metric) []string {
	out := make([]string, 0, len(ms))
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestQuickRun runs every workload in -quick mode, end to end against a
// real spand and through the ladder, and checks that the answers are
// right and that the metrics reported are exactly the ones
// BENCHMARK.json declares, with its units.
func TestQuickRun(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(declared, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", declared, workloadNames)
	}
	check := func(workload, family string, got map[string]metric, want []struct{ Name, Unit string }) {
		wantNames := []string{}
		for _, m := range want {
			wantNames = append(wantNames, m.Name)
			if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
				t.Errorf("%s/%s: unit %q, BENCHMARK.json says %q", workload, m.Name, g.Unit, m.Unit)
			}
		}
		sort.Strings(wantNames)
		if g := names(got); strings.Join(g, " ") != strings.Join(wantNames, " ") {
			t.Errorf("%s %s metrics\n got %v\nwant %v", workload, family, g, wantNames)
		}
	}
	bin := buildSpand(t)
	cfg := quickConfig(t, bin)
	cfg.trace = true
	for _, name := range workloadNames {
		w, err := buildWorkload(name, cfg.seed, cfg.sz)
		if err != nil {
			t.Fatal(err)
		}
		e2e, layers, tl, err := runSpec(context.Background(), cfg, w, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tl.failed != 0 || tl.attempted < 2*len(w.reqs) {
			t.Errorf("%s: %d failed of %d attempted (first: %v)", name, tl.failed, tl.attempted, tl.firstErr)
		}
		check(name, "end-to-end", e2e, decl.EndToEnd)
		check(name, "per-layer", layers, decl.PerLayer)
		for k, m := range e2e {
			if m.Value <= 0 {
				t.Errorf("%s/%s = %v: an end-to-end metric is never 0", name, k, m.Value)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
}

// TestWrongExpectationFails corrupts the ground truth (one mapping
// dropped from every document) and checks that the run reports failed
// requests, which is what makes the command exit non-zero.
func TestWrongExpectationFails(t *testing.T) {
	cfg := quickConfig(t, buildSpand(t))
	w, err := buildWorkload("batch_rows", cfg.seed, cfg.sz)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.truth
	w.truth = func(text string) []mapping { return truth(text)[1:] }
	_, _, tl, err := runSpec(context.Background(), cfg, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed == 0 || tl.firstErr == nil {
		t.Fatalf("a wrong expectation went unnoticed: %d failed of %d", tl.failed, tl.attempted)
	}
}
