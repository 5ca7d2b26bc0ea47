package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// silence sends the bench tables to /dev/null for the duration of
// the test: the smoke runs only care that the sweeps complete.
func silence(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = orig
		devnull.Close()
	})
}

// Every experiment table must complete in quick form. The tables are
// the paper's complexity claims run live; a sweep that panics or
// hangs here would take `spanbench`'s default mode down with it.
func TestExperimentTablesQuick(t *testing.T) {
	silence(t)
	for _, e := range experiments {
		e.run(true)
	}
}

// readReport parses a written bench JSON back into a generic map and
// fails if the file is missing or malformed.
func readReport(t *testing.T, path string) map[string]any {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// Every bench mode must complete a quick sweep, report non-empty
// scenario lists, and round-trip its JSON artifact — the shape the
// CI gates diff against the committed BENCH_*.json baselines.
func TestBenchModesQuick(t *testing.T) {
	silence(t)
	dir := t.TempDir()

	eng := runEngineBench(true, filepath.Join(dir, "engine.json"))
	if !eng.Quick || len(eng.HeadToHead) == 0 || len(eng.Service) == 0 {
		t.Fatalf("engine report: %+v", eng)
	}
	readReport(t, filepath.Join(dir, "engine.json"))

	dfa := runDFABench(true, filepath.Join(dir, "dfa.json"))
	if len(dfa.HeadToHead) == 0 || len(dfa.Service) == 0 {
		t.Fatalf("dfa report: %+v", dfa)
	}
	readReport(t, filepath.Join(dir, "dfa.json"))

	alg := runAlgebraBench(true, filepath.Join(dir, "algebra.json"))
	if len(alg.HeadToHead) == 0 || len(alg.Service) == 0 {
		t.Fatalf("algebra report: %+v", alg)
	}
	readReport(t, filepath.Join(dir, "algebra.json"))

	cl := runClusterBench(true, filepath.Join(dir, "cluster.json"))
	if cl.Cores <= 0 || len(cl.HeadToHead) == 0 || len(cl.Service) == 0 {
		t.Fatalf("cluster report: %+v", cl)
	}
	for _, sc := range cl.HeadToHead {
		if sc.Speedup <= 0 {
			t.Fatalf("cluster scenario %q: speedup %v", sc.Name, sc.Speedup)
		}
	}
	readReport(t, filepath.Join(dir, "cluster.json"))
}

// The observability A/B twin must also survive a quick sweep; its
// overhead numbers can be any sign (noise), but every scenario must
// report and the max must be consistent with the list.
func TestObsBenchQuick(t *testing.T) {
	silence(t)
	rep := runObsBench(true, filepath.Join(t.TempDir(), "obs.json"), 0)
	if len(rep.Scenarios) == 0 {
		t.Fatalf("obs report: %+v", rep)
	}
	max := rep.Scenarios[0].Overhead
	for _, sc := range rep.Scenarios {
		if sc.Overhead > max {
			max = sc.Overhead
		}
	}
	if rep.MaxOverhead != max {
		t.Fatalf("obs max overhead %v, scenarios say %v", rep.MaxOverhead, max)
	}
}
