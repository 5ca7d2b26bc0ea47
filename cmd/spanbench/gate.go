package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// The regression gate compares a fresh benchmark run against a
// committed baseline record (BENCH_engine.json for -engine,
// BENCH_dfa.json for -dfa), failing on gross regressions instead of
// letting them land silently. Two kinds of checks:
//
//   - head-to-head speedups (two engines on identical automata and
//     documents) are dimensionless and largely machine-independent,
//     so a speedup falling below baseline/mult means the faster
//     engine itself regressed;
//   - service-path ns/op are absolute and vary with hardware, which
//     is why the threshold is deliberately generous (default 2×) —
//     the gate exists to catch a 5× cliff from an accidental
//     de-optimization, not a 20% wobble.
//
// Scenario names embed workload sizes ("eval/sequential |d|=63848"),
// so matching uses the stable prefix before the first space.

// gatedReport is the gate's view of any benchmark report: scenario
// names with their speedups and service ns/op. Both the -engine and
// -dfa reports project onto it via JSON (their head-to-head rows all
// carry "name" and "speedup").
type gatedReport struct {
	Quick      bool `json:"quick"`
	HeadToHead []struct {
		Name    string  `json:"name"`
		Speedup float64 `json:"speedup"`
	} `json:"head_to_head"`
	Service []serviceScenario `json:"service_path"`
}

// asGated projects a concrete report through JSON onto the gate's
// shape.
func asGated(report any) (gatedReport, error) {
	raw, err := json.Marshal(report)
	if err != nil {
		return gatedReport{}, err
	}
	var g gatedReport
	if err := json.Unmarshal(raw, &g); err != nil {
		return gatedReport{}, err
	}
	return g, nil
}

func scenarioKey(name string) string {
	key, _, _ := strings.Cut(name, " ")
	return key
}

// dfaSpeedupFloors are absolute head-to-head floors for the DFA
// section — the speed-ladder acceptance targets. Unlike the
// baseline-relative checks they do not drift with the committed
// record: a run whose speedup falls below its floor fails even if
// the baseline also fell.
var dfaSpeedupFloors = map[string]float64{
	"enumerate/sequential": 1.5,
	"eval/constrained":     1.3,
	"count/sequential":     1.0,
}

// incSpeedupFloors pin the incremental section's headline claim: a
// tail append must cost the suffix resweep, not the document, which
// on the benchmark web log means beating full re-extraction by at
// least 5x regardless of where the committed baseline sits.
var incSpeedupFloors = map[string]float64{
	"weblog/tail-append": 5.0,
}

// algebraSpeedupFloors pin the planner's headline claim: on the
// join-heavy scenario the optimized cold query (dedup + projection
// pushdown) must beat the literal plan outright, regardless of where
// the committed baseline sits.
var algebraSpeedupFloors = map[string]float64{
	"joinheavy/redundant-arm-pushdown": 1.4,
}

// clusterSpeedupFloors pin the shard-scaling claim: a 4-shard gate
// must at least double 1-shard batch throughput. Shards are
// one-worker processes, so the floor only means anything when the
// machine has cores for them to scale onto — on fewer than 4 cores
// the shards time-slice one CPU, the row flattens to ~1x by
// construction, and the floor stands down (the baseline-relative
// check still applies).
var clusterSpeedupFloors = map[string]float64{
	"cluster/batch-4shard": 2.0,
}

// speedupFloors returns the absolute head-to-head floors for a
// baseline section, nil when the section has none.
func speedupFloors(section string) map[string]float64 {
	switch section {
	case "spanbench_dfa":
		return dfaSpeedupFloors
	case "spanbench_incremental":
		return incSpeedupFloors
	case "spanbench_algebra":
		return algebraSpeedupFloors
	case "spanbench_cluster":
		if runtime.NumCPU() < 4 {
			fmt.Fprintf(os.Stderr, "spanbench: note: %d cores < 4, absolute cluster scaling floors disarmed\n", runtime.NumCPU())
			return nil
		}
		return clusterSpeedupFloors
	}
	return nil
}

// gateAgainstBaseline compares cur against the named section of the
// committed baseline file ("spanbench_engine" or "spanbench_dfa") and
// returns the joined regression failures, nil when the gate passes.
func gateAgainstBaseline(report any, baselinePath, section string, mult float64) error {
	cur, err := asGated(report)
	if err != nil {
		return fmt.Errorf("project report: %w", err)
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sections); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	secRaw, ok := sections[section]
	if !ok {
		return fmt.Errorf("baseline %s has no %q section", baselinePath, section)
	}
	var base gatedReport
	if err := json.Unmarshal(secRaw, &base); err != nil {
		return fmt.Errorf("parse baseline section %q: %w", section, err)
	}
	if len(base.HeadToHead) == 0 {
		return fmt.Errorf("baseline section %q has no head_to_head rows", section)
	}
	if mult < 1 {
		return fmt.Errorf("gate multiplier %.2f must be >= 1", mult)
	}
	if cur.Quick != base.Quick {
		fmt.Fprintf(os.Stderr, "spanbench: warning: comparing quick=%v run against quick=%v baseline; workload sizes differ\n",
			cur.Quick, base.Quick)
	}

	baseH2H := map[string]float64{}
	for _, s := range base.HeadToHead {
		baseH2H[scenarioKey(s.Name)] = s.Speedup
	}
	baseSvc := map[string]int64{}
	for _, s := range base.Service {
		baseSvc[scenarioKey(s.Name)] = s.NsOp
	}

	var failures []error
	floors := speedupFloors(section)
	for _, s := range cur.HeadToHead {
		if floor, ok := floors[scenarioKey(s.Name)]; ok && s.Speedup < floor {
			failures = append(failures, fmt.Errorf(
				"head-to-head %q: speedup %.2fx fell below the absolute floor %.2fx",
				s.Name, s.Speedup, floor))
		}
		b, ok := baseH2H[scenarioKey(s.Name)]
		if !ok {
			continue // new scenario: nothing to regress against
		}
		if floor := b / mult; s.Speedup < floor {
			failures = append(failures, fmt.Errorf(
				"head-to-head %q: speedup %.2fx fell below %.2fx (baseline %.2fx / %.1f)",
				s.Name, s.Speedup, floor, b, mult))
		}
	}
	for _, s := range cur.Service {
		b, ok := baseSvc[scenarioKey(s.Name)]
		if !ok {
			continue
		}
		if ceil := float64(b) * mult; float64(s.NsOp) > ceil {
			failures = append(failures, fmt.Errorf(
				"service %q: %d ns/op exceeds %.0f ns/op (baseline %d × %.1f)",
				s.Name, s.NsOp, ceil, b, mult))
		}
	}
	return errors.Join(failures...)
}
