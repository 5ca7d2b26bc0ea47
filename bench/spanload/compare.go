package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// declared is the part of BENCHMARK.json the self-agreement check needs.
type declared struct {
	EndToEnd []struct {
		Name   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

// compareSets is the check behind bench/repeat.sh. Each file holds the
// runs of one set, a line "workload {report JSON}" per run; the files
// alternate A, B, A, B, all of the same build. For every workload and
// end-to-end metric it prints the two medians, how much worse B is than
// A, and the spread (interquartile range over median) of all runs. It
// fails when the two sets of one build disagree by more than the
// metric's own bound, or when the spread of a metric other than setup_s
// exceeds it: either way the benchmark could not tell a regression of
// that size from noise.
func compareSets(out io.Writer, benchmarkJSON string, files []string) error {
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return err
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	// values[set][workload/metric] with set 0 = A, 1 = B.
	values := [2]map[string][]float64{{}, {}}
	var workloads []string // in order of first appearance
	seen := map[string]bool{}
	for i, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			workload, line, ok := strings.Cut(sc.Text(), " ")
			var rep report
			if !ok || json.Unmarshal([]byte(line), &rep) != nil || !rep.Correct {
				f.Close()
				return fmt.Errorf("%s: not a correct run: %.80s", name, sc.Text())
			}
			if !seen[workload] {
				seen[workload] = true
				workloads = append(workloads, workload)
			}
			for k, m := range rep.Metrics {
				values[i%2][workload+"/"+k] = append(values[i%2][workload+"/"+k], m.Value)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Fprintf(out, "%-32s %12s %12s %9s %9s %7s\n", "workload/metric", "median A", "median B", "B worse", "spread", "bound")
	for _, w := range workloads {
		for _, m := range decl.EndToEnd {
			a, b := values[0][w+"/"+m.Name], values[1][w+"/"+m.Name]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s/%s: no runs in one of the sets", w, m.Name)
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			all := append(append([]float64(nil), a...), b...)
			spread := iqr(all) / median(all)
			flag := ""
			if worse > m.Bound || -worse > m.Bound || (m.Name != "setup_s" && spread > m.Bound) {
				flag = "  <-- beyond the bound"
				bad++
			}
			fmt.Fprintf(out, "%-32s %12.5g %12.5g %8.2f%% %8.2f%% %6.0f%%%s\n", w+"/"+m.Name, ma, mb, 100*worse, 100*spread, 100*m.Bound, flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) beyond their bound between two sets of runs of the same build", bad)
	}
	return nil
}

// iqr is the distance between the first and third quartiles as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is what the acceptance check of the benchmark uses.
func iqr(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}
