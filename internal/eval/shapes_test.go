package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/workload"
)

// The query and document shapes of the spanload workloads
// (bench/spanload/workloads.go), for in-process tests and benchmarks:
// weblog_stream walks a 96-line web log under weblogStreamExpr, one
// mapping per line; sparse_scan scans a 500-line log in which three
// planted lines match sparseScanExpr; batch_rows extracts 4-row
// land-registry documents under batchRowsExpr.
const (
	sparseScanExpr = `.*m{TRACE} (p{/admin/[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`
	batchRowsExpr  = `.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`
)

// webLogDoc is a generated web log of the given number of lines.
func webLogDoc(lines int, seed int64) *span.Document {
	return span.NewDocument(workload.WebLog(workload.WebLogOptions{Lines: lines, ReferProb: 0.35, Seed: seed}))
}

// sparseLog is a web log of the given number of lines in which exactly
// plants lines, spread evenly, match sparseScanExpr; the middle one
// carries a referer.
func sparseLog(lines, plants int, seed int64) *span.Document {
	rng := rand.New(rand.NewSource(seed))
	ls := strings.SplitAfter(workload.WebLog(workload.WebLogOptions{Lines: lines, ReferProb: 0.35, Seed: seed}), "\n")
	for k := 0; k < plants; k++ {
		line := fmt.Sprintf("10.%d.%d.%d TRACE /admin/%s 403 %d \"curl/8.0\"",
			rng.Intn(256), rng.Intn(256), rng.Intn(256), []string{"users", "keys", "audit"}[k%3], rng.Intn(1000))
		if k == plants/2 {
			line += " ref=/index.html"
		}
		ls[(2*k+1)*lines/(2*plants)] = line + "\n"
	}
	return span.NewDocument(strings.Join(ls, ""))
}

// shape is one workload shape: a query and the documents one request
// carries.
type shape struct {
	name string
	expr string
	docs []*span.Document
}

// workloadShapes returns the three extraction shapes of spanload and
// dense_nodes: a*x{a*}a* on 200 a's, where every boundary is a DAG
// node and the 20 301 mappings are quadratic in the document.
func workloadShapes() []shape {
	rows := make([]*span.Document, 128)
	for i := range rows {
		rows[i] = span.NewDocument(workload.LandRegistry(workload.LandRegistryOptions{Rows: 4, TaxProb: 0.5, Seed: int64(i + 1)}))
	}
	return []shape{
		{"weblog_stream", weblogStreamExpr, []*span.Document{webLogDoc(96, 1)}},
		{"sparse_scan", sparseScanExpr, []*span.Document{sparseLog(500, 3, 1)}},
		{"batch_rows", batchRowsExpr, rows},
		{"dense_nodes", `a*x{a*}a*`, []*span.Document{span.NewDocument(strings.Repeat("a", 200))}},
	}
}

// gazetteerShape is a sparse scan whose program has more than 64
// states, so a state's folded firers (Bits.Fold) meet a frontier's fold
// where the sets themselves need not: x is a word of a 203-word
// dictionary after a slash, on the sparse_scan log, where admin, index
// and curl match.
func gazetteerShape() shape {
	rng := rand.New(rand.NewSource(1))
	words := make([]string, 200, 203)
	for i := range words {
		b := make([]byte, 4+rng.Intn(6))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(b)
	}
	words = append(words, "admin", "index", "curl")
	return shape{"gazetteer", `.*/x{` + strings.Join(words, "|") + `}[ /].*`, []*span.Document{sparseLog(500, 3, 1)}}
}

// TestGazetteerFirstRequest: the first request of a fresh engine costs
// the sweeps and the walk, and no per-query analysis that grows faster
// than the query (a search per literal-chain head took 1.44 s here).
// The query is the 200-word gazetteer .*x{w1|…|w200}.* over random
// 8-letter words (1 605 program states), on 4 KB of random words with
// one of the 200 planted.
func TestGazetteerFirstRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, 8)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	words := make([]string, 200)
	for i := range words {
		words[i] = word()
	}
	var text strings.Builder
	for text.Len() < 4096-9 {
		if text.Len() == 2043 {
			text.WriteString(words[77])
		} else {
			text.WriteString(word())
		}
		text.WriteByte(' ')
	}
	d := span.NewDocument(text.String())
	e := CompileRGX(rgx.MustParse(`.*x{` + strings.Join(words, "|") + `}.*`))
	if !e.DFAEnabled() {
		t.Fatal("the gazetteer runs without the DFA")
	}
	start := time.Now()
	found := false
	e.EnumerateTuples(d, nil, func(tup []span.Span) bool {
		found = found || tup[0] == span.Sp(2044, 2052)
		return true
	})
	took := time.Since(start)
	if !found {
		t.Fatal("the planted word is not among the mappings")
	}
	if took > 100*time.Millisecond && !raceEnabled {
		t.Errorf("first EnumerateTuples took %v, want under 100ms", took)
	}
}

// BenchmarkEnumerateShapes runs one request's extraction in-process per
// iteration: every document of the shape through EnumerateTuples with a
// yield that keeps nothing, which is what the service does before
// encoding. ns/byte and steps/byte (letter steps the walks take) are per
// byte of document text; ns/first is the time from the request's start
// to its first yield.
func BenchmarkEnumerateShapes(b *testing.B) {
	for _, sh := range workloadShapes() {
		e := CompileRGX(rgx.MustParse(sh.expr))
		bytes := 0
		for _, d := range sh.docs {
			bytes += len(d.Text())
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			n, steps := 0, 0
			var first time.Duration
			testHookWalkDone = func(w *seqWalk) { steps += w.steps }
			defer func() { testHookWalkDone = nil }()
			for i := 0; i < b.N; i++ {
				start, m := time.Now(), n
				for _, d := range sh.docs {
					e.EnumerateTuples(d, nil, func([]span.Span) bool {
						if n++; n == m+1 {
							first += time.Since(start)
						}
						return true
					})
				}
			}
			b.ReportMetric(float64(n)/float64(b.N), "mappings/op")
			b.ReportMetric(float64(first.Nanoseconds())/float64(b.N), "ns/first")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bytes), "ns/byte")
			b.ReportMetric(float64(steps)/float64(b.N)/float64(bytes), "steps/byte")
		})
	}
}

// TestGlideSteps: on a cold engine the walk takes letter steps only
// to fill its layers' memo — a glide step per (layer, class) and a
// boundary effect per (layer, key) — and crosses every other letter by
// a loop-bit test or a glide-row load. On the sparse_scan,
// weblog_stream and batch_rows shapes that is 236, 174 and 166 steps;
// stepping every frontier not known to loop on each letter took 545,
// 3 238 and 13 218, and every letter 24 785 on sparse_scan. Whether a
// frontier fires is one AND of folded firers (Bits.Fold), which is the
// exact test up to 64 program states, so those three shapes take no
// exact test; the gazetteer's 1 339-state program folds its firers
// falsely and takes 1 549, once per co-reach state in a row where the
// folds meet (3 448 when every boundary they met took one).
func TestGlideSteps(t *testing.T) {
	limits := map[string]struct{ steps, firerTests int }{
		"sparse_scan":   {1000, 50},
		"weblog_stream": {3600, 600},
		"batch_rows":    {14000, 3200},
		"gazetteer":     {3200, 2000},
	}
	steps, tests := 0, 0
	testHookWalkDone = func(w *seqWalk) { steps, tests = steps+w.steps, tests+w.firerTests }
	defer func() { testHookWalkDone = nil }()
	for _, sh := range append(workloadShapes(), gazetteerShape()) {
		limit, ok := limits[sh.name]
		if !ok {
			continue
		}
		e := CompileRGX(rgx.MustParse(sh.expr))
		steps, tests = 0, 0
		for _, d := range sh.docs {
			e.EnumerateTuples(d, nil, func([]span.Span) bool { return true })
		}
		if steps > limit.steps {
			t.Errorf("%s: %d letter steps, want at most %d", sh.name, steps, limit.steps)
		}
		if tests > limit.firerTests {
			t.Errorf("%s: %d exact firer tests, want at most %d", sh.name, tests, limit.firerTests)
		}
		t.Logf("%s: %d letter steps, %d exact firer tests", sh.name, steps, tests)
	}
}
