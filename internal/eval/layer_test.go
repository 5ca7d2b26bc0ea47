package eval

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
)

// walkDAG is what one walk built: its DAG's nodes, and each edge's
// mask and target.
type walkDAG struct {
	nodes []dagNode
	edges [][2]int64
}

// enumerateShape enumerates every document of sh on e and returns the
// letter steps and layer misses its walks took and the DAG of each.
func enumerateShape(e *Engine, sh shape) (steps, misses int, dags []walkDAG) {
	testHookWalkDone = func(w *seqWalk) {
		steps += w.steps
		misses += w.layerMisses
		g := walkDAG{nodes: slices.Clone(w.nodes)}
		for _, ed := range w.edges {
			g.edges = append(g.edges, [2]int64{int64(ed.mask), int64(ed.to)})
		}
		dags = append(dags, g)
	}
	defer func() { testHookWalkDone = nil }()
	for _, d := range sh.docs {
		e.EnumerateTuples(d, nil, func([]span.Span) bool { return true })
	}
	return steps, misses, dags
}

// TestLayerMemoWarm: a walk's layers replay the memo their first pass
// filled. On the second pass over the same documents every workload
// shape takes no letter step and computes no glide step or boundary
// effect, and every walk builds the DAG the first pass built, node for
// node and edge for edge.
func TestLayerMemoWarm(t *testing.T) {
	for _, sh := range append(workloadShapes(), gazetteerShape()) {
		e := CompileRGX(rgx.MustParse(sh.expr))
		coldSteps, coldMisses, cold := enumerateShape(e, sh)
		steps, misses, warm := enumerateShape(e, sh)
		t.Logf("%s: cold %d letter steps, %d layer misses; warm %d, %d", sh.name, coldSteps, coldMisses, steps, misses)
		if coldMisses == 0 {
			t.Errorf("%s: the cold pass computed nothing: the memo was not cold", sh.name)
		}
		if steps != 0 || misses != 0 {
			t.Errorf("%s: the warm pass took %d letter steps and %d layer misses, want 0 and 0", sh.name, steps, misses)
		}
		if len(warm) != len(cold) {
			t.Fatalf("%s: %d walks warm, %d cold", sh.name, len(warm), len(cold))
		}
		for i := range cold {
			if !slices.Equal(warm[i].nodes, cold[i].nodes) || !slices.Equal(warm[i].edges, cold[i].edges) {
				t.Fatalf("%s: walk %d built another DAG warm (%d nodes, %d edges) than cold (%d, %d)",
					sh.name, i, len(warm[i].nodes), len(warm[i].edges), len(cold[i].nodes), len(cold[i].edges))
			}
		}
	}
}

// TestLayerMemoConcurrent: four goroutines enumerate each workload
// shape on one cold engine, so they fill its layers' rows and effects
// at the same time, and each emits what the bitset walk emits, in its
// order. On a DFA of a few states every layer interned flushes the
// cache while other walks hold its layers, and the answers still
// agree.
func TestLayerMemoConcurrent(t *testing.T) {
	for _, sh := range workloadShapes() {
		n := rgx.MustParse(sh.expr)
		ref := CompileRGX(n)
		ref.ForceNoDFA()
		want := make([][]span.Span, len(sh.docs))
		for i, d := range sh.docs {
			want[i] = collectTuples(func(yield func([]span.Span) bool) { ref.EnumerateTuples(d, nil, yield) })
		}
		cold := CompileRGX(n)
		tiny := CompileRGX(n)
		tiny.UseDFA(program.NewDFA(tiny.prog, 8))
		for name, e := range map[string]*Engine{"dfa": cold, "tiny": tiny} {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := range sh.docs {
						i := (k + g*len(sh.docs)/4) % len(sh.docs)
						got := collectTuples(func(yield func([]span.Span) bool) { e.EnumerateTuples(sh.docs[i], nil, yield) })
						if !slices.Equal(got, want[i]) {
							t.Errorf("%s, %s, goroutine %d, document %d: %d spans, the bitset walk %d, or in another order",
								sh.name, name, g, i, len(got), len(want[i]))
							return
						}
					}
				}(g)
			}
			wg.Wait()
		}
		if st := tiny.dfa.Stats(); st.Flushes == 0 {
			t.Errorf("%s: the 8-state budget never flushed: %+v", sh.name, st)
		}
	}
}

// TestLayerMemoFull: a layer that meets more boundary keys than it
// records effects does the rest frontier by frontier on the walk's own
// DAG, warm or cold, and the answers stay the bitset walk's; a warm
// walk allocates nothing. Here x spans any one letter of 52 classes,
// so every boundary is a stop, and its key follows the two letters
// there: a random text shows each layer hundreds of keys.
func TestLayerMemoFull(t *testing.T) {
	var alts []string
	for _, r := range "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" {
		alts = append(alts, "x{"+string(r)+"}")
	}
	n := rgx.MustParse(".*(" + strings.Join(alts, "|") + ").*")
	rng := rand.New(rand.NewSource(7))
	text := make([]byte, 6000)
	for i := range text {
		text[i] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"[rng.Intn(52)]
	}
	sh := shape{name: "full", docs: []*span.Document{span.NewDocument(string(text))}}
	ref := CompileRGX(n)
	ref.ForceNoDFA()
	want := collectTuples(func(yield func([]span.Span) bool) { ref.EnumerateTuples(sh.docs[0], nil, yield) })
	e := CompileRGX(n)
	for pass := 0; pass < 2; pass++ {
		_, misses, _ := enumerateShape(e, sh)
		t.Logf("pass %d: %d layer misses over %d stops", pass, misses, len(text))
		if misses < len(text)/4 {
			t.Errorf("pass %d: %d layer misses over %d stops: the layers recorded nearly every effect", pass, misses, len(text))
		}
		got := collectTuples(func(yield func([]span.Span) bool) { e.EnumerateTuples(sh.docs[0], nil, yield) })
		if !slices.Equal(got, want) {
			t.Fatalf("pass %d: %d spans, the bitset walk %d, or in another order", pass, len(got), len(want))
		}
	}
	if raceEnabled {
		return // sync.Pool drops a random share of its items under the race detector
	}
	if n := testing.AllocsPerRun(5, func() { e.EnumerateTuples(sh.docs[0], nil, func([]span.Span) bool { return true }) }); n != 0 {
		t.Errorf("%v allocations per warm walk over full layers, want 0", n)
	}
}
