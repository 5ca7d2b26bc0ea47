package program

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLayerConcurrentFill: goroutines intern the same layers, fill the
// same glide entries and record the same boundary effects at once, and
// all of them see one layer per content, one published step per class
// and one effect per key.
// A step that maps a layer to itself adds its class's bytes to the
// layer's loops, and a pruned layer never loops.
func TestLayerConcurrentFill(t *testing.T) {
	p := compileCorpus(t, `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	d := p.DFA()
	start, final := d.Start(), d.final.Load()
	a := p.ClassOf('a')
	loop := rawStep(d, start, a) // .* reads the a back into itself
	const goroutines = 4
	layers := make([][2]*Layer, goroutines)
	stops := make([][]*Stop, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pair := []*DState{start, loop}
			l, key := d.Layer(pair, false, nil)
			pruned, _ := d.Layer(pair, true, key)
			to, remap := d.SetGlide(l, a, l, nil)
			if to != l || remap != nil {
				t.Errorf("goroutine %d: the step to l itself published %p %v", g, to, remap)
			}
			d.SetGlide(pruned, a, l, nil)
			for c := 0; c < 2*maxStops; c++ {
				st := pruned.AddStop(&Stop{Key: StopKey{Co: final, Class: c % (maxStops + 8)}, Next: l})
				stops[g] = append(stops[g], st)
			}
			layers[g] = [2]*Layer{l, pruned}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if layers[g] != layers[0] {
			t.Fatalf("goroutine %d interned other layers: %v, %v", g, layers[g], layers[0])
		}
		for i, st := range stops[g] {
			if st.Key.Class < maxStops && st != stops[0][i] {
				t.Fatalf("goroutine %d saw another effect for class %d than goroutine 0", g, st.Key.Class)
			}
		}
	}
	l, pruned := layers[0][0], layers[0][1]
	if l == pruned || !pruned.Pruned() || l.Pruned() {
		t.Fatalf("the pruned and unpruned layers are not told apart")
	}
	loopsOn := func(l *Layer, b byte) bool { return l.Loops()[b>>6]&(1<<(b&63)) != 0 }
	if !loopsOn(l, 'a') || loopsOn(pruned, 'a') {
		t.Errorf("loops: l on 'a' %v (want true), pruned %v (want false)", loopsOn(l, 'a'), loopsOn(pruned, 'a'))
	}
	if p := pruned.stops.Load(); p == nil || len(*p) != maxStops {
		t.Errorf("the layer kept %v effects, want %d", p, maxStops)
	}
	for c := 0; c < maxStops+8; c++ {
		if got := pruned.Stop(StopKey{Co: final, Class: c}); (got != nil) != (c < maxStops) {
			t.Errorf("class %d: recorded %v", c, got)
		}
	}
}

// TestLayersCountTowardBudget: layers share the DFA's budget with its
// states, Stats counts both, and a flush drops them.
func TestLayersCountTowardBudget(t *testing.T) {
	p := compileCorpus(t, `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	d := NewDFA(p, 5)
	start := d.Start()
	a, b := p.ClassOf('a'), p.ClassOf('S')
	sa, sb := rawStep(d, start, a), rawStep(d, start, b)
	if st := d.Stats(); st.States != 5 || st.Flushes != 0 {
		t.Fatalf("%d states, %d flushes after two steps, want 5 and 0", st.States, st.Flushes)
	}
	l1, _ := d.Layer([]*DState{start, sa}, false, nil)
	if again, _ := d.Layer([]*DState{start, sa}, false, nil); again != l1 {
		t.Fatal("the same layer interned twice")
	}
	if st := d.Stats(); st.Flushes != 1 {
		t.Fatalf("a layer past the budget flushed %d times, want 1", st.Flushes)
	}
	l2, _ := d.Layer([]*DState{sb}, false, nil)
	if st := d.Stats(); st.Flushes != 1 || l2 == l1 {
		t.Fatalf("%d flushes after a second layer within the budget, want 1", st.Flushes)
	}
	rawStep(d, start, p.ClassOf('z'))
	rawStep(d, start, p.ClassOf(','))
	if again, _ := d.Layer([]*DState{start, sa}, false, nil); again == l1 {
		t.Fatal("the layer survived the flush its states' budget forced")
	}

	// Filled to its budget with states and layers, a cache reports both
	// counts within it, and the flush the next state forces drops both.
	d = NewDFA(p, 8)
	start = d.Start()
	sa, sb = rawStep(d, start, a), rawStep(d, start, b)
	for _, s := range []*DState{start, sa, sb} {
		d.Layer([]*DState{s}, false, nil)
	}
	full := d.Stats()
	if full.Flushes != 0 || full.Layers != 3 || full.States+full.Layers > full.Budget {
		t.Fatalf("%d states and %d layers after %d flushes, want 3 layers within the budget of %d and no flush",
			full.States, full.Layers, full.Flushes, full.Budget)
	}
	rawStep(d, sb, p.ClassOf('e')) // "Se": a state not yet interned
	if st := d.Stats(); st.Flushes != 1 || st.States >= full.States || st.Layers >= full.Layers {
		t.Fatalf("%d states and %d layers after %d flushes, had %d and %d before the flush",
			st.States, st.Layers, st.Flushes, full.States, full.Layers)
	}
}

// TestLayerConcurrentGlideRemaps: walks that fill one glide entry at
// once may have found next layers whose frontiers merged differently.
// Every caller gets back one published step whole: its next layer with
// its own remap, the same for all.
func TestLayerConcurrentGlideRemaps(t *testing.T) {
	p := compileCorpus(t, `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`)
	d := p.DFA()
	steps := [2]struct {
		to    *Layer
		remap []int32
	}{{&Layer{}, []int32{0, 1, 2, 1}}, {&Layer{}, []int32{0, 1, 0, 2}}}
	for round := 0; round < 200; round++ {
		l := &Layer{next: make([]atomic.Pointer[glideStep], 1)}
		var got [2]int
		var wg sync.WaitGroup
		for g := range steps {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				to, remap := d.SetGlide(l, 0, steps[g].to, steps[g].remap)
				got[g] = -1
				for i, st := range steps {
					if to == st.to && slices.Equal(remap, st.remap) {
						got[g] = i
					}
				}
			}(g)
		}
		wg.Wait()
		if got[0] < 0 || got[0] != got[1] {
			t.Fatalf("round %d: the callers got steps %v, want one published step for both", round, got)
		}
	}
}

// rawStep is the memoized StepRaw transition of s on class c.
func rawStep(d *DFA, s *DState, c int) *DState {
	ns, _ := d.StepBatched(s, c, StepRaw)
	return ns
}
