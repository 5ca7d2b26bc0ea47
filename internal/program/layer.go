package program

import (
	"strconv"
	"sync/atomic"
)

// Layer is one interned layer of the enumeration walk's forward sweep
// (internal/eval, walk.go): the ordered states of the live frontiers
// at a boundary, and whether they are pruned to the co-reach there — a
// state of the automaton over sets of states whose runs Theorem 5.7's
// enumeration follows. It memoizes the glide step by letter class, the
// ASCII bytes on which that maps it to itself, and the effects of the
// boundaries the walk stops at. Layers are interned by content, count
// toward the DFA's budget and go with its flush; one interned after a
// flush may hold states of the generation before until the next.
type Layer struct {
	states []*DState
	pruned bool
	fold   uint64                      // the frontiers' folds ORed (Bits.Fold)
	loops  [2]atomic.Uint64            // bit b of word b>>6; none when pruned
	next   []atomic.Pointer[glideStep] // by class
	stops  atomic.Pointer[[]*Stop]
}

// glideStep is the next layer, and where each frontier went (-1: it
// died) when it is narrower, published whole: walks may merge the
// frontiers of a layer holding states of two cache generations apart.
type glideStep struct {
	to    *Layer
	remap []int32
}

// maxStops bounds the boundary effects one layer keeps; past it the
// walk computes each boundary the layer stops at (Full).
const maxStops = 64

// Stop is the recorded effect of a boundary on a layer: the layer
// becomes Next, and frontier i does Moves[i] — an index of Next it is
// carried to, MoveEnd (it completes), MoveDrop, or MoveNode-k: it is
// the k-th DAG node formed there, whose out-edges in emission order are
// Edges[Nodes[k-1]:Nodes[k]] (from 0 for k = 0).
type Stop struct {
	Key   StopKey
	Next  *Layer
	Moves []int32
	Nodes []int32
	Edges []StopEdge
}

// StopKey is the co-reach states at a boundary and the next one (nil
// at the window's end) and the letter's class (-1 at the end).
type StopKey struct {
	Co, CoNext *DState
	Class      int
}

// StopEdge is a DAG node's out-edge: the operations it fires, and the
// frontier of the next layer it leads to, or MoveEnd.
type StopEdge struct {
	Mask uint64
	To   int32
}

// Moves of a frontier at a boundary besides next-layer indexes.
const (
	MoveEnd  int32 = -1
	MoveDrop int32 = -2
	MoveNode int32 = -3
)

// States returns the frontiers' states, in order; shared, read-only.
func (l *Layer) States() []*DState { return l.states }
func (l *Layer) Pruned() bool      { return l.pruned }
func (l *Layer) Fold() uint64      { return l.fold }
func (l *Layer) Loops() [2]uint64  { return [2]uint64{l.loops[0].Load(), l.loops[1].Load()} }

// Glide returns the glide step on class c and its remap (nil when no
// frontier died or merged); a nil layer while it is not known.
func (l *Layer) Glide(c int) (*Layer, []int32) {
	if g := l.next[c].Load(); g != nil {
		return g.to, g.remap
	}
	return nil, nil
}

// SetGlide publishes the glide step of l on class c unless a
// concurrent caller did, and returns the published one. A step to l
// itself adds the ASCII bytes of c to its loops.
func (d *DFA) SetGlide(l *Layer, c int, to *Layer, remap []int32) (*Layer, []int32) {
	if l.next[c].CompareAndSwap(nil, &glideStep{to, remap}) && to == l {
		m := d.p.asciiMask[c]
		l.loops[0].Or(m[0])
		l.loops[1].Or(m[1])
	}
	return l.Glide(c)
}

// Stop returns the effect recorded for k, nil if there is none.
func (l *Layer) Stop(k StopKey) *Stop {
	for _, s := range *l.stops.Load() {
		if s.Key == k {
			return s
		}
	}
	return nil
}

// Full reports whether l holds maxStops effects and records no more.
func (l *Layer) Full() bool { return len(*l.stops.Load()) >= maxStops }

// AddStop records s unless its key is recorded or the layer holds
// maxStops effects, and returns the recorded effect for the key, or s.
func (l *Layer) AddStop(s *Stop) *Stop {
	for {
		p := l.stops.Load()
		if t := l.Stop(s.Key); t != nil {
			return t
		}
		if len(*p) >= maxStops {
			return s
		}
		if grown := append((*p)[:len(*p):len(*p)], s); l.stops.CompareAndSwap(p, &grown) {
			return s
		}
	}
}

// Layer interns the layer of states, pruned or not, with a reusable
// key buffer, and returns it with the grown buffer; states is copied.
func (d *DFA) Layer(states []*DState, pruned bool, key []byte) (*Layer, []byte) {
	key = strconv.AppendBool(key[:0], pruned)
	var fold uint64 // the frontiers' folds ORed
	for _, s := range states {
		key, fold = s.frontier.AppendKey(key), fold|s.frontier.Fold()
	}
	d.mu.RLock()
	l := d.layers[string(key)]
	d.mu.RUnlock()
	if l != nil {
		return l, key
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if l = d.layers[string(key)]; l != nil {
		return l, key
	}
	if len(d.states)+len(d.layers) >= d.budget {
		d.flushLocked()
	}
	l = &Layer{states: append([]*DState(nil), states...), pruned: pruned, fold: fold, next: make([]atomic.Pointer[glideStep], d.p.NumClasses)}
	l.stops.Store(new([]*Stop))
	d.layers[string(key)] = l
	return l, key
}
