package eval

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"spanners/internal/program"
	"spanners/internal/span"
)

// This file is the one sequential walk of the compiled engine: the
// branch-per-boundary enumeration of Theorem 5.7 — at every boundary
// split the frontier by the operation set fired there, prune by
// co-reachability — over a window of boundaries, run in two phases
// after the skip structure of Florenzano, Riveros, Ugarte, Vansummeren
// & Vrgoč (PODS'18). One forward sweep carries the distinct live
// frontiers of each boundary and records a DAG node only where a
// frontier can fire an operation; op-free stretches in between are
// jump edges to the next node. The paths of the DAG are the branches
// of the walk, and a DFS over it emits them in the walk's order. The
// sweep is resumable, and the DFS pulls it only as far as the edge it
// reads next (pull): the co-reach is the only preprocessing, the first
// mapping waits for the sweep up to its completion, and a run stopped
// after k mappings has stepped only the prefix they needed — never
// more letters than one whole sweep — so the delay is polynomial
// (Theorem 5.7) and the cost prefix-only. Enumerate, Count (a path
// count over the whole sweep), pinned Eval (exists: the DFS with a
// choice filter, stopped at its first completion) and incremental
// sessions' window re-walks all go through it; nothing else advances a
// frontier during enumeration.
//
// With the lazy DFA on, the co-reach is one interned state per
// boundary, swept backwards at one load per byte of an ASCII document
// (DFA.BackwardFrontiers), and the sweep runs at DFA speed: whether a
// frontier fires is one AND against the co-reach state's precomputed
// firers, and between prune points a frontier takes raw steps, neither
// intersected with the co-reach nor re-interned. Co-reach is
// backward-closed — a state outside it at one boundary has no letter
// successor inside it at the next — so pruning commutes with letter
// steps, and pruning once after many raw steps gives the frontier
// pruning after each would have. Prune points are the boundaries where
// a frontier fires, the window's end, and every lazyPruneEvery
// boundaries.
//
// The layer of live frontiers is one interned state too
// (program.Layer). Between prune points it glides (glide), a bit test
// or a glide-row load per letter; at a boundary the sweep stops at,
// what each frontier does — carried on, completed, dropped, or a DAG
// node with its out-edges — is one lookup on the layer, replayed onto
// the pending edges (replay). Both memos fill from the per-frontier
// code (fillGlide, fillStop), the whole of the bitset path.

// opOrder is the emission order of boundary choices (see "Emission
// order" in docs/ARCHITECTURE.md): the order of the canonical key
// strings of the interpreted enumerator (enumerate.go, keyOf) —
// tokens "c"+name / "o"+name, sorted as plain strings, each followed
// by ';' — without building them. Program.Vars is sorted by name, so
// a mask's token sequence is its closes by ascending variable id,
// then its opens: the bits of the mask rotated by 32. Two keys compare
// at their first differing token, and there the ';' terminator
// decides ('0'..'9' < ';' < letters, so "ox1;" sorts before "ox;"
// although "ox" < "ox1"): the table holds each rotated bit's position
// in terminated-token order. Terminated tokens are prefix-free, which is
// what makes the token-wise comparison equal the string comparison.
type opOrder [64]uint8

func newOpOrder(vars []span.Var) *opOrder {
	byTerminated := make([]int, len(vars))
	for i := range byTerminated {
		byTerminated[i] = i
	}
	sort.Slice(byTerminated, func(i, j int) bool {
		return vars[byTerminated[i]]+";" < vars[byTerminated[j]]+";"
	})
	o := &opOrder{}
	for r, v := range byTerminated {
		o[v] = uint8(r)                // close v: every "c…" precedes every "o…"
		o[32+v] = uint8(len(vars) + r) // open v
	}
	return o
}

// less orders two boundary op masks: operation-firing choices before
// the do-nothing choice, then by canonical key.
func (o *opOrder) less(a, b uint64) bool {
	if (a == 0) != (b == 0) {
		return b == 0
	}
	a, b = bits.RotateLeft64(a, 32), bits.RotateLeft64(b, 32)
	for b != 0 {
		if a == 0 {
			return true // a's key is a proper prefix of b's
		}
		ta, tb := bits.TrailingZeros64(a), bits.TrailingZeros64(b)
		if ta != tb {
			return o[ta] < o[tb]
		}
		a &= a - 1
		b &= b - 1
	}
	return false
}

// progEmission is one boundary choice of the compiled enumerator: the
// operations fired (a program op mask) and the states reachable having
// fired exactly them. The DFA path keeps the same choices interned on
// the frontier's state (program.Choice, Engine.choices).
type progEmission struct {
	mask   uint64
	states program.Bits
}

// firedOp records one operation fired at boundary pos on the current
// branch of the walk.
type firedOp struct {
	v    uint8
	open bool
	pos  int
}

// appendFired appends the operations of mask, fired at boundary pos,
// to fired: by ascending variable id, a variable's open before its
// close.
func appendFired(fired []firedOp, mask uint64, pos int) []firedOp {
	for m := uint32(mask) | uint32(mask>>32); m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		if mask&program.OpenBit(v) != 0 {
			fired = append(fired, firedOp{v: uint8(v), open: true, pos: pos})
		}
		if mask&program.CloseBit(v) != 0 {
			fired = append(fired, firedOp{v: uint8(v), pos: pos})
		}
	}
	return fired
}

// fillTuple sets t, indexed by program variable id, to the mapping of
// one branch from its fired operations, which arrive in boundary
// order; the variables the branch never closes are ⊥. A close without
// an open keeps the zero start, as a sequential program never produces
// one.
func fillTuple(t []span.Span, fired []firedOp) {
	clear(t)
	var opens [program.MaxVars]int
	for _, f := range fired {
		if f.open {
			opens[f.v] = f.pos
		} else {
			t[f.v] = span.Span{Start: opens[f.v], End: f.pos}
		}
	}
}

// Edge targets besides node indexes. An edge starts out pending and is
// resolved when the frontier it leads to reaches a node or completes;
// one still pending when the sweep has ended is dead.
const (
	toEnd     = program.MoveEnd  // the branch completes: emit it
	toPending = program.MoveDrop // not reached yet, or, once the sweep has ended, dead
)

// dagNode is a boundary where a live frontier can fire an operation;
// its out-edges are edges[first:end], in emission order.
type dagNode struct {
	pos, first, end int32
}

// dagEdge is one boundary choice of a node (the operations mask fires,
// none on the root edge) followed by the op-free stretch up to the node
// or completion it leads to. While the sweep has not reached that
// target yet, next links the edges pending on the same live frontier.
type dagEdge struct {
	mask     uint64
	to, next int32
}

// liveFrontier is one distinct frontier of the sweep at the current
// boundary, with the pending edges (head…tail) that reach it: a state
// of its layer's Layer, interned (s) or a slab slot (off).
type liveFrontier struct {
	s          *program.DState
	off        int32
	head, tail int32
}

// sweepLayer holds the live frontiers of one boundary, and their layer
// on the memo path; pruned (or layer.Pruned) says they are settled.
type sweepLayer struct {
	fs     []liveFrontier
	slab   []uint64
	pruned bool
	layer  *program.Layer
}

// reset empties l, keeping its storage.
func (l *sweepLayer) reset() {
	l.fs, l.slab, l.layer = l.fs[:0], l.slab[:0], nil
}

func (l *sweepLayer) frontier(i, words int) program.Bits {
	if l.layer != nil {
		return l.layer.States()[i].Frontier()
	}
	if s := l.fs[i].s; s != nil {
		return s.Frontier()
	}
	off := int(l.fs[i].off)
	return program.Bits(l.slab[off : off+words])
}

// lazyPruneEvery is the most boundaries a frontier steps between two
// prunes, so a branch that can no longer complete stops within that
// many steps.
const lazyPruneEvery = 64

// seqWalk is a walk over the boundaries lo..hi of d. co[pos-lo] is the
// interned set of states at boundary pos from which the window can
// still be completed; the bitset path (ForceNoDFA, or a reverse sweep
// that thrashed the DFA's budget) keeps it in coRaw instead, co nil.
// With cut unset, hi is the document end n+1 and a branch is emitted
// there for every choice that lands on a final state; with cut set, hi
// is a crossing-free cut of an incremental session beyond which
// completion is letters-only (the co-reach at hi says so), no
// operation fires at hi, and a branch is emitted on reaching it. A
// walk serves one run or count, which hands it back to walkPool: the
// caller must not touch it afterwards.
type seqWalk struct {
	e      *Engine
	d      *span.Document
	lo, hi int
	co     []*program.DState
	coRaw  []program.Bits
	cut    bool

	dfa         bool   // frontiers step through the lazy DFA, interned, and layers replay the memo
	dfaHits     uint64 // memoized DFA transitions taken, added to the cache's count by done
	steps       int    // letter steps taken
	firerTests  int    // exact firer tests glide took
	layerMisses int    // glide steps and boundary effects computed, not replayed
	entered     int    // DAG nodes exists entered

	// The sweep's state between pulls: the boundary it sweeps next, its
	// next prune point and flush check, the DFA's flush count when it
	// began, its live layer and the spare one, and the boundaries the
	// next pull sweeps at least.
	pos, prune, check int
	flush0            uint64
	cur, next         *sweepLayer
	ahead             int

	walkBufs
}

// walkBufs are the storage of one walk: its co-reach, the DAG its
// sweep builds (edges[0] is the root edge) with the arena of the
// boundary choices the bitset path resolves, the sweep's two layers
// and bitset scratch, the DFS's stack and the tuple it emits, Count's
// path counts, the nodes exists entered, and a memo miss's DAG, layers
// and states. Every slab is resliced, never trusted for its contents,
// so a buffer that comes back from a wider program or a longer
// document serves the next walk as is.
type walkBufs struct {
	coBufs
	nodes   []dagNode
	edges   []dagEdge
	arena   emArena
	layers  [2]sweepLayer
	scratch program.Bits
	key     []byte
	stack   []walkFrame
	fired   []firedOp
	tuple   []span.Span
	paths   []int
	seen    program.Bits

	missNodes  []dagNode
	missEdges  []dagEdge
	missLayers [2]sweepLayer
	into       []int32
	inLayer    []*program.DState
}

// coBufs hold a co-reach: one interned state per boundary on the DFA
// path; on the bitset path one frontier header per boundary and the
// slab the frontiers are carved from.
type coBufs struct {
	states []*program.DState
	hdr    []program.Bits
	slab   []uint64
}

// walkPool recycles walks, so a stream of documents walks without
// allocating once the buffers have grown to the stream's size.
var walkPool = sync.Pool{New: func() any { return new(seqWalk) }}

// maxPooled keeps the slabs of huge documents out of the pool: a walk
// whose edges, co-reach or co-reach slab words outgrew it is left to
// the garbage collector.
const maxPooled = 1 << 16

// newSeqWalk takes a walk over the boundaries lo..hi of d from walkPool
// and fills its co-reach. A nil seed means hi is the document end and
// completion is acceptance there; otherwise hi is a session's cut and
// seed the states there from which completion is letters-only.
func (e *Engine) newSeqWalk(d *span.Document, lo, hi int, seed program.Bits) *seqWalk {
	w := walkPool.Get().(*seqWalk)
	*w = seqWalk{e: e, d: d, lo: lo, hi: hi, cut: seed != nil, walkBufs: w.walkBufs}
	words := len(e.start)
	w.scratch = slices.Grow(w.scratch[:0], words)[:words]
	w.co, w.coRaw, w.key = w.coReach(e, d, lo, hi, seed, w.key)
	return w
}

// done folds the walk's DFA hits into the cache's counter and hands the
// walk back to walkPool.
func (w *seqWalk) done() {
	if testHookWalkDone != nil {
		testHookWalkDone(w)
	}
	if w.dfaHits > 0 {
		w.e.dfa.NoteHits(w.dfaHits)
	}
	bufs := w.walkBufs
	*w = seqWalk{walkBufs: bufs}
	if cap(bufs.edges) <= maxPooled && cap(bufs.states) <= maxPooled &&
		cap(bufs.hdr) <= maxPooled && cap(bufs.slab) <= maxPooled {
		walkPool.Put(w)
	}
}

// coAt returns the co-reach set at boundary pos.
func (w *seqWalk) coAt(pos int) program.Bits {
	if w.co != nil {
		return w.co[pos-w.lo].Frontier()
	}
	return w.coRaw[pos-w.lo]
}

// fires reports whether an operation can fire from set at boundary pos
// on a branch that still completes. On the DFA path it is one AND
// against the co-reach state's firers, exact whether or not set was
// pruned; the bitset path asks firesInto.
func (w *seqWalk) fires(set program.Bits, pos int) bool {
	if w.co != nil {
		return set.Intersects(w.co[pos-w.lo].Firers())
	}
	return w.e.firesInto(set, w.coRaw[pos-w.lo])
}

// testHookWalkDone, when set by a test, sees every walk as it finishes.
var testHookWalkDone func(*seqWalk)

// choices returns the boundary choices of the interned frontier s in
// emission order, deriving them on its first DAG node and publishing
// them on the state: boundaryEmissionsProg against every state, each
// choice's states interned. No co-reach enters them. Co-reach is closed
// backwards under operations — a state outside it has no operation
// successor inside it — so cutting a choice to a boundary's co-reach
// after the search gives what searching inside it would; branch does
// that cut.
func (e *Engine) choices(s *program.DState) []program.Choice {
	if cs := s.Choices(); cs != nil {
		return cs
	}
	every := program.NewBits(e.prog.NumStates)
	for q := range e.prog.NumStates {
		every.Set(q)
	}
	ems := e.boundaryEmissionsProg(s.Frontier(), every, new(emArena))
	cs := make([]program.Choice, len(ems))
	for i, em := range ems {
		cs[i] = program.Choice{Mask: em.mask, To: e.dfa.State(em.states)}
	}
	return s.SetChoices(cs)
}

// branch adds the out-edge of the node at pos for the choice firing
// mask into the states to (interned as s, or nil). On the DFA path to
// is the frontier's choice, not yet cut to the co-reach co there: a
// choice that misses co is dropped, and one that meets it keeps its
// stray states until advance prunes them by coNext. At the document
// end (last) the edge completes on a final state (final states are
// co-reachable there); an op-free choice completes; any other steps
// across the letter of class c into next.
func (w *seqWalk) branch(next *sweepLayer, mask uint64, s *program.DState, to, co, coNext program.Bits, c int, last bool) {
	if !to.Intersects(co) {
		return
	}
	e := int32(len(w.edges))
	w.edges = append(w.edges, dagEdge{mask: mask, to: toPending, next: -1})
	switch {
	case last:
		if to.Intersects(w.e.prog.Final) {
			w.edges[e].to = toEnd
		} else {
			w.edges = w.edges[:e]
		}
	case subsetOf(to, w.e.opFree):
		w.edges[e].to = toEnd // co-reachable and op-free: it completes
	case !w.advance(next, s, to, c, coNext, e, e):
		w.edges = w.edges[:e]
	}
}

// advance steps the frontier set (interned as s, or nil) across the
// letter of class c and admits the result at the next boundary, whose
// co-reach is co; false means the branch died. With the DFA on, an
// interned frontier takes the raw memoized transition and anything
// else is interned after a bitset step.
func (w *seqWalk) advance(l *sweepLayer, s *program.DState, set program.Bits, c int, co program.Bits, head, tail int32) bool {
	if c < 0 {
		return false
	}
	w.steps++
	if w.dfa && s != nil {
		s = w.stepRaw(s, c)
		return !s.Dead() && w.admit(l, s, s.Frontier(), co, head, tail)
	}
	f := w.scratch
	f.Clear()
	w.e.prog.LetterStep(set, c, f)
	return w.admit(l, nil, f, co, head, tail)
}

// stepRaw is the memoized raw transition of s on class c.
func (w *seqWalk) stepRaw(s *program.DState, c int) *program.DState {
	s, hit := w.e.dfa.StepBatched(s, c, program.StepRaw)
	if hit {
		w.dfaHits++
	}
	return s
}

// drift steps the interned frontier f raw across the letter of class c
// into l, unpruned, merging it by pointer; it is dropped when it dies.
func (w *seqWalk) drift(l *sweepLayer, f *liveFrontier, c int) {
	if c < 0 {
		return
	}
	w.steps++
	if s := w.stepRaw(f.s, c); !s.Dead() {
		w.join(l, s, nil, f.head, f.tail)
	}
}

// admit prunes the frontier f (interned as s, or nil and then
// overwritten) by the co-reach co of its boundary and settles what is
// left, reached by the pending edges head…tail, in l; false means
// nothing was left.
func (w *seqWalk) admit(l *sweepLayer, s *program.DState, f, co program.Bits, head, tail int32) bool {
	if s != nil && !subsetOf(f, co) {
		w.scratch.CopyFrom(f)
		f, s = w.scratch, nil
	}
	if s == nil {
		if f.And(co); !f.Any() {
			return false
		}
	}
	w.settle(l, s, f, head, tail)
	return true
}

// settle places a pruned, non-empty frontier f (interned as s, or nil)
// reached by the pending edges head…tail: a frontier from which no
// operation can fire any more has exactly one completion, so its edges
// jump straight to it; any other joins l.
func (w *seqWalk) settle(l *sweepLayer, s *program.DState, f program.Bits, head, tail int32) {
	if subsetOf(f, w.e.opFree) {
		w.resolve(head, toEnd)
		return
	}
	if s == nil && w.dfa {
		s, w.key = w.e.dfa.StateScratch(f, w.key)
		f = s.Frontier()
	}
	w.join(l, s, f, head, tail)
}

// join adds frontier f (interned as s, or nil to copy f into the
// slab) with the pending edges head…tail to l, appending them to an
// equal frontier's pending edges when l already holds one. Interned
// frontiers compare by pointer.
func (w *seqWalk) join(l *sweepLayer, s *program.DState, f program.Bits, head, tail int32) {
	for i := range l.fs {
		if s != nil && l.fs[i].s == s || s == nil && bitsEq(l.frontier(i, len(f)), f) {
			w.link(&l.fs[i], head, tail)
			return
		}
	}
	lf := liveFrontier{s: s, head: head, tail: tail}
	if s == nil {
		lf.off = int32(len(l.slab))
		l.slab = append(l.slab, f...)
	}
	l.fs = append(l.fs, lf)
}

// resolve points the pending edges from head on at to.
func (w *seqWalk) resolve(head, to int32) {
	for e := head; e >= 0; {
		next := w.edges[e].next
		w.edges[e].to = to
		e = next
	}
}

// begin starts the sweep that builds the DAG of every branch from the
// frontier start at lo; sweepTo carries it on until no frontier is
// live (sweeping). Frontiers are deduplicated per boundary, so the
// work is linear in the window times the live frontiers per boundary,
// and storage is linear in the boundaries where an operation can fire.
//
// On the DFA path a layer is pruned only at a prune point: a boundary
// where one of its frontiers fires, the window's end, or lazyPruneEvery
// boundaries after the last prune. In between the layer glides: its
// frontiers step raw, merged by pointer, one glide-row load per letter
// the layer does not loop on. The steps out of a boundary where a
// frontier fired are eager — pruned and settled at the next boundary —
// so a run of firing boundaries prunes each layer once, and the steps
// out of a prune point where none fired are raw (drift). Only a
// pruned, non-empty frontier takes the op-free shortcut to completion
// (settle), and at a cut only one that meets the seed completes. The
// bitset path prunes at every boundary.
func (w *seqWalk) begin(start program.Bits) {
	w.nodes = w.nodes[:0]
	w.edges = append(w.edges[:0], dagEdge{to: toPending, next: -1})
	w.arena.reset()
	w.cur, w.next = &w.layers[0], &w.layers[1]
	w.cur.reset()
	w.ahead = lazyPruneEvery
	if w.cut && w.lo == w.hi {
		w.edges[0].to = toEnd
		return
	}
	w.dfa = w.co != nil
	if w.dfa {
		w.flush0 = w.e.dfa.Flushes()
	}
	w.scratch.CopyFrom(start)
	w.scratch.And(w.coAt(w.lo))
	if !w.scratch.Any() {
		return
	}
	w.settle(w.cur, nil, w.scratch, 0, 0)
	w.cur.pruned = true
	if w.dfa && len(w.cur.fs) > 0 {
		w.cur.layer, w.key = w.e.dfa.Layer([]*program.DState{w.cur.fs[0].s}, true, w.key)
	}
	w.pos = w.lo
	w.check = w.lo + program.FlushCheckInterval
	w.prune = w.lo + lazyPruneEvery
}

// sweeping reports whether the sweep has live frontiers left to step.
func (w *seqWalk) sweeping() bool { return len(w.cur.fs) > 0 }

// sweep runs the whole sweep from start.
func (w *seqWalk) sweep(start program.Bits) {
	w.begin(start)
	w.sweepTo(0, w.hi+1)
}

// pull sweeps on until the target of edge e is known, and at least
// ahead boundaries past where it started; ahead doubles on every pull.
// A DFS that pulled only to each edge would hand the sweep back and
// forth at every node; the doubling keeps the sweep far enough ahead
// that a DFS pulls O(log |d|) times.
func (w *seqWalk) pull(e int32) {
	stop := w.pos + w.ahead
	w.ahead *= 2
	w.sweepTo(e, stop)
}

// sweepTo sweeps on, a boundary or a glide at a time, until the target
// of edge e is known and the sweep has reached the boundary until, or
// until no frontier is live.
func (w *seqWalk) sweepTo(e int32, until int) {
	p, words := w.e.prog, len(w.scratch)
	cur, next := w.cur, w.next
	pos := w.pos
	for ; len(cur.fs) > 0 && (pos < until || w.edges[e].to == toPending); pos++ {
		// The flush counter is shared, so it is read only every
		// FlushCheckInterval positions, as the DFA's own sweeps do.
		if w.dfa && pos >= w.check {
			w.check = pos + program.FlushCheckInterval
			if w.e.dfa.Flushes()-w.flush0 > program.MaxFlushesPerSweep {
				// The cache thrashes its budget: step bitsets from here on.
				w.e.dfa.NoteFallback()
				w.dfa = false
				for i := range cur.fs {
					cur.fs[i].s, cur.fs[i].off = nil, int32(len(cur.slab))
					cur.slab = append(cur.slab, cur.frontier(i, words)...)
				}
				cur.pruned, cur.layer = cur.layer.Pruned(), nil
			}
		}
		if stop := min(w.prune, w.hi); w.dfa && pos < stop {
			if pos, _ = w.glide(cur, pos, stop); len(cur.fs) == 0 {
				break // every frontier died
			}
		}
		last := pos == w.hi
		c := -1
		if !last {
			c = p.ClassOf(w.d.RuneAt(pos))
		}
		w.prune = pos + lazyPruneEvery
		if w.cut && last {
			co := w.coAt(pos) // completion is letters-only from here
			for i := range cur.fs {
				if cur.frontier(i, words).Intersects(co) {
					w.resolve(cur.fs[i].head, toEnd)
				}
			}
			cur.reset()
			break
		}
		if l := cur.layer; l != nil && !l.Full() {
			k := program.StopKey{Co: w.co[pos-w.lo], Class: c}
			if !last {
				k.CoNext = w.co[pos+1-w.lo]
			}
			st := l.Stop(k)
			if st == nil {
				st = w.fillStop(l, pos, k)
			}
			w.replay(cur, next, st, pos)
			cur, next = next, cur
			continue
		}
		// The bitset path, or a layer past maxStops keys: the frontiers
		// do the work on the walk's DAG, and the next layer is interned.
		if l := cur.layer; l != nil {
			for i, s := range l.States() {
				cur.fs[i].s = s
			}
			cur.pruned, cur.layer, w.layerMisses = l.Pruned(), nil, w.layerMisses+1
		}
		if cur, next = w.boundary(cur, next, pos, c); w.dfa {
			w.inLayer = w.inLayer[:0]
			for _, f := range cur.fs {
				w.inLayer = append(w.inLayer, f.s)
			}
			cur.layer, w.key = w.e.dfa.Layer(w.inLayer, cur.pruned, w.key)
		}
	}
	w.cur, w.next, w.pos = cur, next, pos
}

// boundary does the work of the boundary pos frontier by frontier and
// returns the next boundary's layer and the spare one: it prunes cur,
// makes a DAG node of each frontier that fires, and steps the others,
// eagerly (advance) when one fired and raw (drift) when none did.
func (w *seqWalk) boundary(cur, next *sweepLayer, pos, c int) (*sweepLayer, *sweepLayer) {
	p, words := w.e.prog, len(w.scratch)
	last := pos == w.hi
	fire := !w.dfa // the bitset path takes every boundary as one that fires
	for i := 0; !fire && i < len(cur.fs); i++ {
		fire = w.fires(cur.frontier(i, words), pos)
	}
	co := w.coAt(pos)
	if !cur.pruned {
		next.reset()
		for i := range cur.fs {
			f := &cur.fs[i]
			w.admit(next, f.s, cur.frontier(i, words), co, f.head, f.tail)
		}
		cur, next = next, cur
	}
	var coNext program.Bits
	if !last {
		coNext = w.coAt(pos + 1)
	}
	next.reset()
	for i := range cur.fs {
		f := &cur.fs[i]
		set := cur.frontier(i, words) // ⊆ co
		if !fire || !w.fires(set, pos) {
			switch {
			case last:
				if set.Intersects(p.Final) {
					w.resolve(f.head, toEnd)
				}
			case fire:
				w.advance(next, f.s, set, c, coNext, f.head, f.tail)
			default:
				w.drift(next, f, c)
			}
			continue
		}
		w.resolve(f.head, int32(len(w.nodes)))
		first := int32(len(w.edges))
		if f.s != nil {
			for _, ch := range w.e.choices(f.s) {
				w.branch(next, ch.Mask, ch.To, ch.To.Frontier(), co, coNext, c, last)
			}
		} else {
			for _, ch := range w.e.boundaryEmissionsProg(set, co, &w.arena) {
				w.branch(next, ch.mask, nil, ch.states, co, coNext, c, last)
			}
		}
		w.nodes = append(w.nodes, dagNode{pos: int32(pos), first: first, end: int32(len(w.edges))})
	}
	next.pruned = fire
	return next, cur
}

// fillStop computes and records the effect of the boundary pos on l:
// where boundary sends an edge of each frontier's own, in a scratch
// DAG, and the out-edges of the nodes it forms.
func (w *seqWalk) fillStop(l *program.Layer, pos int, k program.StopKey) *program.Stop {
	w.layerMisses++
	nodes, edges := w.nodes, w.edges
	w.nodes, w.edges = w.missNodes[:0], w.missEdges[:0]
	in := &w.missLayers[0]
	in.reset()
	in.pruned = l.Pruned()
	for i, s := range l.States() {
		w.edges = append(w.edges, dagEdge{to: toPending, next: -1})
		in.fs = append(in.fs, liveFrontier{s: s, head: int32(i), tail: int32(i)})
	}
	out, _ := w.boundary(in, &w.missLayers[1], pos, k.Class)
	into := slices.Grow(w.into[:0], len(w.edges))[:len(w.edges)]
	for e, ed := range w.edges {
		if into[e] = ed.to; ed.to >= 0 { // a frontier that formed a node
			into[e] = program.MoveNode - ed.to
		}
	}
	w.inLayer = w.inLayer[:0]
	for j, f := range out.fs {
		w.inLayer = append(w.inLayer, f.s)
		for e := f.head; e >= 0; e = w.edges[e].next {
			into[e] = int32(j)
		}
	}
	st := &program.Stop{Key: k, Moves: slices.Clone(into[:len(l.States())])}
	for _, n := range w.nodes {
		for e := n.first; e < n.end; e++ {
			st.Edges = append(st.Edges, program.StopEdge{Mask: w.edges[e].mask, To: into[e]})
		}
		st.Nodes = append(st.Nodes, int32(len(st.Edges)))
	}
	st.Next, w.key = w.e.dfa.Layer(w.inLayer, out.pruned, w.key)
	w.missNodes, w.missEdges, w.into = w.nodes, w.edges, into
	w.nodes, w.edges = nodes, edges
	return l.AddStop(st)
}

// replay applies the effect st of the boundary pos to cur, filling
// next, and appends its DAG nodes and out-edges in order.
func (w *seqWalk) replay(cur, next *sweepLayer, st *program.Stop, pos int) {
	next.reset()
	for range st.Next.States() {
		next.fs = append(next.fs, liveFrontier{head: -1, tail: -1})
	}
	node0, first := int32(len(w.nodes)), int32(0)
	for _, end := range st.Nodes {
		from := int32(len(w.edges))
		for _, se := range st.Edges[first:end] {
			e := int32(len(w.edges))
			w.edges = append(w.edges, dagEdge{mask: se.Mask, to: toPending, next: -1})
			if se.To == program.MoveEnd {
				w.edges[e].to = toEnd
			} else {
				w.link(&next.fs[se.To], e, e)
			}
		}
		w.nodes = append(w.nodes, dagNode{pos: int32(pos), first: from, end: int32(len(w.edges))})
		first = end
	}
	for i, m := range st.Moves {
		f := &cur.fs[i]
		switch {
		case m >= 0:
			w.link(&next.fs[m], f.head, f.tail)
		case m == program.MoveEnd:
			w.resolve(f.head, toEnd)
		case m <= program.MoveNode:
			w.resolve(f.head, node0+program.MoveNode-m)
		}
	}
	next.layer = st.Next
}

// link appends the pending edges head…tail to those reaching f.
func (w *seqWalk) link(f *liveFrontier, head, tail int32) {
	if f.head < 0 {
		f.head = head
	} else {
		w.edges[f.tail].next = head
	}
	f.tail = tail
}

// glide carries the layer of cur raw across the boundaries from pos
// on, stopping at the first where a frontier fires, with true, or at
// stop, and returns that boundary; cur is left empty when every
// frontier died. A byte the layer loops on costs one bit test, any
// other letter one glide-row load (fillGlide on a miss). Whether a
// frontier fires is one AND of folded firers (Bits.Fold), exact up to
// 64 program states; above, the exact test runs where the folds meet,
// once per co-reach state in a row. On an ASCII document the letters come from its text,
// in step with the co-reach, which keeps RuneAt's branch out of the
// loop sparse documents spend most of their walk in.
func (w *seqWalk) glide(cur *sweepLayer, pos, stop int) (int, bool) {
	p, l := w.e.prog, cur.layer
	fm, loops := l.Fold(), l.Loops()
	foldExact := len(w.scratch) == 1 // a one-word fold is the set itself
	var cleared *program.DState      // the co-reach state l last cleared
	cos := w.co[pos-w.lo : stop-w.lo]
	var bs string
	if text := w.d.ASCIIText(); text != "" {
		bs = text[pos-1 : stop-1][:len(cos)] // the letter at boundary pos is text[pos-1]
	}
	k, misses := 0, w.layerMisses
	for ; k < len(cos); k++ {
		for bs != "" && k < len(cos) && cos[k].FirersFold()&fm == 0 && loops[bs[k]>>6&1]&(1<<(bs[k]&63)) != 0 {
			k++ // the sparse documents' loop: no fold meets, the layer loops
		}
		if k == len(cos) {
			break
		}
		if co := cos[k]; co.FirersFold()&fm != 0 && co != cleared {
			if foldExact || w.firesExact(l, co) {
				break
			}
			cleared = co
		}
		r := w.d.RuneAt(pos + k)
		if uint32(r) < 128 && loops[r>>6&1]&(1<<(uint(r)&63)) != 0 {
			continue
		}
		c := p.ClassOf(r)
		if c < 0 {
			cur.fs = cur.fs[:0]
			return pos + k, false
		}
		to, remap := l.Glide(c)
		if to == nil {
			to, remap = w.fillGlide(l, c)
		}
		if remap != nil {
			if cur.fs = w.regroup(cur.fs, remap); len(cur.fs) == 0 {
				return pos + k, false
			}
		}
		l, fm, loops, cleared = to, to.Fold(), to.Loops(), nil
	}
	w.dfaHits += uint64(k - (w.layerMisses - misses))
	cur.layer = l
	return pos + k, k < len(cos)
}

// fillGlide computes and records the glide step of l on class c: every
// frontier steps raw, the dead drop out and equal states merge.
func (w *seqWalk) fillGlide(l *program.Layer, c int) (*program.Layer, []int32) {
	w.layerMisses++
	w.inLayer = w.inLayer[:0]
	remap := make([]int32, len(l.States()))
	for i, s := range l.States() {
		w.steps++
		ns := w.stepRaw(s, c)
		switch j := slices.Index(w.inLayer, ns); {
		case ns.Dead():
			remap[i] = -1
		case j < 0:
			remap[i], w.inLayer = int32(len(w.inLayer)), append(w.inLayer, ns)
		default:
			remap[i] = int32(j)
		}
	}
	if len(w.inLayer) == len(l.States()) {
		remap = nil
	}
	var to *program.Layer
	to, w.key = w.e.dfa.Layer(w.inLayer, false, w.key)
	return w.e.dfa.SetGlide(l, c, to, remap)
}

// firesExact reports whether a frontier of l meets the firers of the
// co-reach state c, counting the test in firerTests.
func (w *seqWalk) firesExact(l *program.Layer, c *program.DState) bool {
	w.firerTests++
	for _, s := range l.States() {
		if s.Frontier().Intersects(c.Firers()) {
			return true
		}
	}
	return false
}

// regroup moves the frontiers fs, in place, to where remap sends them:
// -1 drops one, and an index already taken merges it there.
func (w *seqWalk) regroup(fs []liveFrontier, remap []int32) []liveFrontier {
	k := int32(0)
	for i, j := range remap {
		if j == k {
			fs[k], k = fs[i], k+1
		} else if j >= 0 {
			w.link(&fs[j], fs[i].head, fs[i].tail)
		}
	}
	return fs[:k]
}

// walkFrame is a node's untried edges [next, end); base is the number
// of operations fired before its boundary pos (run), or the index of
// the first obligation past pos (exists).
type walkFrame struct {
	next, end int32
	pos, base int
}

// run calls emit with the mapping of every branch from the frontier
// start at lo — in emission order, the empty mapping included — as a
// tuple over the program's variables (Engine.Columns), until emit
// returns false. The tuple is reused: emit must not retain it.
// The DFS pulls the sweep only as far as the edge it reads next, so
// the first call waits for the co-reach and the sweep up to the first
// completion, and a run that stops after k calls has stepped only the
// prefix those k branches needed, never more than the whole sweep. The
// DFS keeps a frame only for a node with an untried edge, and the
// first edge of every node fires an operation, so between two calls it
// does work bounded by the number of variables plus the letter steps
// of the sweep it pulls: polynomial delay (Theorem 5.7).
func (w *seqWalk) run(start program.Bits, emit func(t []span.Span) bool) {
	w.begin(start)
	fired, stack := w.fired[:0], append(w.stack[:0], walkFrame{end: 1})
	t := slices.Grow(w.tuple[:0], len(w.e.prog.Vars))[:len(w.e.prog.Vars)]
	for len(stack) > 0 {
		top := len(stack) - 1
		f := stack[top]
		if stack[top].next++; f.next+1 == f.end {
			stack = stack[:top]
		}
		if w.edges[f.next].to == toPending && w.sweeping() {
			w.pull(f.next)
		}
		e := w.edges[f.next]
		fired = appendFired(fired[:f.base], e.mask, f.pos)
		switch e.to {
		case toEnd:
			fillTuple(t, fired)
			if !emit(t) {
				stack = stack[:0]
			}
		case toPending: // dead: the sweep ended without reaching it
		default:
			n := w.nodes[e.to]
			stack = append(stack, walkFrame{next: n.first, end: n.end, pos: int(n.pos), base: len(fired)})
		}
	}
	w.fired, w.stack, w.tuple = fired, stack, t
	w.done()
}

// obligation is a boundary where a pinned mapping demands operations:
// of the operations the mapping constrains, exactly mask fires there.
type obligation struct {
	pos  int
	mask uint64
}

// exists reports whether some branch from the frontier start at lo
// fires, of the operations in blocked, exactly those obl (sorted by
// boundary, at most one per boundary) demands at each boundary: Eval
// under a pinned mapping, the DFS of run with a choice filter, stopped
// at its first completion. An edge of a node at p is tried only if its
// mask meets blocked in what p demands. Nothing fires on the op-free
// stretch an edge covers, up to its node or, when it completes,
// through hi, so an edge whose stretch holds an obligation is dead;
// the root edge's stretch starts at lo. Whether a node completes
// depends on the node alone, and edges lead to later boundaries, so a
// node reached again has already failed: the DFS enters each node at
// most once (entered), linear in the DAG, not in its paths.
func (w *seqWalk) exists(start program.Bits, obl []obligation, blocked uint64) bool {
	w.begin(start)
	seen, stack := w.seen[:0], append(w.stack[:0], walkFrame{end: 1, pos: w.lo - 1})
	found := false
	for len(stack) > 0 && !found {
		top := len(stack) - 1
		f := stack[top]
		if stack[top].next++; f.next+1 == f.end {
			stack = stack[:top]
		}
		var need uint64
		if f.base > 0 && obl[f.base-1].pos == f.pos {
			need = obl[f.base-1].mask
		}
		if w.edges[f.next].mask&blocked != need {
			continue
		}
		if w.edges[f.next].to == toPending && w.sweeping() {
			w.pull(f.next)
		}
		switch to := w.edges[f.next].to; to {
		case toEnd:
			found = f.base == len(obl)
		case toPending: // dead: the sweep ended without reaching it
		default:
			n, i := w.nodes[to], f.base
			if i < len(obl) && obl[i].pos < int(n.pos) {
				continue // an obligation on the stretch
			}
			if k := int(to>>6) + 1; k > len(seen) {
				seen = append(seen, make(program.Bits, k-len(seen))...)
			}
			if seen.Has(int(to)) {
				continue
			}
			seen.Set(int(to))
			w.entered++
			if i < len(obl) && obl[i].pos == int(n.pos) {
				i++
			}
			stack = append(stack, walkFrame{next: n.first, end: n.end, pos: int(n.pos), base: i})
		}
	}
	w.seen, w.stack = seen, stack
	w.done()
	return found
}

// count returns the number of branches run would emit, without walking
// them: the number of root-to-completion paths of the sweep's DAG.
// Exact because co-reach pruning makes branches and mappings
// bijective.
func (w *seqWalk) count(start program.Bits) int {
	w.sweep(start)
	paths := slices.Grow(w.paths[:0], len(w.nodes))[:len(w.nodes)]
	clear(paths)
	w.paths = paths
	along := func(to int32) int {
		switch to {
		case toEnd:
			return 1
		case toPending:
			return 0
		}
		return paths[to]
	}
	for i := len(w.nodes) - 1; i >= 0; i-- { // edges lead to later nodes
		for _, e := range w.edges[w.nodes[i].first:w.nodes[i].end] {
			paths[i] += along(e.to)
		}
	}
	n := along(w.edges[0].to)
	w.done()
	return n
}

// opFreeStates marks the states from which no letter path reaches a
// state with an operation edge.
func opFreeStates(p *program.Program) program.Bits {
	reach := p.HasOps.Clone()
	var stack []int
	reach.ForEach(func(q int) { stack = append(stack, q) })
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := 0; c < p.NumClasses; c++ {
			p.Pred(q, c).ForEach(func(r int) {
				if !reach.Has(r) {
					reach.Set(r)
					stack = append(stack, r)
				}
			})
		}
	}
	free := program.NewBits(p.NumStates)
	for q := 0; q < p.NumStates; q++ {
		if !reach.Has(q) {
			free.Set(q)
		}
	}
	return free
}

// subsetOf reports a ⊆ b for same-width bitsets.
func subsetOf(a, b program.Bits) bool {
	for i, x := range a {
		if x&^b[i] != 0 {
			return false
		}
	}
	return true
}

// walkSeeds are the read-only frontiers every walk of p starts from:
// the start state, and the co-reach set at the document end — the
// final states and everything that reaches them through operations
// alone.
func walkSeeds(p *program.Program) (start, coFinal program.Bits) {
	start = program.NewBits(p.NumStates)
	start.Set(p.Start)
	coFinal = p.Final.Clone()
	p.ROpClosure(coFinal)
	return start, coFinal
}

// coReach computes the co-reach of the boundaries lo..hi of d into b,
// growing its buffers only when they are too short, and returns it as
// states[pos-lo] on the DFA path, as raw[pos-lo] otherwise, with the
// grown key scratch. A nil seed is the final co-reach at the document
// end (hi = n+1); any other seed is stored at hi as is, so a cut can
// demand letters-only completion from there. This is the one place
// that picks the sweep: with the lazy DFA on, the seed is interned
// once and the memoized reverse rows step from it, so every boundary's
// co-reach is an interned state carrying its firers; ForceNoDFA and a
// reverse sweep that thrashes the cache's budget take the bitset sweep.
func (b *coBufs) coReach(e *Engine, d *span.Document, lo, hi int, seed program.Bits, key []byte) (states []*program.DState, raw []program.Bits, _ []byte) {
	if e.DFAEnabled() {
		var s *program.DState
		if seed != nil {
			s, key = e.dfa.StateScratch(seed, key)
		}
		if out, ok := e.dfa.BackwardFrontiers(d, lo, hi, s, b.states); ok {
			b.states = out
			return out, nil, key
		}
	}
	if seed == nil {
		seed = e.coFinal
	}
	return nil, b.coReachRaw(e, d, lo, hi, seed), key
}

// coReachRaw is the direct bitset co-reach sweep over boundaries
// lo..hi: out[pos-lo] holds the states at pos from which seed is
// reachable at hi reading d[pos..hi-1], operations treated
// permissively as ε. The other boundaries share one slab.
func (b *coBufs) coReachRaw(e *Engine, d *span.Document, lo, hi int, seed program.Bits) []program.Bits {
	p := e.prog
	words := len(seed)
	slab := slices.Grow(b.slab[:0], (hi-lo)*words)[:(hi-lo)*words]
	clear(slab)
	out := slices.Grow(b.hdr[:0], hi-lo+1)[:hi-lo+1]
	b.hdr, b.slab = out, slab
	out[hi-lo] = seed
	for pos := hi - 1; pos >= lo; pos-- {
		prev := program.Bits(slab[(pos-lo)*words : (pos-lo+1)*words])
		if c := p.ClassOf(d.RuneAt(pos)); c >= 0 {
			p.LetterStepBack(out[pos+1-lo], c, prev)
		}
		p.ROpClosure(prev)
		out[pos-lo] = prev
	}
	return out
}
