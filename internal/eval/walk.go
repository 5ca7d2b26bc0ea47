package eval

import (
	"math/bits"
	"sort"

	"spanners/internal/program"
	"spanners/internal/span"
)

// This file is the one sequential walk of the compiled engine: the
// branch-per-boundary enumeration of Theorem 5.7 — at every boundary
// split the frontier by the operation set fired there, prune by
// co-reachability — over a window of boundaries. Enumerate walks the
// whole document, Count sweeps multiplicities over the same step
// function, and incremental sessions re-walk a dirty window; nothing
// else advances a frontier during enumeration. The walk is iterative:
// its depth is the number of boundaries that still hold an untried
// choice, never the document length.

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

// progOpTok is one operation of a boundary choice.
type progOpTok struct {
	v    uint8
	open bool
}

// progEmission is one boundary choice of the compiled enumerator: the
// operations fired (by variable name, open before close) and the
// states reachable having fired exactly them.
type progEmission struct {
	ops    []progOpTok
	states program.Bits
}

// firedOp records one operation fired at boundary pos on the current
// branch of the walk.
type firedOp struct {
	v    uint8
	open bool
	pos  int
}

// mappingOf builds the mapping of one branch from its fired
// operations, which arrive in boundary order. A close without an open
// keeps the zero start, as a sequential program never produces one.
func (e *Engine) mappingOf(fired []firedOp) span.Mapping {
	var opens [program.MaxVars]int
	m := make(span.Mapping)
	for _, f := range fired {
		if f.open {
			opens[f.v] = f.pos
		} else {
			m[e.prog.Vars[f.v]] = span.Span{Start: opens[f.v], End: f.pos}
		}
	}
	return m
}

// seqWalk is a walk over the boundaries lo..hi of d. co[pos-lo] is the
// set of states at boundary pos from which the window can still be
// completed. With cut unset, hi is the document end n+1 and a branch
// is emitted there for every choice that lands on a final state; with
// cut set, hi is a crossing-free cut of an incremental session beyond
// which completion is letters-only (co[hi-lo] says so), no operation
// fires at hi, and a branch is emitted on reaching it.
type seqWalk struct {
	e      *Engine
	d      *span.Document
	lo, hi int
	co     []program.Bits
	cut    bool
	bm     *bmCtx
}

func (e *Engine) newSeqWalk(d *span.Document, lo, hi int, co []program.Bits, cut bool) *seqWalk {
	return &seqWalk{e: e, d: d, lo: lo, hi: hi, co: co, cut: cut, bm: e.newBMCtx(co)}
}

// done folds the walk's memo hits into the engine's counters.
func (w *seqWalk) done() { w.bm.done() }

// emissions resolves the boundary choices of set at pos, in emission
// order, through the boundary-emission memo when the engine has one.
// The result is shared and independent of set's storage.
func (w *seqWalk) emissions(set program.Bits, pos int) []progEmission {
	if w.bm == nil {
		return w.e.boundaryEmissionsProg(set, w.co[pos-w.lo])
	}
	return w.bm.emissions(set, pos-w.lo)
}

// step moves a choice's states across the letter at pos into dst,
// keeping what can still complete; false means the branch died.
func (w *seqWalk) step(from program.Bits, pos int, dst program.Bits) bool {
	p := w.e.prog
	c := p.ClassOf(w.d.RuneAt(pos))
	if c < 0 {
		return false
	}
	dst.Clear()
	if !p.LetterStep(from, c, dst) {
		return false
	}
	dst.And(w.co[pos+1-w.lo])
	return dst.Any()
}

// walkFrame is a boundary with its choices and the next one to try;
// base is the number of operations fired before the boundary.
type walkFrame struct {
	chs       []progEmission
	next      int
	pos, base int
}

// run walks every branch from the frontier start at lo, calling emit
// with the operations fired along each completed one — in emission
// order, the empty history included — until emit returns false. emit
// must not retain fired. A frame is stacked only where a boundary
// still has an untried choice, so single-choice stretches just loop.
func (w *seqWalk) run(start program.Bits, emit func(fired []firedOp) bool) {
	final := w.e.prog.Final
	var fired []firedOp
	var stack []walkFrame
	// arrive opens boundary pos; at a cut the branch is complete.
	arrive := func(set program.Bits, pos int) (walkFrame, bool) {
		if w.cut && pos == w.hi {
			return walkFrame{}, emit(fired)
		}
		return walkFrame{chs: w.emissions(set, pos), pos: pos, base: len(fired)}, true
	}
	cur := program.NewBits(w.e.prog.NumStates)
	f, ok := arrive(start, w.lo)
	for ok {
		if f.next == len(f.chs) {
			if len(stack) == 0 {
				return
			}
			f, stack = stack[len(stack)-1], stack[:len(stack)-1]
			continue
		}
		ch := f.chs[f.next]
		f.next++
		fired = fired[:f.base]
		for _, t := range ch.ops {
			fired = append(fired, firedOp{v: t.v, open: t.open, pos: f.pos})
		}
		if f.pos == w.hi { // document end
			ok = !ch.states.Intersects(final) || emit(fired)
			continue
		}
		if !w.step(ch.states, f.pos, cur) {
			continue
		}
		if f.next < len(f.chs) {
			stack = append(stack, f)
		}
		f, ok = arrive(cur, f.pos+1)
	}
}

// count returns the number of branches run would emit on a whole
// document, without walking them: a forward sweep carrying, per
// distinct frontier at the current boundary, the number of operation
// histories that reach it. Exact because co-reach pruning makes
// branches and mappings bijective; two layers are live at a time.
func (w *seqWalk) count(start program.Bits) int {
	type histories struct {
		set program.Bits
		n   int
	}
	cur, next := []histories{{start, 1}}, []histories(nil)
	index := map[string]int{} // frontier key → position in next
	dst := program.NewBits(w.e.prog.NumStates)
	var key []byte
	total := 0
	for pos := w.lo; len(cur) > 0; pos++ {
		clear(index)
		for _, h := range cur {
			for _, ch := range w.emissions(h.set, pos) {
				switch {
				case pos == w.hi:
					if ch.states.Intersects(w.e.prog.Final) {
						total += h.n
					}
				case w.step(ch.states, pos, dst):
					key = dst.AppendKey(key[:0])
					i, seen := index[string(key)]
					if !seen {
						i = len(next)
						index[string(key)] = i
						next = append(next, histories{set: dst.Clone()})
					}
					next[i].n += h.n
				}
			}
		}
		cur, next = next, cur[:0] // nothing steps past hi, so the sweep ends there
	}
	return total
}

// startSet is the frontier of a walk from the beginning of a document.
func (e *Engine) startSet() program.Bits {
	s := program.NewBits(e.prog.NumStates)
	s.Set(e.prog.Start)
	return s
}

// finalCoReach is the co-reach set at the document end: the final
// states and everything that reaches them through operations alone.
func (e *Engine) finalCoReach() program.Bits {
	s := e.prog.Final.Clone()
	e.prog.ROpClosure(s)
	return s
}

// coReachRaw is the direct bitset co-reach sweep over boundaries
// lo..hi: out[pos-lo] holds the states at pos from which seed is
// reachable at hi reading d[pos..hi-1], operations treated
// permissively as ε. seed is stored as is, so a cut can demand
// letters-only completion from hi.
func (e *Engine) coReachRaw(d *span.Document, lo, hi int, seed program.Bits) []program.Bits {
	p := e.prog
	out := make([]program.Bits, hi-lo+1)
	out[hi-lo] = seed
	for pos := hi - 1; pos >= lo; pos-- {
		prev := program.NewBits(p.NumStates)
		if c := p.ClassOf(d.RuneAt(pos)); c >= 0 {
			p.LetterStepBack(out[pos+1-lo], c, prev)
		}
		p.ROpClosure(prev)
		out[pos-lo] = prev
	}
	return out
}
