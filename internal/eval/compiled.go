package eval

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"spanners/internal/program"
	"spanners/internal/span"
)

// This file contains the compiled counterparts of the interpreted
// algorithms in eval.go, enumerate.go and candidates.go: the same
// theorems (5.1, 5.7, 5.10), executed against the flat ε-free
// instruction tables of internal/program. Frontiers are bitsets,
// variable operations are uint64 masks, and each document position
// classifies its rune once instead of probing every transition's
// class predicate. The sequential enumeration walk is in walk.go.

// evalSeqProg is Theorem 5.7 on the compiled program. A mapping that
// constrains no variable the program assigns — NonEmpty, Matches — asks
// only whether the start state co-reaches the document end
// (startCoReaches). Any other is the enumeration walk stopped at its
// first completion (seqWalk.exists): the per-boundary obligation sets
// of the interpreted evalSequential become the sorted obligations of
// mu, at most two per variable, and uint64 masks tell in one AND
// whether a boundary choice fires what they demand there.
func (e *Engine) evalSeqProg(d *span.Document, mu span.Extended) bool {
	p := e.prog
	var obl []obligation
	var blocked uint64
	for v, o := range mu {
		id, ok := p.VarID(v)
		if !ok {
			if !o.Bottom {
				return false // pinned to a variable no accepting run assigns
			}
			continue
		}
		blocked |= program.OpenBit(id) | program.CloseBit(id)
		if !o.Bottom {
			obl = append(obl, obligation{o.Span.Start, program.OpenBit(id)}, obligation{o.Span.End, program.CloseBit(id)})
		}
	}
	if blocked == 0 {
		return e.startCoReaches(d)
	}
	// exists takes them by boundary, one per boundary.
	slices.SortFunc(obl, func(a, b obligation) int { return cmp.Compare(a.pos, b.pos) })
	k := 0
	for _, o := range obl {
		if k > 0 && obl[k-1].pos == o.pos {
			obl[k-1].mask |= o.mask
		} else {
			obl[k], k = o, k+1
		}
	}
	return e.newSeqWalk(d, 1, d.Len()+1, nil).exists(e.start, obl[:k], blocked)
}

// startCoReaches is NonEmpty, Eval with the empty mapping: whether the
// start state lies in the co-reach of boundary 1. The reverse sweep
// runs from the document end window by window, each window
// FlushCheckInterval letters seeded with the previous window's first
// co-reach, and stops where the co-reach dies. Every window is swept
// into a pooled walk's co-reach buffers, so a warm call allocates
// nothing. With the lazy DFA on, a window is DFA.BackwardFrontiers, and
// the flush count is kept across windows; with the DFA off, and from
// the window where the cache thrashed its budget on, the windows are
// bitset sweeps (coReachRaw).
func (e *Engine) startCoReaches(d *span.Document) bool {
	w := walkPool.Get().(*seqWalk)
	defer walkPool.Put(w)
	dfa := e.DFAEnabled()
	var flush0 uint64
	if dfa {
		flush0 = e.dfa.Flushes()
	}
	var s *program.DState
	co := e.coFinal
	for hi := d.Len() + 1; ; {
		lo := max(1, hi-program.FlushCheckInterval)
		if dfa {
			out, ok := e.dfa.BackwardFrontiers(d, lo, hi, s, w.states)
			if !ok {
				dfa = false // sweep the window again, on bitsets
				continue
			}
			w.states, s = out, out[0]
			co = s.Frontier()
		} else {
			w.scratch = append(w.scratch[:0], w.coReachRaw(e, d, lo, hi, co)[0]...)
			co = w.scratch
		}
		if lo == 1 || !co.Any() {
			return co.Intersects(e.start)
		}
		if dfa && e.dfa.Flushes()-flush0 > program.MaxFlushesPerSweep {
			e.dfa.NoteFallback()
			dfa = false
		}
		hi = lo
	}
}

// pcfg is a compiled FPT configuration: a program state plus the
// status vector of all program variables, two bits per variable
// (0 available, 1 open, 2 closed) packed into one uint64.
type pcfg struct {
	q  int32
	st uint64
}

func pstatus(st uint64, v int) uint64 { return (st >> (2 * uint(v))) & 3 }

// evalFPTProg is Theorem 5.10 on the compiled program: reachability
// over (state, packed status vector) configurations. The frontier is
// group-native — a map from status vector to the bitset of states
// carrying it — so individual configurations materialize only around
// variable-operation edges: the boundary closure expands per-config
// exclusively from states with op edges (the bulk of a letter-heavy
// frontier never enters the worklist), and the letter step advances
// each group's bitset wholesale.
func (e *Engine) evalFPTProg(d *span.Document, mu span.Extended) bool {
	p := e.prog
	n := d.Len()
	k := len(p.Vars)

	const (
		clsFree   uint8 = 0
		clsPinned uint8 = 1
		clsBot    uint8 = 2
	)
	class := make([]uint8, k)
	starts := make([]int, k)
	ends := make([]int, k)
	for v, o := range mu {
		id, ok := p.VarID(v)
		if !ok {
			if !o.Bottom {
				return false
			}
			continue
		}
		if o.Bottom {
			class[id] = clsBot
		} else {
			class[id] = clsPinned
			starts[id] = o.Span.Start
			ends[id] = o.Span.End
		}
	}

	start := program.NewBits(p.NumStates)
	start.Set(p.Start)
	frontier := map[uint64]program.Bits{0: start}

	// closure saturates the frontier at one boundary under op edges,
	// respecting each variable's constraint class. Only states with op
	// edges enter the per-config worklist; everything else is carried
	// over by whole-group bitset ORs.
	closure := func(frontier map[uint64]program.Bits, pos int) map[uint64]program.Bits {
		out := make(map[uint64]program.Bits, len(frontier))
		var stack []pcfg
		add := func(q int32, st uint64) {
			g := out[st]
			if g == nil {
				g = program.NewBits(p.NumStates)
				out[st] = g
			}
			if g.Has(int(q)) {
				return
			}
			g.Set(int(q))
			if p.HasOps.Has(int(q)) {
				stack = append(stack, pcfg{q: q, st: st})
			}
		}
		for st, g := range frontier {
			if !g.Intersects(p.HasOps) {
				// Fast path: no state can fire an operation; adopt the
				// group wholesale.
				og := out[st]
				if og == nil {
					out[st] = g.Clone()
					continue
				}
				og.Or(g)
				continue
			}
			g.ForEach(func(q int) { add(int32(q), st) })
		}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ed := range p.OpsFrom(int(c.q)) {
				v := int(ed.Var)
				var nst uint64
				if ed.Open {
					if pstatus(c.st, v) != 0 {
						continue
					}
					if class[v] == clsPinned && starts[v] != pos {
						continue
					}
					nst = c.st | 1<<(2*uint(v))
				} else {
					if pstatus(c.st, v) != 1 {
						continue // close before open (or never-opened variable)
					}
					switch class[v] {
					case clsBot:
						continue // closing would assign a ⊥ variable
					case clsPinned:
						if ends[v] != pos {
							continue
						}
					}
					nst = c.st&^(3<<(2*uint(v))) | 2<<(2*uint(v))
				}
				add(ed.To, nst)
			}
		}
		return out
	}

	for pos := 1; pos <= n+1; pos++ {
		frontier = closure(frontier, pos)
		if len(frontier) == 0 {
			return false
		}
		if pos == n+1 {
			break
		}
		c := p.ClassOf(d.RuneAt(pos))
		if c < 0 {
			return false
		}
		next := make(map[uint64]program.Bits, len(frontier))
		for st, g := range frontier {
			stepped := program.NewBits(p.NumStates)
			p.LetterStep(g, c, stepped)
			if stepped.Any() {
				next[st] = stepped
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return false
		}
	}

	for st, g := range frontier {
		ok := true
		for v := 0; v < k; v++ {
			if class[v] == clsPinned && pstatus(st, v) != 2 {
				ok = false
				break
			}
		}
		if ok && g.Intersects(p.Final) {
			return true
		}
	}
	return false
}

// firesInto reports whether a state of set in co has an operation
// leading into co: exactly when boundaryEmissionsProg(set, co) returns
// more than the do-nothing choice. The walk records a DAG node where
// this holds and skips the boundary otherwise; on the DFA path it asks
// the interned co-reach state's firers, which give the same answer
// (TestFirersMatchFiresInto).
func (e *Engine) firesInto(set, co program.Bits) bool {
	p := e.prog
	for i, word := range set {
		for word &= p.HasOps[i] & co[i]; word != 0; word &= word - 1 {
			for _, ed := range p.OpsFrom(i<<6 + bits.TrailingZeros64(word)) {
				if co.Has(int(ed.To)) {
					return true
				}
			}
		}
	}
	return false
}

// boundaryEmissionsProg enumerates the distinct operation sets firable
// from the state set at one boundary via a (state, mask) BFS; the
// global op codes serve directly as mask bits, so no per-boundary
// universe needs interning and the 30-operation cap of the
// interpreted enumerator disappears (the program itself bounds
// variables at program.MaxVars). Choices come back in the engine's
// emission order (opOrder) — the order the interpreted enumerator
// derives by sorting key strings. The choices and their state sets are
// carved from a, and stay valid while a grows; a walk on the bitset
// path passes its pooled arena, Engine.choices a fresh one whose
// storage the state it derives them for keeps. The walk asks only
// where an operation can fire (firesInto).
func (e *Engine) boundaryEmissionsProg(set, coReach program.Bits, a *emArena) []progEmission {
	p := e.prog
	first := len(a.ems)
	// queue holds every configuration seen, in BFS order, from the
	// states of set that can still complete.
	if a.seen == nil {
		a.seen = make(map[emCfg]struct{})
	}
	clear(a.seen)
	queue := a.queue[:0]
	for i, word := range set {
		for word &= coReach[i]; word != 0; word &= word - 1 {
			c := emCfg{q: int32(i<<6 + bits.TrailingZeros64(word))}
			a.seen[c] = struct{}{}
			queue = append(queue, c)
		}
	}
	for i := 0; i < len(queue); i++ {
		c := queue[i]
		for _, ed := range p.OpsFrom(int(c.q)) {
			if c.mask&ed.Mask != 0 {
				continue // an operation fires at most once per run
			}
			if !coReach.Has(int(ed.To)) {
				continue
			}
			nc := emCfg{q: ed.To, mask: c.mask | ed.Mask}
			if _, ok := a.seen[nc]; !ok {
				a.seen[nc] = struct{}{}
				queue = append(queue, nc)
			}
		}
	}
	a.queue = queue

	// Group the configurations by mask, in emission order.
	slices.SortFunc(queue, func(x, y emCfg) int {
		switch {
		case x.mask == y.mask:
			return 0
		case e.order.less(x.mask, y.mask):
			return -1
		}
		return 1
	})
	for i := 0; i < len(queue); {
		m := queue[i].mask
		states := a.bits(len(set))
		for ; i < len(queue) && queue[i].mask == m; i++ {
			states.Set(int(queue[i].q))
		}
		a.ems = append(a.ems, progEmission{mask: m, states: states})
	}
	return a.ems[first:]
}

// emArena is the storage of boundary choices (boundaryEmissionsProg):
// the choices and their state sets, and the BFS's scratch.
// Slices handed out stay valid when a later append moves an array: the
// old one lives on as long as they reference it, and nothing writes it
// again.
type emArena struct {
	ems   []progEmission
	words []uint64
	seen  map[emCfg]struct{}
	queue []emCfg
}

// emCfg is one configuration of the boundary BFS: a state and the
// operations fired reaching it.
type emCfg struct {
	q    int32
	mask uint64
}

// reset empties the arena for the next walk, keeping its storage.
func (a *emArena) reset() {
	a.ems, a.words = a.ems[:0], a.words[:0]
}

// bits carves a zeroed bitset of n words.
func (a *emArena) bits(n int) program.Bits {
	from := len(a.words)
	a.words = slices.Grow(a.words, n)[:from+n]
	b := program.Bits(a.words[from : from+n : from+n])
	clear(b)
	return b
}

// countProg is Count on the compiled program: the walk's multiplicity
// sweep over the whole document.
func (e *Engine) countProg(d *span.Document) int {
	return e.newSeqWalk(d, 1, d.Len()+1, nil).count(e.start)
}

// forwardReachProg computes, for every boundary, the states reachable
// from the start reading the document prefix, operations treated
// permissively as ε. Like the co-reach sweep (coReach) it puts
// boundary 1 first (out[pos-1]). With the DFA enabled the sweep is one memoized
// transition per rune and the returned frontiers alias interned
// (read-only) cache states; the bitset sweep remains as the fallback,
// its frontiers carved from one slab.
func (e *Engine) forwardReachProg(d *span.Document) []program.Bits {
	if e.DFAEnabled() {
		if out, ok := e.dfa.ForwardFrontiers(d); ok {
			return out[1:]
		}
	}
	p := e.prog
	n := d.Len()
	words := len(p.Final)
	slab := make([]uint64, (n+1)*words)
	out := make([]program.Bits, n+1)
	for pos := 1; pos <= n+1; pos++ {
		cur := program.Bits(slab[(pos-1)*words : pos*words])
		if pos == 1 {
			cur.Set(p.Start)
		} else if c := p.ClassOf(d.RuneAt(pos - 1)); c >= 0 {
			p.LetterStep(out[pos-2], c, cur)
		}
		p.OpClosure(cur)
		out[pos-1] = cur
	}
	return out
}

// candidateSpansProg is the candidate-span prefilter of
// EnumerateFiltered on the compiled program, given the forward and
// backward reachability sweeps (boundary 1 first in both).
func (e *Engine) candidateSpansProg(d *span.Document, fwd, bwd []program.Bits) map[span.Var][]span.Span {
	p := e.prog
	n := d.Len()

	// Per-variable open and close edge lists (from, to).
	type edge struct{ from, to int32 }
	opens := make([][]edge, len(p.Vars))
	closes := make([][]edge, len(p.Vars))
	for q := 0; q < p.NumStates; q++ {
		for _, ed := range p.OpsFrom(q) {
			if ed.Open {
				opens[ed.Var] = append(opens[ed.Var], edge{from: int32(q), to: ed.To})
			} else {
				closes[ed.Var] = append(closes[ed.Var], edge{from: int32(q), to: ed.To})
			}
		}
	}

	out := make(map[span.Var][]span.Span, len(e.vars))
	for _, x := range e.vars {
		id, ok := p.VarID(x)
		if !ok {
			out[x] = nil // variable trimmed from every accepting run
			continue
		}
		seen := map[span.Span]bool{}
		frontier := program.NewBits(p.NumStates)
		next := program.NewBits(p.NumStates)
		for _, oe := range opens[id] {
			for pos := 1; pos <= n+1; pos++ {
				if !fwd[pos-1].Has(int(oe.from)) {
					continue
				}
				// Scan forward from the open, recording positions where
				// a close of x can fire on a surviving path.
				frontier.Clear()
				frontier.Set(int(oe.to))
				for pp := pos; pp <= n+1; pp++ {
					p.OpClosure(frontier)
					for _, ce := range closes[id] {
						if frontier.Has(int(ce.from)) && bwd[pp-1].Has(int(ce.to)) {
							seen[span.Span{Start: pos, End: pp}] = true
						}
					}
					if pp == n+1 {
						break
					}
					c := p.ClassOf(d.RuneAt(pp))
					if c < 0 {
						break
					}
					next.Clear()
					if !p.LetterStep(frontier, c, next) {
						break
					}
					frontier.CopyFrom(next)
				}
			}
		}
		spans := make([]span.Span, 0, len(seen))
		for s := range seen {
			spans = append(spans, s)
		}
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End < spans[j].End
		})
		out[x] = spans
	}
	return out
}
