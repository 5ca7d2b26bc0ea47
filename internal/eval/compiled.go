package eval

import (
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

// evalSeqProg is Theorem 5.7 on the compiled program. The per-boundary
// obligation sets of the interpreted evalSequential become uint64
// masks: popcount gives the obligation count, and a transition's mask
// tells in one AND whether it consumes an obligation, is blocked, or
// passes as ε. With the lazy DFA on, the unconstrained case — no
// obligation may block any operation, which covers NonEmpty/Matches —
// is one reverse sweep (startCoReaches), and the constrained case runs
// its obligation-free segments forward through a per-mask cache
// (evalSeqSegmented). Both fall back to per-rune bitset stepping when
// the cache thrashes its budget.
func (e *Engine) evalSeqProg(d *span.Document, mu span.Extended) bool {
	p := e.prog
	n := d.Len()
	// Prefilter before touching mu or allocating the obligation
	// table: a missing required literal falsifies every run, pinned
	// or not, and the n+2 need slice is the dominant cost of a
	// rejected call on large documents.
	if e.prefilterRejects(d) {
		return false
	}
	var need []uint64
	var blocked uint64
	if len(mu) > 0 {
		need = make([]uint64, n+2)
		for v, o := range mu {
			id, ok := p.VarID(v)
			if !ok {
				if !o.Bottom {
					return false // pinned to a variable no accepting run assigns
				}
				continue
			}
			blocked |= program.OpenBit(id) | program.CloseBit(id)
			if o.Bottom {
				continue
			}
			need[o.Span.Start] |= program.OpenBit(id)
			need[o.Span.End] |= program.CloseBit(id)
		}
	}
	if e.DFAEnabled() {
		if blocked == 0 {
			// No obligations anywhere (need bits imply blocked bits),
			// so some run accepts iff the start state co-reaches.
			if res, ok := e.startCoReaches(d); ok {
				return res
			}
		} else if res, ok := e.evalSeqSegmented(d, need, blocked); ok {
			return res
		}
	}

	if need == nil {
		need = make([]uint64, n+2)
	}
	cur := program.NewBits(p.NumStates)
	next := program.NewBits(p.NumStates)
	cur.Set(p.Start)
	for pos := 1; pos <= n+1; pos++ {
		if m := need[pos]; m == 0 {
			p.OpClosure(cur, blocked)
		} else if !e.obligationClosureProg(cur, m, blocked) {
			return false
		}
		if pos == n+1 {
			break
		}
		c := p.ClassOf(d.RuneAt(pos))
		if c < 0 {
			return false
		}
		next.Clear()
		if !p.LetterStep(cur, c, next) {
			return false
		}
		cur, next = next, cur
	}
	return cur.Intersects(p.Final)
}

// startCoReaches is NonEmpty on the lazy DFA, Eval with the empty
// mapping: whether the start state lies in the co-reach of boundary 1.
// The reverse sweep (DFA.BackwardFrontiers) runs from the document end
// window by window, each window FlushCheckInterval letters seeded with
// the previous window's first state, and stops where the co-reach
// dies. Every window is swept into one buffer, a pooled walk's co-reach
// buffer, so a warm call allocates nothing. The flush count is kept
// across windows: ok is false when the cache thrashed its budget, and
// the caller falls back to bitset stepping.
func (e *Engine) startCoReaches(d *span.Document) (res, ok bool) {
	w := walkPool.Get().(*seqWalk)
	defer walkPool.Put(w)
	hi := d.Len() + 1
	flush0 := e.dfa.Flushes()
	var s *program.DState
	for {
		lo := max(1, hi-program.FlushCheckInterval)
		out, ok := e.dfa.BackwardFrontiers(d, lo, hi, s, w.states)
		if !ok {
			return false, false
		}
		w.states = out
		if s = out[0]; s.Dead() || lo == 1 {
			return s.Frontier().Intersects(e.start), true
		}
		if e.dfa.Flushes()-flush0 > program.MaxFlushesPerSweep {
			e.dfa.NoteFallback()
			return false, false
		}
		hi = lo
	}
}

// evalSeqSegmented is the constrained-eval rung of the DFA ladder:
// between obligation boundaries the blocked mask is constant, so the
// per-boundary closure is exactly the forward closure of a DFA whose
// op edges exclude that mask. The sweep therefore splits the document
// at the obligation positions and runs every obligation-free segment
// through the program's per-mask constrained cache
// (program.DFAForMask) — memoized transitions and self-loop skips —
// falling back to the caller's byte-wise
// bitset loop (ok=false) when the mask family is full or a segment
// thrashes the cache budget. The letter crossing into an obligation
// boundary steps raw: the obligation closure must see the pre-closure
// frontier, matching the bitset loop's closure-then-step order.
func (e *Engine) evalSeqSegmented(d *span.Document, need []uint64, blocked uint64) (res, ok bool) {
	p := e.prog
	cdfa := p.DFAForMask(blocked)
	if cdfa == nil {
		return false, false
	}
	n := d.Len()

	// Obligation boundaries, ascending.
	var obl []int
	for pos := 1; pos <= n+1; pos++ {
		if need[pos] != 0 {
			obl = append(obl, pos)
		}
	}

	var scratch []byte
	cur := program.NewBits(p.NumStates)
	cur.Set(p.Start)
	pos, oi := 1, 0
	for {
		for oi < len(obl) && obl[oi] < pos {
			oi++
		}
		if need[pos] != 0 {
			if !e.obligationClosureProg(cur, need[pos], blocked) {
				return false, true
			}
			if pos == n+1 {
				return cur.Intersects(p.Final), true
			}
			// One raw letter step out of the boundary; the closure at
			// pos+1 happens on the next iteration (obligation or
			// segment entry).
			c := p.ClassOf(d.RuneAt(pos))
			if c < 0 {
				return false, true
			}
			next := program.NewBits(p.NumStates)
			if !p.LetterStep(cur, c, next) {
				return false, true
			}
			cur = next
			pos++
			continue
		}
		// Obligation-free segment [pos, segEnd): close the frontier
		// under the blocked mask and sweep it through the constrained
		// DFA.
		segEnd := n + 1
		if oi < len(obl) {
			segEnd = obl[oi]
		}
		p.OpClosure(cur, blocked)
		var s *program.DState
		s, scratch = cdfa.StateScratch(cur, scratch)
		cdfa.NoteSegment()
		if segEnd == n+1 && need[n+1] == 0 {
			// Sweep to the end of the document; the final boundary's
			// closure is folded into the last forward step, and the
			// entry closure was just applied, so acceptance is the
			// landing state's. (An obligation at n+1 takes the general
			// path below instead: its boundary must see the raw
			// pre-closure frontier.)
			s, swept := cdfa.SweepForward(s, d, pos-1, n)
			if !swept {
				return false, false
			}
			return s.Accept(), true
		}
		// Forward-sweep letters pos..segEnd-2, then step the letter
		// into the obligation boundary raw.
		s, swept := cdfa.SweepForward(s, d, pos-1, segEnd-2)
		if !swept {
			return false, false
		}
		if s.Dead() {
			return false, true
		}
		c := p.ClassOf(d.RuneAt(segEnd - 1))
		if c < 0 {
			return false, true
		}
		s = cdfa.Step(s, c, program.StepRaw)
		if s.Dead() {
			return false, true
		}
		cur = s.Frontier().Clone()
		pos = segEnd
	}
}

// obligationClosureProg expands cur (in place) at a boundary that must
// consume exactly the obligation mask need: layered bitsets indexed by
// consumed-obligation count, sound by the same sequentiality counting
// argument as the interpreted obligationClosure.
func (e *Engine) obligationClosureProg(cur program.Bits, need, blocked uint64) bool {
	p := e.prog
	total := bits.OnesCount64(need)
	words := len(cur)
	backing := make([]uint64, words*(total+1))
	layer := func(c int) program.Bits { return program.Bits(backing[c*words : (c+1)*words]) }

	var stack []int64 // packed count*NumStates + state
	nStates := int64(p.NumStates)
	cur.ForEach(func(q int) {
		layer(0).Set(q)
		stack = append(stack, int64(q))
	})
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		q, count := int(idx%nStates), int(idx/nStates)
		for _, ed := range p.OpsFrom(q) {
			nc := count
			if ed.Mask&need != 0 {
				if count == total {
					continue
				}
				nc = count + 1
			} else if ed.Mask&blocked != 0 {
				continue
			}
			if !layer(nc).Has(int(ed.To)) {
				layer(nc).Set(int(ed.To))
				stack = append(stack, int64(nc)*nStates+int64(ed.To))
			}
		}
	}
	cur.CopyFrom(layer(total))
	return cur.Any()
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
// each group's bitset wholesale, through the DFA's raw memoized
// transitions when the cache is enabled and the group is big enough
// to amortize the lookup.
func (e *Engine) evalFPTProg(d *span.Document, mu span.Extended) bool {
	if e.prefilterRejects(d) {
		return false
	}
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

	// The DFA pays for a group step once the group is big enough that
	// one memoized lookup beats the direct successor ORs; a cache that
	// starts thrashing its budget mid-document is abandoned for the
	// rest of the run.
	const dfaGroupMinStates = 4
	useDFA := e.DFAEnabled()
	var flush0 uint64
	var scratch []byte
	if useDFA {
		flush0 = e.dfa.Flushes()
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
		if useDFA && e.dfa.Flushes()-flush0 > program.MaxFlushesPerSweep {
			e.dfa.NoteFallback()
			useDFA = false
		}
		next := make(map[uint64]program.Bits, len(frontier))
		for st, g := range frontier {
			var stepped program.Bits
			if useDFA && g.Count() >= dfaGroupMinStates {
				// Aliases an interned (read-only) frontier; closure
				// never mutates input groups, so no clone is needed.
				var s *program.DState
				s, scratch = e.dfa.StateScratch(g, scratch)
				stepped = e.dfa.Step(s, c, program.StepRaw).Frontier()
			} else {
				stepped = program.NewBits(p.NumStates)
				p.LetterStep(g, c, stepped)
			}
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
	if e.prefilterRejects(d) {
		return 0
	}
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
		p.OpClosure(cur, 0)
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
					p.OpClosure(frontier, 0)
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
