// Package program is the compiled execution core: it lowers a
// variable-set automaton into a flat, ε-free instruction table that
// the evaluation engines execute instead of walking va.Transition
// slices. The lowering reuses va.Normalize's ε-elimination and then
//
//   - renumbers states densely and represents state sets (frontiers,
//     co-reachability) as Bits bitsets,
//   - compresses the document alphabet into rune equivalence classes
//     computed from the automaton's runeclass predicates, so a letter
//     step classifies the rune once and then ORs dense per-state ×
//     per-class dispatch bitsets, and
//   - bit-packs variable open/close operations into uint64 masks
//     (open x = bit v, close x = bit 32+v), laid out in CSR edge
//     arrays, so boundary obligation sets become popcounts and mask
//     tests.
//
// The program is immutable after compilation, safe for concurrent
// use, and carries no per-document state: it is the artifact a
// long-lived service can cache, share between the Eval / ModelCheck /
// enumeration paths (Theorems 5.1 and 5.7 run on the same tables),
// and eventually persist in a spanner registry.
package program

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"sync"
	"time"

	"spanners/internal/runeclass"
	"spanners/internal/span"
	"spanners/internal/va"
)

// MaxVars bounds the number of distinct variables a program can
// bit-pack (open and close each take one bit of a uint64 mask).
// Automata beyond the bound fall back to the interpreted engines.
const MaxVars = 32

// maxDeltaWords bounds the dense dispatch tables (delta + rdelta, in
// uint64 words) so a pathological automaton cannot allocate
// unboundedly; beyond it compilation fails and callers fall back.
const maxDeltaWords = 1 << 22 // 32 MiB of uint64s

// OpEdge is one variable-operation edge of the compiled program.
type OpEdge struct {
	To   int32  // destination state (source state for reverse edges)
	Mask uint64 // OpenBit(Var) or CloseBit(Var)
	Var  uint8  // dense variable id
	Open bool   // open (x⊢) vs close (⊣x)
}

// OpenBit returns the mask bit of the open operation of variable v.
func OpenBit(v int) uint64 { return 1 << uint(v) }

// CloseBit returns the mask bit of the close operation of variable v.
func CloseBit(v int) uint64 { return 1 << (32 + uint(v)) }

// Stats describes a compiled program, for metrics and benchmarks.
type Stats struct {
	States      int   `json:"states"`
	Classes     int   `json:"classes"`
	Vars        int   `json:"vars"`
	OpEdges     int   `json:"op_edges"`
	LetterEdges int   `json:"letter_edges"`
	DeltaWords  int   `json:"delta_words"`
	CompileNS   int64 `json:"compile_ns"`
}

// Program is a compiled, flat, ε-free form of a VA. All exported
// fields are read-only after Compile.
type Program struct {
	NumStates  int
	Start      int
	NumClasses int

	// Vars assigns dense ids to every variable appearing on an op
	// edge, sorted by name. OpenedMask marks the ids that have at
	// least one open edge (the automaton's var set in the paper's
	// sense; close-only variables can never fire).
	Vars       []span.Var
	OpenedMask uint64

	// Final marks accepting states (ε-slide into a final state of the
	// source automaton is folded in by va.Normalize).
	Final Bits

	// Rune classification: disjoint sorted ranges [lo[i], hi[i]] with
	// class id cls[i]; runes outside every range match no letter edge.
	lo  []rune
	hi  []rune
	cls []uint16

	// delta[q*NumClasses+c] is the bitset of successors of q on class
	// c; rdelta[q*NumClasses+c] the bitset of predecessors.
	delta  []Bits
	rdelta []Bits

	// Op edges in CSR layout: edges leaving q are
	// OpEdges[OpHead[q]:OpHead[q+1]]; ROpEdges mirrors them entering q
	// (their To field holds the source state).
	OpHead   []int32
	OpEdges  []OpEdge
	ROpHead  []int32
	ROpEdges []OpEdge

	// HasOps marks states with at least one outgoing op edge, RHasOps
	// with at least one incoming: boundary closures exit immediately
	// when the frontier avoids them, the common case away from the
	// anchored region of a pattern.
	HasOps  Bits
	RHasOps Bits

	// Derived ASCII tables (ascii.go): O(1) classification, each
	// class's ASCII bytes as a two-word mask (bit b of word b>>6), and
	// each byte's slot in a state's reverse row (DState.rev).
	asciiClass [128]int16
	asciiMask  [][2]uint64
	revSlot    [128]uint8

	// Lazily created shared state: the per-program lazy-DFA cache and
	// the artifact fingerprint.
	dfaOnce sync.Once
	dfa     *DFA
	fpOnce  sync.Once
	fp      uint64

	stats Stats
}

// Fingerprint returns the FNV-64a hash of the program's encoded
// artifact. It is the identity incremental document sessions are
// keyed on: because Encode is deterministic, equal programs — compiled
// or decoded — share a fingerprint.
func (p *Program) Fingerprint() uint64 {
	p.fpOnce.Do(func() {
		h := fnv.New64a()
		h.Write(p.Encode())
		p.fp = h.Sum64()
	})
	return p.fp
}

// Stats returns the compile-time statistics of the program.
func (p *Program) Stats() Stats { return p.stats }

// VarID returns the dense id of v and whether the program knows it.
func (p *Program) VarID(v span.Var) (int, bool) {
	i := sort.Search(len(p.Vars), func(i int) bool { return p.Vars[i] >= v })
	if i < len(p.Vars) && p.Vars[i] == v {
		return i, true
	}
	return 0, false
}

// ClassOf classifies a rune into its equivalence class, or -1 when no
// letter edge of the program can read it. ASCII runes resolve through
// a direct-indexed table; the rest binary-search the range list.
func (p *Program) ClassOf(r rune) int {
	if r >= 0 && r < 128 {
		return int(p.asciiClass[r])
	}
	lo, hi := 0, len(p.lo)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case r < p.lo[mid]:
			hi = mid
		case r > p.hi[mid]:
			lo = mid + 1
		default:
			return int(p.cls[mid])
		}
	}
	return -1
}

// Succ returns the successor bitset of state q on class c. The result
// is shared and must not be modified.
func (p *Program) Succ(q, c int) Bits { return p.delta[q*p.NumClasses+c] }

// Pred returns the predecessor bitset of state q on class c.
func (p *Program) Pred(q, c int) Bits { return p.rdelta[q*p.NumClasses+c] }

// OpsFrom returns the op edges leaving q.
func (p *Program) OpsFrom(q int) []OpEdge { return p.OpEdges[p.OpHead[q]:p.OpHead[q+1]] }

// OpsInto returns the op edges entering q (To holds the source).
func (p *Program) OpsInto(q int) []OpEdge { return p.ROpEdges[p.ROpHead[q]:p.ROpHead[q+1]] }

// FirersIn returns the states of set with an operation edge into set.
// For a co-reach set co, a frontier f can fire an operation on a branch
// that still completes exactly when f ∩ FirersIn(co) ≠ ∅; the DFA keeps
// it with every interned state (DState.Firers).
func (p *Program) FirersIn(set Bits) Bits {
	out := NewBits(p.NumStates)
	for i, word := range set {
		for word &= p.HasOps[i]; word != 0; word &= word - 1 {
			q := i<<6 + bits.TrailingZeros64(word)
			for _, ed := range p.OpsFrom(q) {
				if set.Has(int(ed.To)) {
					out.Set(q)
					break
				}
			}
		}
	}
	return out
}

// Compile lowers a VA into a program. It fails (and the caller should
// fall back to the interpreted engines) when the automaton uses more
// than MaxVars variables or the dense dispatch tables would exceed the
// size budget; semantics are never silently approximated.
func Compile(a *va.VA) (*Program, error) {
	start := time.Now()
	n := a.Normalize()

	// Dense variable ids over every op-edge variable.
	varSet := map[span.Var]bool{}
	for _, t := range n.Trans {
		if t.Kind == va.Open || t.Kind == va.Close {
			varSet[t.Var] = true
		}
	}
	if len(varSet) > MaxVars {
		return nil, fmt.Errorf("program: %d variables exceed the %d-variable mask budget", len(varSet), MaxVars)
	}
	vars := make([]span.Var, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	varID := make(map[span.Var]int, len(vars))
	for i, v := range vars {
		varID[v] = i
	}

	// Rune equivalence classes: the atoms of the boolean algebra
	// generated by the letter predicates. Within one atom every rune
	// enables exactly the same letter edges.
	letterClasses := n.LetterClasses()
	atoms := runeclass.Atoms(letterClasses)
	numClasses := len(atoms)

	words := (n.NumStates + 63) / 64
	if total := 2 * n.NumStates * numClasses * words; total > maxDeltaWords {
		return nil, fmt.Errorf("program: dispatch table of %d words exceeds budget (%d states × %d classes)",
			total, n.NumStates, numClasses)
	}

	p := &Program{
		NumStates:  n.NumStates,
		Start:      n.Start,
		NumClasses: numClasses,
		Vars:       vars,
		Final:      NewBits(n.NumStates),
	}
	for _, f := range n.Finals {
		p.Final.Set(f)
	}

	// Classification table: atoms are disjoint, so their ranges merge
	// into one sorted interval list tagged with the atom id.
	type interval struct {
		lo, hi rune
		cls    uint16
	}
	var ivs []interval
	for ci, atom := range atoms {
		for _, r := range atom.Ranges() {
			ivs = append(ivs, interval{r.Lo, r.Hi, uint16(ci)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	p.lo = make([]rune, len(ivs))
	p.hi = make([]rune, len(ivs))
	p.cls = make([]uint16, len(ivs))
	for i, iv := range ivs {
		p.lo[i], p.hi[i], p.cls[i] = iv.lo, iv.hi, iv.cls
	}

	// Dense letter dispatch. An atom enables a transition class iff
	// any (equivalently every) of its runes does.
	backing := make([]uint64, 2*n.NumStates*numClasses*words)
	p.delta = make([]Bits, n.NumStates*numClasses)
	p.rdelta = make([]Bits, n.NumStates*numClasses)
	for i := range p.delta {
		p.delta[i] = Bits(backing[i*words : (i+1)*words])
	}
	off := n.NumStates * numClasses * words
	for i := range p.rdelta {
		p.rdelta[i] = Bits(backing[off+i*words : off+(i+1)*words])
	}
	atomSample := make([]rune, numClasses)
	for ci, atom := range atoms {
		r, ok := atom.Sample()
		if !ok {
			return nil, fmt.Errorf("program: empty alphabet atom")
		}
		atomSample[ci] = r
	}
	letterEdges := 0
	for _, t := range n.Trans {
		if t.Kind != va.Letter {
			continue
		}
		letterEdges++
		for ci := 0; ci < numClasses; ci++ {
			if t.Class.Contains(atomSample[ci]) {
				p.delta[t.From*numClasses+ci].Set(t.To)
				p.rdelta[t.To*numClasses+ci].Set(t.From)
			}
		}
	}

	// Op edges, CSR in both directions.
	counts := make([]int32, n.NumStates+1)
	rcounts := make([]int32, n.NumStates+1)
	for _, t := range n.Trans {
		if t.Kind == va.Open || t.Kind == va.Close {
			counts[t.From+1]++
			rcounts[t.To+1]++
		}
	}
	for q := 0; q < n.NumStates; q++ {
		counts[q+1] += counts[q]
		rcounts[q+1] += rcounts[q]
	}
	p.OpHead = counts
	p.ROpHead = rcounts
	p.OpEdges = make([]OpEdge, counts[n.NumStates])
	p.ROpEdges = make([]OpEdge, rcounts[n.NumStates])
	fill := make([]int32, n.NumStates)
	rfill := make([]int32, n.NumStates)
	for _, t := range n.Trans {
		if t.Kind != va.Open && t.Kind != va.Close {
			continue
		}
		vi := varID[t.Var]
		open := t.Kind == va.Open
		mask := CloseBit(vi)
		if open {
			mask = OpenBit(vi)
			p.OpenedMask |= OpenBit(vi)
		}
		e := OpEdge{To: int32(t.To), Mask: mask, Var: uint8(vi), Open: open}
		p.OpEdges[p.OpHead[t.From]+fill[t.From]] = e
		fill[t.From]++
		re := e
		re.To = int32(t.From)
		p.ROpEdges[p.ROpHead[t.To]+rfill[t.To]] = re
		rfill[t.To]++
	}
	p.HasOps = NewBits(n.NumStates)
	p.RHasOps = NewBits(n.NumStates)
	for q := 0; q < n.NumStates; q++ {
		if p.OpHead[q+1] > p.OpHead[q] {
			p.HasOps.Set(q)
		}
		if p.ROpHead[q+1] > p.ROpHead[q] {
			p.RHasOps.Set(q)
		}
	}

	p.stats = Stats{
		States:      p.NumStates,
		Classes:     numClasses,
		Vars:        len(vars),
		OpEdges:     len(p.OpEdges),
		LetterEdges: letterEdges,
		DeltaWords:  len(backing),
	}
	p.finishTables()
	p.stats.CompileNS = time.Since(start).Nanoseconds()
	return p, nil
}

// OpClosure saturates the frontier in place under every op edge: the
// compiled form of "treat operations of unconstrained variables as ε"
// at a boundary with no obligations.
// Only states with outgoing op edges enter the worklist, and the call
// returns without allocating when the frontier has none.
func (p *Program) OpClosure(cur Bits) {
	if !cur.Intersects(p.HasOps) {
		return
	}
	stack := make([]int32, 0, 16)
	cur.ForEach(func(q int) {
		if p.HasOps.Has(q) {
			stack = append(stack, int32(q))
		}
	})
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range p.OpsFrom(int(q)) {
			if cur.Has(int(e.To)) {
				continue
			}
			cur.Set(int(e.To))
			if p.HasOps.Has(int(e.To)) {
				stack = append(stack, e.To)
			}
		}
	}
}

// ROpClosure saturates the frontier in place under reversed op edges,
// unconditionally (the permissive closure used by co-reachability).
func (p *Program) ROpClosure(cur Bits) {
	if !cur.Intersects(p.RHasOps) {
		return
	}
	stack := make([]int32, 0, 16)
	cur.ForEach(func(q int) {
		if p.RHasOps.Has(q) {
			stack = append(stack, int32(q))
		}
	})
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range p.OpsInto(int(q)) {
			if cur.Has(int(e.To)) {
				continue
			}
			cur.Set(int(e.To))
			if p.RHasOps.Has(int(e.To)) {
				stack = append(stack, e.To)
			}
		}
	}
}

// LetterStep computes next = ∪_{q ∈ cur} Succ(q, c), reporting whether
// any successor exists. next must be zeroed by the caller.
func (p *Program) LetterStep(cur Bits, c int, next Bits) bool {
	any := false
	cur.ForEach(func(q int) {
		if p.Succ(q, c).Any() {
			next.Or(p.Succ(q, c))
			any = true
		}
	})
	return any
}

// LetterStepBack computes prev = ∪_{q ∈ cur} Pred(q, c). prev must be
// zeroed by the caller.
func (p *Program) LetterStepBack(cur Bits, c int, prev Bits) {
	cur.ForEach(func(q int) {
		prev.Or(p.Pred(q, c))
	})
}
