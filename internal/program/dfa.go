package program

import (
	"slices"
	"sync"
	"sync/atomic"

	"spanners/internal/span"
)

// This file is the lazy-DFA layer over the compiled program: a
// bounded, hit-counted memoization of
//
//	(frontier bitset, rune equivalence class) → next frontier
//
// built on demand during execution — determinization restricted to
// the state space a real document stream actually visits. Frontiers
// are interned into DFA states; each state carries one lazily filled
// transition row per stepping kind:
//
//	StepForward  LetterStep then OpClosure — forward reach, for the
//	             candidate spans of the non-sequential filtered path;
//	StepReverse  LetterStepBack then ROpClosure — co-reachability;
//	StepRaw      LetterStep alone — the letter half of a step whose
//	             closure the engine handles itself (FPT status
//	             groups, the enumerator's pruned advances).
//
// The reverse step has a second row, inline in the state and indexed by
// an ASCII byte's slot (its class plus one, for the first
// revSlotNone-1 classes), so the co-reach sweep of an ASCII document
// (BackwardFrontiers) takes one dependent load per byte: the slot
// depends only on the byte, and there is no test for a loop.
//
// No row depends on a mapping. The paper's P-time Eval for sequential
// VAs runs on the reverse and raw rows alone: NonEmpty is one reverse
// sweep, and Eval under a pinned mapping is the enumeration walk
// (internal/eval) with a choice filter, stopped at its first
// completion.
//
// The cache is shared by every engine executing the program (it hangs
// off the Program, which the service caches and the registry decodes)
// and is safe for concurrent use: the hit path is a single atomic
// pointer load, misses take the cache mutex to compute and intern.
//
// The budget keeps determinization from exploding: when the interned
// states and the walk's layers (layer.go) would exceed it, the whole
// cache is flushed (counted in evictions/flushes) and rebuilding
// starts from the live run — the classic lazy-DFA policy of RE2 and
// regexp. Callers performing a document sweep watch the flush
// counter; a run that keeps flushing abandons the DFA for that
// document and falls back to plain bitset stepping (counted in
// fallbacks). Stale states held by in-flight runs stay valid after a
// flush: transitions are pure functions of the frontier, so an old
// subgraph can never go wrong, only cold.

// StepKind selects the transition semantics of one DFA step.
type StepKind uint8

const (
	// StepForward composes LetterStep with the forward boundary
	// closure OpClosure.
	StepForward StepKind = iota
	// StepReverse composes LetterStepBack with ROpClosure.
	StepReverse
	// StepRaw is LetterStep with no closure.
	StepRaw

	numStepKinds = 3
)

// DefaultDFABudget bounds the interned state count of the shared
// per-program DFA cache created by Program.DFA.
var DefaultDFABudget = 4096

// MaxFlushesPerSweep is how many cache flushes a single document
// sweep tolerates before abandoning the DFA for that document and
// falling back to direct bitset stepping. Engine-side sweeps (the
// NonEmpty windows and the enumeration walk) apply the same policy.
const MaxFlushesPerSweep = 4

// FlushCheckInterval is how many positions a sweep advances between
// looks at the flush counter.
const FlushCheckInterval = 1024

// DFAStats is a point-in-time snapshot of one DFA cache.
type DFAStats struct {
	// ID identifies the cache within the process, so aggregators can
	// deduplicate spanners sharing one program (and therefore one
	// cache).
	ID uint64 `json:"id"`
	// States counts interned states and Layers the walk's interned
	// layers (layer.go); together they fill Budget.
	States int `json:"states"`
	Layers int `json:"layers"`
	Budget int `json:"budget"`
	// Hits and Misses count memoized-transition lookups; Evictions
	// counts states dropped by budget flushes, Flushes the flushes
	// themselves; Fallbacks counts document sweeps abandoned to plain
	// bitset stepping after the flush limit.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Flushes   uint64 `json:"flushes"`
	Fallbacks uint64 `json:"fallbacks"`
}

// dfaIDs hands out process-unique cache identities.
var dfaIDs atomic.Uint64

// DState is one interned frontier of the lazy DFA. All fields are
// written before the state is published (or through atomics after);
// Frontier must be treated as read-only.
type DState struct {
	frontier Bits
	dead     bool // empty frontier
	// firers are the states of the frontier with an operation edge
	// into the frontier (Program.FirersIn): read as a co-reach set, the
	// states where an operation can fire on a branch that still
	// completes. Derived when the state is interned, with fold, their
	// words ORed into one (Bits.Fold): a frontier whose fold misses it
	// cannot meet them.
	firers Bits
	fold   uint64
	// choices are the boundary choices of the frontier, set once by the
	// first walk that forms a DAG node on the state (SetChoices).
	choices atomic.Pointer[[]Choice]

	// next holds the memoized transitions, numStepKinds rows of
	// NumClasses entries each, filled per class; nil = not yet
	// computed.
	next []atomic.Pointer[DState]

	// rev is the reverse row by slot (Program.revSlot): slot 0 holds
	// the dead state, for a byte outside the alphabet, and slot c+1 the
	// reverse step on class c, copied from the class row on the
	// co-reach sweep's first visit (revStep). A class past the row's
	// width has the slot revSlotNone, which stays empty, so its bytes
	// step the class row. The row is inline, so it comes with the state
	// and a sweep allocates nothing for it, and last, so the fields
	// above share cache lines. Its 32 slots cost a state 256 B; a row
	// by byte would cost 1 KB.
	rev [revSlotNone + 1]atomic.Pointer[DState]
}

// revSlotNone is the reverse-row slot of an ASCII byte whose class is
// past the row's width; no state fills it.
const revSlotNone = 31

// Frontier returns the state's frontier bitset. It is shared across
// the cache and must not be modified.
func (s *DState) Frontier() Bits { return s.frontier }

// Dead reports whether the frontier is empty (every continuation
// rejects).
func (s *DState) Dead() bool { return s.dead }

// Firers returns Program.FirersIn of the state's frontier, computed
// once when the state was interned. It is shared and must not be
// modified.
func (s *DState) Firers() Bits { return s.firers }

// FirersFold returns the words of Firers ORed into one (Bits.Fold): a
// frontier f can meet the firers only if f.Fold() meets it, and with at
// most 64 program states only if it does.
func (s *DState) FirersFold() uint64 { return s.fold }

// Choice is one boundary choice of a frontier: the operations Mask
// fires, and the interned set To of the states reachable from the
// frontier along operation edges firing exactly them. The mask-0
// choice is the frontier itself.
type Choice struct {
	Mask uint64
	To   *DState
}

// Choices returns the state's boundary choices, nil until SetChoices
// published them. They are shared and must not be modified.
func (s *DState) Choices() []Choice {
	if cs := s.choices.Load(); cs != nil {
		return *cs
	}
	return nil
}

// SetChoices publishes cs as the state's boundary choices unless a
// concurrent caller published first, and returns the published ones.
// The caller derives them (the enumerator owns their order); the state
// only holds them, so they live and die with the cache generation.
func (s *DState) SetChoices(cs []Choice) []Choice {
	s.choices.CompareAndSwap(nil, &cs)
	return *s.choices.Load()
}

// DFA is the lazy transition cache over one program's frontiers. Use
// Program.DFA for the shared instance or NewDFA for a private one
// (tests, tiny-budget boundary probes).
type DFA struct {
	p      *Program
	id     uint64
	budget int

	mu     sync.RWMutex
	states map[string]*DState
	layers map[string]*Layer // the walk's (layer.go), budgeted with the states
	// start, dead and final (the co-reach of the document end, where
	// the reverse sweep starts) are replaced wholesale on a budget flush
	// (so the old transition graph they anchor becomes collectable);
	// sweeps load them once and may finish on a stale — but still
	// correct — generation.
	start atomic.Pointer[DState]
	dead  atomic.Pointer[DState]
	final atomic.Pointer[DState]

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	flushes   atomic.Uint64
	fallbacks atomic.Uint64
}

// DFA returns the program's shared lazy-DFA cache, creating it with
// DefaultDFABudget on first use. Every engine executing the program
// shares the instance, so transition work warmed by one request is
// visible to all.
func (p *Program) DFA() *DFA {
	p.dfaOnce.Do(func() { p.dfa = NewDFA(p, DefaultDFABudget) })
	return p.dfa
}

// NewDFA builds a DFA cache over p with the given interned-state
// budget (values < 3 are raised to 3: the start, dead and final
// co-reach states are permanently useful).
func NewDFA(p *Program, budget int) *DFA {
	if budget < 3 {
		budget = 3
	}
	d := &DFA{
		p:      p,
		id:     dfaIDs.Add(1),
		budget: budget,
		states: make(map[string]*DState),
		layers: make(map[string]*Layer),
	}
	d.mu.Lock()
	d.seedLocked()
	d.mu.Unlock()
	return d
}

// seedLocked interns fresh start, dead and final co-reach states into
// the current (empty or just-flushed) generation.
func (d *DFA) seedLocked() {
	d.dead.Store(d.internLocked(NewBits(d.p.NumStates)))
	startFrontier := NewBits(d.p.NumStates)
	startFrontier.Set(d.p.Start)
	d.p.OpClosure(startFrontier)
	d.start.Store(d.internLocked(startFrontier))
	final := d.p.Final.Clone()
	d.p.ROpClosure(final)
	d.final.Store(d.internLocked(final))
}

// Stats snapshots the cache counters.
func (d *DFA) Stats() DFAStats {
	d.mu.Lock()
	states, layers := len(d.states), len(d.layers)
	d.mu.Unlock()
	return DFAStats{
		ID:        d.id,
		States:    states,
		Layers:    layers,
		Budget:    d.budget,
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Evictions: d.evictions.Load(),
		Flushes:   d.flushes.Load(),
		Fallbacks: d.fallbacks.Load(),
	}
}

// Start returns the forward start state: the op-closure of the
// program's start state (of the current cache generation).
func (d *DFA) Start() *DState { return d.start.Load() }

// Flushes returns the cumulative flush count; sweeps compare it
// against a starting snapshot to detect state-space explosion.
func (d *DFA) Flushes() uint64 { return d.flushes.Load() }

// NoteFallback records one abandoned sweep.
func (d *DFA) NoteFallback() { d.fallbacks.Add(1) }

// State interns frontier (which must be exactly the program's state
// width) and returns its DFA state. The frontier is cloned when a new
// state is created, so the caller keeps ownership of its buffer.
func (d *DFA) State(frontier Bits) *DState {
	s, _ := d.StateScratch(frontier, nil)
	return s
}

// StateScratch is State with a reusable key buffer: resident
// frontiers resolve through a read-locked, allocation-free lookup,
// which keeps the walk's interning of settled frontiers and co-reach
// seeds cheap. The grown scratch buffer is returned for the next call.
func (d *DFA) StateScratch(frontier Bits, scratch []byte) (*DState, []byte) {
	scratch = frontier.AppendKey(scratch[:0])
	d.mu.RLock()
	s := d.states[string(scratch)]
	d.mu.RUnlock()
	if s != nil {
		return s, scratch
	}
	d.mu.Lock()
	s = d.internLocked(frontier.Clone())
	d.mu.Unlock()
	return s, scratch
}

// internLocked interns an owned frontier under d.mu, flushing the
// cache when the budget would be exceeded.
func (d *DFA) internLocked(frontier Bits) *DState {
	key := frontier.Key()
	if s, ok := d.states[key]; ok {
		return s
	}
	if len(d.states)+len(d.layers) >= d.budget {
		d.flushLocked()
	}
	firers := d.p.FirersIn(frontier)
	s := &DState{
		frontier: frontier,
		dead:     !frontier.Any(),
		firers:   firers,
		fold:     firers.Fold(),
		next:     make([]atomic.Pointer[DState], numStepKinds*d.p.NumClasses),
	}
	d.states[key] = s
	return s
}

// flushLocked drops every interned state and layer — including the
// current start and dead states, which are re-created fresh so the old
// transition graph they anchor becomes garbage once in-flight sweeps
// finish. Stale pointers held by those sweeps remain semantically
// valid (transitions are pure functions of the frontier); new states
// they link are interned into the new generation, never the reverse,
// so nothing old stays reachable from the cache afterwards but the
// states of layers those sweeps intern (layer.go).
func (d *DFA) flushLocked() {
	dropped := len(d.states)
	d.states = make(map[string]*DState, d.budget)
	d.layers = make(map[string]*Layer)
	d.evictions.Add(uint64(dropped))
	d.flushes.Add(1)
	d.seedLocked()
}

// StepBatched returns the memoized transition of s on class c under
// kind, computing and interning it on a miss. c must be a valid class
// (0 ≤ c < NumClasses). The sweep calling it batches its own counter
// traffic: a memoized transition touches no shared counter and reports
// hit, and the caller adds its hits once through NoteHits. A miss is
// counted here.
func (d *DFA) StepBatched(s *DState, c int, kind StepKind) (ns *DState, hit bool) {
	if ns = s.next[int(kind)*d.p.NumClasses+c].Load(); ns != nil {
		return ns, true
	}
	d.misses.Add(1)
	return d.stepSlow(s, c, kind), false
}

// NoteHits adds n memoized-transition hits counted by a batched sweep.
func (d *DFA) NoteHits(n uint64) { d.hits.Add(n) }

// stepSlow computes one transition, interns the target, and publishes
// it in the row. Concurrent computations of the same entry intern the
// same target; the first CompareAndSwap wins.
func (d *DFA) stepSlow(s *DState, c int, kind StepKind) *DState {
	next := NewBits(d.p.NumStates)
	switch kind {
	case StepForward:
		d.p.LetterStep(s.frontier, c, next)
		d.p.OpClosure(next)
	case StepReverse:
		d.p.LetterStepBack(s.frontier, c, next)
		d.p.ROpClosure(next)
	default:
		d.p.LetterStep(s.frontier, c, next)
	}
	d.mu.Lock()
	ns := d.internLocked(next)
	d.mu.Unlock()
	idx := int(kind)*d.p.NumClasses + c
	s.next[idx].CompareAndSwap(nil, ns)
	return ns
}

// ForwardFrontiers computes, for every position 1..n+1, the states
// reachable from the start reading the document prefix with
// operations treated permissively as ε — forwardReach on the
// determinized tables. The returned bitsets alias interned frontiers
// and must be treated as read-only. ok is false when the sweep
// abandoned the cache. Counter traffic is batched per sweep, not per
// rune.
func (d *DFA) ForwardFrontiers(doc *span.Document) (out []Bits, ok bool) {
	n := doc.Len()
	out = make([]Bits, n+2)
	s := d.start.Load()
	flush0 := d.flushes.Load()
	var hits, misses uint64
	defer func() {
		d.hits.Add(hits)
		d.misses.Add(misses)
	}()
	base := int(StepForward) * d.p.NumClasses
	check := FlushCheckInterval
	for pos := 1; pos <= n+1; pos++ {
		if pos >= check {
			if d.flushes.Load()-flush0 > MaxFlushesPerSweep {
				d.NoteFallback()
				return nil, false
			}
			check = pos + FlushCheckInterval
		}
		out[pos] = s.frontier
		if pos == n+1 {
			break
		}
		if c := d.p.ClassOf(doc.RuneAt(pos)); c >= 0 {
			if ns := s.next[base+c].Load(); ns != nil {
				hits++
				s = ns
			} else {
				misses++
				s = d.stepSlow(s, c, StepForward)
			}
		} else {
			s = d.dead.Load()
		}
	}
	return out, true
}

// BackwardFrontiers computes into out[pos-lo], for every position
// lo..hi, the state whose frontier holds the states from which seed is
// reachable at hi reading d[pos..hi-1] — backwardReach on the
// determinized tables, one reverse row step per rune — and returns
// out[:hi-lo+1]. A nil seed is the final co-reach state interned with
// the cache generation, which makes hi = n+1 and the frontiers those
// from which acceptance is reachable. On an ASCII document a byte is
// one load from the state's reverse row at the byte's slot (rev);
// other documents step the class row. The flush counter is read at the
// positions that are multiples of FlushCheckInterval, between blocks of
// bytes. out is grown only when it is too short, so a caller that keeps
// the returned slice sweeps the next document without allocating; nil
// asks for a fresh one. ok is false when the sweep abandoned the cache,
// and out is then nil. Counter traffic is batched per sweep, not per
// rune.
func (d *DFA) BackwardFrontiers(doc *span.Document, lo, hi int, seed *DState, out []*DState) (_ []*DState, ok bool) {
	out = slices.Grow(out[:0], hi-lo+1)[:hi-lo+1]
	s := seed
	if s == nil {
		s = d.final.Load()
	}
	out[hi-lo] = s
	flush0 := d.flushes.Load()
	var hits, misses uint64
	defer func() {
		d.hits.Add(hits)
		d.misses.Add(misses)
	}()
	base := int(StepReverse) * d.p.NumClasses
	text, slots := doc.ASCIIText(), &d.p.revSlot
	for pos := hi - 1; pos >= lo; {
		if pos%FlushCheckInterval == 0 && d.flushes.Load()-flush0 > MaxFlushesPerSweep {
			d.NoteFallback()
			return nil, false
		}
		// The block runs down to the next multiple below pos, where the
		// flush counter is read again.
		end := max(lo-1, (pos-1)/FlushCheckInterval*FlushCheckInterval)
		if text != "" {
			// Positions end+1..pos read the bytes text[end:pos].
			bs, o := text[end:pos], out[end+1-lo:pos+1-lo]
			o = o[:len(bs)]
			missed := misses
			for k := len(bs) - 1; k >= 0; k-- {
				// The text is ASCII and slots are at most revSlotNone: the
				// masks only drop the bounds checks.
				b := bs[k] & 127
				ns := s.rev[slots[b]&revSlotNone].Load()
				if ns == nil {
					ns = d.revStep(s, b, &misses)
				}
				s = ns
				o[k] = s
			}
			hits += uint64(len(bs)) - (misses - missed)
			pos = end
			continue
		}
		for ; pos > end; pos-- {
			var ns *DState
			if c := d.p.ClassOf(doc.RuneAt(pos)); c < 0 {
				ns = d.dead.Load()
			} else if ns = s.next[base+c].Load(); ns != nil {
				hits++
			} else {
				misses++
				ns = d.stepSlow(s, c, StepReverse)
			}
			s = ns
			out[pos-lo] = s
		}
	}
	return out, true
}

// revStep returns the reverse step of s on the ASCII byte b, the dead
// state for a byte outside the alphabet, and stores it at the byte's
// slot of s's reverse row unless that is revSlotNone. A missing class
// transition is computed first (counted in misses). Concurrent fills
// are benign: each stores a state of the same frontier.
func (d *DFA) revStep(s *DState, b byte, misses *uint64) *DState {
	var ns *DState
	switch c := int(d.p.asciiClass[b]); {
	case c < 0:
		ns = d.dead.Load()
	default:
		if ns = s.next[int(StepReverse)*d.p.NumClasses+c].Load(); ns == nil {
			*misses++
			ns = d.stepSlow(s, c, StepReverse)
		}
	}
	if i := d.p.revSlot[b]; i != revSlotNone {
		s.rev[i].Store(ns)
	}
	return ns
}
