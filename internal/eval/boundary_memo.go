package eval

import (
	"sync"
	"sync/atomic"

	"spanners/internal/program"
)

// This file is the enumerator's boundary-emission memo: a bounded,
// hit-counted cache of
//
//	(frontier DState, co-reach DState) → boundary emission choices
//
// keyed on interned lazy-DFA states, so equality is pointer identity
// instead of bitset comparison. boundaryEmissionsProg — the dominant
// per-position cost of Enumerate/Count/streaming — is a pure
// function of the surviving frontier and the co-reachable set, and
// on real documents the same pair recurs at position after position
// (a^n makes every interior boundary identical; log-like corpora
// repeat per record). The memo follows the flush-on-budget
// discipline of program/dfa.go: when full, drop everything and
// rebuild from the live walk.
//
// Interning ties keys to DFA cache generations: after a DFA budget
// flush the same frontier re-interns to a fresh pointer, so stale
// entries simply stop being reachable and age out at the next memo
// flush — they can never alias a different frontier, because a
// DState's identity never outlives its bits.

// DefaultBoundaryMemoBudget bounds the entry count of one engine's
// boundary-emission memo.
var DefaultBoundaryMemoBudget = 4096

// BoundaryMemoStats is a point-in-time snapshot of one engine's
// boundary-emission memo.
type BoundaryMemoStats struct {
	Size      int    `json:"size"`
	Budget    int    `json:"budget"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Flushes   uint64 `json:"flushes"`
}

// bmKey is the interned-pair key of one memo entry.
type bmKey struct {
	set *program.DState
	co  *program.DState
}

// boundaryMemo is the bounded cache. Safe for concurrent use; the
// cached emission slices are shared read-only with every walk.
type boundaryMemo struct {
	mu      sync.Mutex
	entries map[bmKey][]progEmission
	budget  int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	flushes   atomic.Uint64
}

func newBoundaryMemo(budget int) *boundaryMemo {
	if budget < 1 {
		budget = 1
	}
	return &boundaryMemo{
		entries: make(map[bmKey][]progEmission),
		budget:  budget,
	}
}

func (m *boundaryMemo) lookup(k bmKey) ([]progEmission, bool) {
	m.mu.Lock()
	v, ok := m.entries[k]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

func (m *boundaryMemo) store(k bmKey, v []progEmission) {
	m.mu.Lock()
	if len(m.entries) >= m.budget {
		m.evictions.Add(uint64(len(m.entries)))
		m.flushes.Add(1)
		m.entries = make(map[bmKey][]progEmission, m.budget)
	}
	m.entries[k] = v
	m.mu.Unlock()
}

func (m *boundaryMemo) stats() BoundaryMemoStats {
	m.mu.Lock()
	size := len(m.entries)
	m.mu.Unlock()
	return BoundaryMemoStats{
		Size:      size,
		Budget:    m.budget,
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Flushes:   m.flushes.Load(),
	}
}

// bmCtx is one walk's view of the memo: the co-reach frontier of
// every boundary of the walk's window interned once up front, a reusable key scratch, and
// an unlocked walk-local cache in front of the shared memo. Walks
// are single-goroutine, so the local tier costs neither mutex nor
// atomics — the dominant expense of the shared tier under profiling.
// The outer key is the co-reach state pointer (shared by every
// position with the same co-reach frontier), so the local tier gets
// the same cross-position hit rate as the shared one.
type bmCtx struct {
	e       *Engine
	memo    *boundaryMemo
	co      []*program.DState
	scratch []byte
	local   map[*program.DState]map[string][]progEmission
	hits    uint64
}

// newBMCtx interns a window's co-reach frontiers and returns the walk
// context, or nil when memoization is off (no DFA to intern through,
// or ForceNoBoundaryMemo) — the walk then computes emissions directly.
func (e *Engine) newBMCtx(co []program.Bits) *bmCtx {
	if !e.DFAEnabled() || e.nomemo {
		return nil
	}
	c := &bmCtx{
		e:     e,
		memo:  e.boundaryMemo(),
		co:    make([]*program.DState, len(co)),
		local: map[*program.DState]map[string][]progEmission{},
	}
	for i, b := range co {
		c.co[i], c.scratch = e.dfa.StateScratch(b, c.scratch)
	}
	return c
}

// emissions is the memoized boundaryEmissionsProg at the i-th
// boundary of the window: key the set's bits against that boundary's
// interned co-reach state and consult the walk-local tier, then the
// shared memo, before computing. The returned slice is shared and
// must not be mutated.
func (c *bmCtx) emissions(set program.Bits, i int) []progEmission {
	co := c.co[i]
	c.scratch = set.AppendKey(c.scratch[:0])
	inner := c.local[co]
	if v, ok := inner[string(c.scratch)]; ok {
		c.hits++
		return v
	}
	// Walk-local miss: intern the set and go through the shared memo
	// (StateScratch leaves the set's key bytes in the scratch).
	var ss *program.DState
	ss, c.scratch = c.e.dfa.StateScratch(set, c.scratch)
	k := bmKey{set: ss, co: co}
	v, ok := c.memo.lookup(k)
	if !ok {
		v = c.e.boundaryEmissionsProg(ss.Frontier(), co.Frontier())
		c.memo.store(k, v)
	}
	if inner == nil {
		inner = map[string][]progEmission{}
		c.local[co] = inner
	}
	inner[string(c.scratch)] = v
	return v
}

// done folds the walk-local hit count into the shared memo's
// counters; local hits are shared-memo hits that skipped the lock.
// Safe on a nil context.
func (c *bmCtx) done() {
	if c != nil && c.hits != 0 {
		c.memo.hits.Add(c.hits)
	}
}
