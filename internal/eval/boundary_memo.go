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
// instead of bitset comparison. boundaryEmissionsProg — which the
// walk's sweep resolves at every node of its DAG — is a pure
// function of the surviving frontier and the co-reachable set, and
// on real documents the same pair recurs at node after node (a^n
// makes every interior boundary identical; log-like corpora repeat
// per record). The memo follows the flush-on-budget
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

// emissions is the memoized boundaryEmissionsProg for an interned
// frontier and co-reach pair, each choice's states interned so the
// walk steps them through the DFA. The returned slice is shared and
// must not be mutated.
func (m *boundaryMemo) emissions(e *Engine, k bmKey) []progEmission {
	v, ok := m.lookup(k)
	if !ok {
		v = e.boundaryEmissionsProg(k.set.Frontier(), k.co.Frontier(), new(emArena))
		for i := range v {
			v[i].st = e.dfa.State(v[i].states)
		}
		m.store(k, v)
	}
	return v
}
