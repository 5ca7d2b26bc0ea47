package program

// This file is the superinstruction peephole pass over the compiled
// instruction tables. It runs once, at the end of Compile and Decode,
// and derives two execution accelerators from the dense dispatch
// tables — nothing here changes semantics, only how fast the tables
// are walked:
//
//   - an ASCII classification table, so ClassOf is a single array
//     load for the bytes that dominate real documents instead of a
//     binary search over rune ranges;
//
//   - fused letter runs: maximal chains q0 → q1 → … → qk of states
//     whose only outgoing transition is a single letter class to a
//     single successor, with no variable operations and no accepting
//     state strictly inside the chain. Such a chain is the compiled
//     form of a literal substring ("Seller: ", a log prefix, a DNA
//     motif); the lazy DFA executes the whole chain as one
//     superinstruction — compare the next k rune classes against the
//     recorded sequence — instead of k frontier steps.
//
// Soundness of run fusion: a run only fires when the determinized
// frontier is exactly the singleton {q0} after boundary closure.
// Because every chain state has no op edges, the boundary closures
// inside the chain are identities; because the chain states have
// exactly one outgoing class, any rune outside that class kills the
// frontier (reject); and because interior states are non-final, a
// document ending strictly inside the chain rejects too. All three
// outcomes are exactly what per-rune stepping would produce.

// maxRunLen caps the length of one fused run, bounding both the
// peephole pass and the worst-case comparison a single
// superinstruction performs before the engine regains control.
const maxRunLen = 64

// fusedRun is one superinstruction: consume len(classes) runes whose
// equivalence classes match in order, landing in state to.
type fusedRun struct {
	classes []uint16
	to      int32
}

// finishTables derives the execution accelerators from the decoded or
// compiled dispatch tables. It must be called exactly once, before
// the program is published.
func (p *Program) finishTables() {
	// ASCII fast classification.
	for i := range p.asciiClass {
		p.asciiClass[i] = -1
	}
	for i := range p.lo {
		lo, hi := p.lo[i], p.hi[i]
		if lo >= 128 {
			continue
		}
		if hi > 127 {
			hi = 127
		}
		for r := lo; r <= hi; r++ {
			p.asciiClass[r] = int16(p.cls[i])
		}
	}
	p.asciiMask = make([][2]uint64, p.NumClasses)
	for b, c := range p.asciiClass {
		if c >= 0 {
			p.asciiMask[c][b>>6] |= 1 << (uint(b) & 63)
		}
	}
	// Reverse-row slots: 0 for a byte outside the alphabet, c+1 for
	// class c where that fits, and the slot no state fills otherwise.
	for b, c := range p.asciiClass {
		switch {
		case c < 0:
			p.revSlot[b] = 0
		case int(c)+1 < revSlotNone:
			p.revSlot[b] = uint8(c) + 1
		default:
			p.revSlot[b] = revSlotNone
		}
	}

	// Single-exit map: out[q] = (class, successor) when state q has
	// exactly one outgoing letter class and that class has exactly one
	// successor; otherwise class = -1.
	type exit struct {
		class int32
		to    int32
	}
	out := make([]exit, p.NumStates)
	for q := 0; q < p.NumStates; q++ {
		out[q] = exit{class: -1}
		seen := 0
		for c := 0; c < p.NumClasses && seen <= 1; c++ {
			bs := p.delta[q*p.NumClasses+c]
			if !bs.Any() {
				continue
			}
			seen++
			if bs.Count() != 1 {
				seen = 2 // multiple successors: not fusable
				break
			}
			to := -1
			bs.ForEach(func(i int) { to = i })
			out[q] = exit{class: int32(c), to: int32(to)}
		}
		if seen != 1 {
			out[q] = exit{class: -1}
		}
	}

	// interior reports whether the chain may continue through q:
	// single exit, no variable operations, not accepting.
	interior := func(q int32) bool {
		return out[q].class >= 0 && !p.HasOps.Has(int(q)) && !p.Final.Has(int(q))
	}

	// Fused runs. A head must be operation-free (a closed singleton
	// frontier {q} cannot exist otherwise) but may be accepting — the
	// engine checks acceptance before consuming input.
	p.runOf = make([]int32, p.NumStates)
	for q := range p.runOf {
		p.runOf[q] = -1
	}
	for q := 0; q < p.NumStates; q++ {
		if out[q].class < 0 || p.HasOps.Has(q) {
			continue
		}
		classes := []uint16{uint16(out[q].class)}
		cur := out[q].to
		onChain := map[int32]bool{int32(q): true, cur: true}
		for len(classes) < maxRunLen && interior(cur) && !onChain[out[cur].to] {
			classes = append(classes, uint16(out[cur].class))
			cur = out[cur].to
			onChain[cur] = true
		}
		if len(classes) < 2 {
			continue // a single letter step gains nothing from fusion
		}
		p.runOf[q] = int32(len(p.runs))
		p.runs = append(p.runs, fusedRun{classes: classes, to: cur})
	}
	p.stats.FusedRuns = len(p.runs)
}

// FusedRunOf returns the superinstruction starting at state q: the
// rune-class sequence it consumes and the landing state. ok is false
// when no fused run starts at q. The returned slice is shared and
// must not be modified.
func (p *Program) FusedRunOf(q int) (classes []uint16, to int, ok bool) {
	if q < 0 || q >= len(p.runOf) || p.runOf[q] < 0 {
		return nil, 0, false
	}
	r := p.runs[p.runOf[q]]
	return r.classes, int(r.to), true
}
