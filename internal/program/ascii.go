package program

// finishTables derives the ASCII tables from the decoded or compiled
// dispatch tables: a classification table, so ClassOf is a single
// array load for the bytes that dominate real documents instead of a
// binary search over rune ranges; each class's ASCII bytes as a mask;
// and each byte's slot in a state's reverse row (DState.rev). Nothing
// here changes semantics. It must be called exactly once, before the
// program is published.
func (p *Program) finishTables() {
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
}
