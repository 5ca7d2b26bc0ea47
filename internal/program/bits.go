package program

import (
	"math/bits"
)

// Bits is a fixed-width bitset over dense state ids, the frontier
// representation of the compiled execution core: NFA-style simulation
// becomes word-wide ORs instead of per-state map traffic.
type Bits []uint64

// NewBits returns an all-zero bitset able to hold n bits.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (b Bits) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Clear zeroes the bitset in place.
func (b Bits) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// Or sets b |= o, reporting whether b changed.
func (b Bits) Or(o Bits) bool {
	changed := false
	for i, w := range o {
		if nw := b[i] | w; nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

// And sets b &= o.
func (b Bits) And(o Bits) {
	for i := range b {
		b[i] &= o[i]
	}
}

// CopyFrom overwrites b with o.
func (b Bits) CopyFrom(o Bits) { copy(b, o) }

// Clone returns an independent copy.
func (b Bits) Clone() Bits { return append(Bits(nil), b...) }

// Any reports whether any bit is set.
func (b Bits) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Intersects reports whether b ∩ o ≠ ∅.
func (b Bits) Intersects(o Bits) bool {
	for i, w := range b {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}

// Fold returns the OR of b's words: bit i&63 of it is set for every
// set bit i of b. Bitsets that intersect have folds that intersect; for
// bitsets of one word the converse holds too.
func (b Bits) Fold() uint64 {
	var f uint64
	for _, w := range b {
		f |= w
	}
	return f
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f on every set bit in increasing order.
func (b Bits) ForEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Key returns the bitset's raw words as a string, usable as a map key
// for memoization without per-bit formatting.
func (b Bits) Key() string {
	return string(b.AppendKey(make([]byte, 0, len(b)*8)))
}

// AppendKey appends the raw-word key bytes to buf and returns it —
// the allocation-free form of Key for lookup paths that reuse a
// scratch buffer (map lookups via string(buf) do not allocate).
func (b Bits) AppendKey(buf []byte) []byte {
	for _, w := range b {
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return buf
}
