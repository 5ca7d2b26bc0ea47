package program

import (
	"sort"
	"strings"
)

// This file is the required-literal prefilter: a program-level
// analysis that finds the literal chains of the compiled tables and
// keeps the mandatory ones as a per-spanner set of literals, compiled
// into a multi-literal absence scanner.
//
// A literal chain is a maximal chain q0 → q1 → … → qk of letter steps
// in which every state but qk has exactly one outgoing letter class
// with exactly one successor and no variable operation, and no state
// strictly inside is accepting: the compiled form of a literal substring
// ("Seller: ", a log prefix, a DNA motif) when every class along it
// contains exactly one ASCII rune. Such a chain is *required* when its
// head q0 is unavoidable: every path from the start state to an
// accepting state — over letter edges of any class and over
// variable-operation edges — passes through the head. Since the head
// is operation-free, non-final, and has the chain as its only
// continuation, any accepting run of the automaton must read the
// literal somewhere in the document. Contrapositive: a document not
// containing every required literal has an empty spanner result, for
// every candidate mapping µ — so Eval, Enumerate, and Count can all
// reject it with a handful of memchr-backed substring scans and never
// touch the DFA.
//
// The analysis is a pure function of the compiled dispatch tables,
// so a decoded (registry-warmed) program derives exactly the same
// literal set as a freshly compiled one — the property the registry
// round-trip check asserts.

// maxPrefilterLiterals caps the scanner's literal set; beyond it the
// longest literals win (longer needles are rarer and make
// strings.Contains skip further).
const maxPrefilterLiterals = 8

// maxPrefilterStates bounds the per-run unavoidability BFS; programs
// beyond it skip the analysis (compile time stays linear-ish).
const maxPrefilterStates = 1 << 12

// maxChainLen caps the length of one literal chain, bounding the
// scan.
const maxChainLen = 64

// minPrefilterLiteralLen is the shortest literal worth scanning for:
// single bytes are usually too dense to prune anything.
const minPrefilterLiteralLen = 2

// Prefilter is the compiled required-literal scanner of one program.
// Every literal in the set must occur in any document the spanner
// matches with any mapping; the zero set is represented by a nil
// *Prefilter. Immutable and safe for concurrent use.
type Prefilter struct {
	literals []string // longest first
	probes   []int    // per literal: offset of its rarest byte
}

// Prefilter returns the program's required-literal scanner, derived
// on first use, or nil when the analysis found no usable literal.
// The result is shared; equal programs (compiled or decoded) derive
// equal literal sets.
func (p *Program) Prefilter() *Prefilter {
	p.prefOnce.Do(func() { p.pref = buildPrefilter(p) })
	return p.pref
}

// Literals returns the required literals, longest first. The slice
// is a copy; the literals themselves are pure ASCII.
func (pf *Prefilter) Literals() []string {
	if pf == nil {
		return nil
	}
	return append([]string(nil), pf.literals...)
}

// AllPresent reports whether every required literal occurs in text.
// False means the spanner's result on the document is empty — no
// mapping, no count, no match — regardless of constraints. Each
// literal is found by probing for its statically rarest byte with
// strings.IndexByte (a memchr-grade scan) and verifying the window
// around each hit, so common first bytes like 'e' or ' ' don't drag
// the search into a false-start compare per occurrence. ASCII
// needles make the byte-level scan exact on UTF-8 text.
func (pf *Prefilter) AllPresent(text string) bool {
	for i, l := range pf.literals {
		if !containsProbe(text, l, pf.probes[i]) {
			return false
		}
	}
	return true
}

// containsProbe is strings.Contains anchored on the needle byte at
// offset off: IndexByte hops between probe occurrences, each verified
// with one window compare.
func containsProbe(text, lit string, off int) bool {
	probe := lit[off]
	for k := 0; k < len(text); {
		j := strings.IndexByte(text[k:], probe)
		if j < 0 {
			return false
		}
		start := k + j - off
		if start >= 0 && start+len(lit) <= len(text) && text[start:start+len(lit)] == lit {
			return true
		}
		k += j + 1
	}
	return false
}

// byteRank scores how common a byte is in typical text and log
// corpora; lower is rarer. Rough tiers suffice — the probe byte only
// needs to stay out of the high-frequency tier, so a literal like
// "eller: " probes on ':' instead of 'e'.
func byteRank(b byte) int {
	switch {
	case strings.IndexByte("etaoinsrhl ", b) >= 0:
		return 3
	case 'a' <= b && b <= 'z' || b == '\n' || b == '\t':
		return 2
	case '0' <= b && b <= '9' || 'A' <= b && b <= 'Z':
		return 1
	default:
		return 0
	}
}

// rarestByte returns the offset of the literal's rarest byte; ties
// break toward the earliest occurrence.
func rarestByte(lit string) int {
	best := 0
	for i := 1; i < len(lit); i++ {
		if byteRank(lit[i]) < byteRank(lit[best]) {
			best = i
		}
	}
	return best
}

// buildPrefilter runs the required-literal analysis.
func buildPrefilter(p *Program) *Prefilter {
	if p.NumStates > maxPrefilterStates {
		return nil
	}
	byteOf := concreteClassBytes(p)

	var lits []string
	for q, chain := range literalChains(p) {
		if chain == nil || p.Final.Has(q) {
			// A final head lets an accepting run end before reading
			// the literal, so the literal is not mandatory.
			continue
		}
		buf := make([]byte, 0, len(chain))
		concrete := true
		for _, c := range chain {
			b := byteOf[c]
			if b < 0 {
				concrete = false
				break
			}
			buf = append(buf, byte(b))
		}
		if !concrete || len(buf) < minPrefilterLiteralLen {
			continue
		}
		if !p.unavoidable(q) {
			continue
		}
		lits = append(lits, string(buf))
	}
	lits = normalizeLiterals(lits)
	if len(lits) == 0 {
		return nil
	}
	probes := make([]int, len(lits))
	for i, l := range lits {
		probes[i] = rarestByte(l)
	}
	return &Prefilter{literals: lits, probes: probes}
}

// literalChains returns, for every state q, the class sequence of the
// literal chain q heads, nil when q has operations, more than one exit,
// or a chain shorter than two letters.
func literalChains(p *Program) [][]uint16 {
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
				seen = 2 // multiple successors: not a chain link
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

	chains := make([][]uint16, p.NumStates)
	for q := 0; q < p.NumStates; q++ {
		if out[q].class < 0 || p.HasOps.Has(q) {
			continue
		}
		classes := []uint16{uint16(out[q].class)}
		cur := out[q].to
		onChain := map[int32]bool{int32(q): true, cur: true}
		for len(classes) < maxChainLen && interior(cur) && !onChain[out[cur].to] {
			classes = append(classes, uint16(out[cur].class))
			cur = out[cur].to
			onChain[cur] = true
		}
		if len(classes) >= 2 {
			chains[q] = classes
		}
	}
	return chains
}

// concreteClassBytes maps each rune class to its single ASCII byte,
// or -1 when the class contains more than one rune or any non-ASCII
// rune. Only singleton classes denote a fixed document byte.
func concreteClassBytes(p *Program) []int16 {
	byteOf := make([]int16, p.NumClasses)
	width := make([]int64, p.NumClasses)
	for i := range byteOf {
		byteOf[i] = -1
	}
	for i := range p.lo {
		c := p.cls[i]
		width[c] += int64(p.hi[i]-p.lo[i]) + 1
		if width[c] == 1 && p.lo[i] < 128 {
			byteOf[c] = int16(p.lo[i])
		} else {
			byteOf[c] = -1
		}
	}
	return byteOf
}

// unavoidable reports whether every start→final path of the program
// graph passes through state q: BFS from the start over all letter
// and op edges with q removed; q is unavoidable iff no accepting
// state remains reachable. (If q is the start itself nothing is
// reachable without it.)
func (p *Program) unavoidable(q int) bool {
	if p.Start == q {
		return true // every path begins at q
	}
	seen := NewBits(p.NumStates)
	seen.Set(p.Start)
	stack := []int32{int32(p.Start)}
	push := func(t int32) {
		if int(t) != q && !seen.Has(int(t)) {
			seen.Set(int(t))
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		s := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for c := 0; c < p.NumClasses; c++ {
			p.Succ(s, c).ForEach(func(t int) { push(int32(t)) })
		}
		for _, e := range p.OpsFrom(s) {
			push(e.To)
		}
	}
	return !seen.Intersects(p.Final)
}

// normalizeLiterals sorts longest-first, drops duplicates and
// literals contained in a longer kept literal (their presence is
// implied), and applies the scanner cap.
func normalizeLiterals(lits []string) []string {
	sort.Slice(lits, func(i, j int) bool {
		if len(lits[i]) != len(lits[j]) {
			return len(lits[i]) > len(lits[j])
		}
		return lits[i] < lits[j]
	})
	kept := lits[:0]
	for _, l := range lits {
		implied := false
		for _, k := range kept {
			if strings.Contains(k, l) {
				implied = true
				break
			}
		}
		if !implied {
			kept = append(kept, l)
		}
		if len(kept) == maxPrefilterLiterals {
			break
		}
	}
	return kept
}
