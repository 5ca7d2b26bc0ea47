package eval

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"spanners/internal/program"
	"spanners/internal/span"
)

// Incremental re-extraction under document edits, the engine half of
// the dynamic-complexity line (Freydenberger & Thompson 2019): instead
// of restarting the sequential enumerator from byte 0 on every splice,
// an IncState caches per-block frontier snapshots from the previous
// run and the full ordered result list, and a splice only resweeps the
// region around the edit until the frontiers re-converge with the
// cached run.
//
// Four frontiers are tracked per snapshotted boundary p:
//
//	f0[p]  states reachable from Start via letters only (no ops < p)
//	f1[p]  states reachable firing ≥1 variable op at boundaries < p
//	b0[p]  states that reach Final via letters only (no ops ≥ p)
//	b1[p]  states from which Final is reachable firing ≥1 op at ≥ p
//
// f0/b0 are exact run sets; f1/b1 are path-based over-approximations
// (they ignore the fire-at-most-once structure of sequential runs),
// which is sound for everything they are used for. The two facts the
// algorithm rests on:
//
//  1. Crossing check: if f1[P] ∩ b1[P] = ∅ then no accepting run
//     fires ops both before and at-or-after boundary P, so every
//     nonempty mapping lies entirely on one side of P.
//  2. Ordering: the enumerator tries op-firing boundary choices
//     before the do-nothing choice ("Emission order",
//     docs/ARCHITECTURE.md), so all mappings whose ops lie below a
//     crossing-free cut A form a contiguous prefix of the ordered
//     output, all mappings at-or-after a crossing-free cut B form a
//     contiguous suffix (before the empty mapping), and the dirty
//     window [A, B) can be re-walked in isolation and concatenated
//     between them.
//
// A splice resumes the forward sweep at the last snapshot before the
// edit and stops as soon as the (f0, f1) pair equals the cached pair
// at a suffix-aligned snapshot (determinism then keeps them equal
// forever); the backward sweep is seeded from the first snapshot past
// the edit — backward frontiers at suffix positions are determined by
// the unchanged suffix text, so they survive the splice verbatim at
// pos+delta — and runs down until it re-converges inside the prefix.
// Cuts that fail to materialize degrade gracefully (A=1, window to
// document end): the result is always exact, only less reused.

// incSnap is one cached frontier snapshot at boundary pos (2 ≤ pos ≤
// n+1; boundary 1 is implicit: f0={Start}, f1=∅).
type incSnap struct {
	pos            int
	f0, f1, b0, b1 program.Bits
}

// incExtent is the extent of one cached mapping's fired ops (min span
// start / max span end), used to split the ordered result list at
// crossing-free cuts.
type incExtent struct {
	minPos, maxPos int
}

// incResults is an ordered list of nonempty mappings: one flat slab of
// tuples over the engine's columns, width spans each, plus one extent
// per tuple.
type incResults struct {
	tuples  []span.Span
	extents []incExtent
}

// add appends tuple t unless it is the empty mapping, reporting
// whether it did.
func (r *incResults) add(t []span.Span) bool {
	ext := incExtent{minPos: int(^uint(0) >> 1)}
	for _, sp := range t {
		if sp == (span.Span{}) {
			continue
		}
		ext.minPos = min(ext.minPos, sp.Start)
		ext.maxPos = max(ext.maxPos, sp.End)
	}
	if ext.maxPos == 0 {
		return false
	}
	r.tuples = append(r.tuples, t...)
	r.extents = append(r.extents, ext)
	return true
}

func (r *incResults) reset() {
	r.tuples, r.extents = r.tuples[:0], r.extents[:0]
}

// IncStats are cumulative counters of an incremental session, surfaced
// through the service's document-store stats.
type IncStats struct {
	FullRuns   int64 // from-scratch extractions (initial build)
	Splices    int64 // incremental edits applied
	FwdSteps   int64 // forward letter steps reswept across all splices
	BwdSteps   int64 // backward letter steps reswept across all splices
	Reused     int64 // cached mappings carried over (shifted or verbatim)
	Recomputed int64 // mappings re-derived by dirty-window walks
}

// SpliceResult reports what one Splice call actually did.
type SpliceResult struct {
	FwdSteps    int // forward letter steps until re-convergence (or end)
	BwdSteps    int // backward letter steps until re-convergence (or start)
	WindowStart int // first boundary of the re-walked dirty window
	WindowEnd   int // one past the window; 0 = window ran to document end
	ReusedLeft  int // cached mappings reused before the window
	ReusedRight int // cached mappings reused (shifted) after the window
	Recomputed  int // mappings emitted by the window walk
}

// IncState is the incremental extraction state for one (document,
// program) pair: the current document, the ordered mapping list of the
// last extraction, and per-block frontier snapshots. It is not safe
// for concurrent use.
type IncState struct {
	e       *Engine
	doc     *span.Document
	blockK  int
	snaps   []incSnap
	spare   []incSnap // rebuildSnaps' scratch for the snapshots past the kept run
	width   int       // spans per tuple: len(e.Columns())
	results incResults
	empty   []span.Span // the empty mapping's tuple
	emptyOK bool        // the empty mapping is in the result set (always last)
	stats   IncStats

	// Splice scratch, reused by every splice: the sweep frontiers, the
	// half snapshots the resweeps recorded (forward pairs in newF,
	// backward pairs in newB, in sweep order), the window walk's output
	// and rebuildSnaps' position list.
	tmp, tmp2              program.Bits
	f0, f1, t0, t1, b0, b1 program.Bits
	newF, newB             []incSnap
	win                    incResults
	positions              []int
}

// incBlockSize picks the snapshot spacing for a document of n symbols:
// ~256 snapshots, clamped so short documents are not over-snapshotted
// and huge ones do not hold O(n) bitsets.
func incBlockSize(n int) int {
	k := n / 256
	if k < 64 {
		k = 64
	}
	if k > 4096 {
		k = 4096
	}
	return k
}

// NewIncremental builds an incremental session over d, running one
// full extraction to seed the caches. The second result is false when
// the engine does not support incremental maintenance (only the
// sequential compiled enumerator does); callers then fall back to full
// re-extraction.
func NewIncremental(e *Engine, d *span.Document) (*IncState, bool) {
	if e == nil || !e.Compiled() || !e.sequential {
		return nil, false
	}
	return newIncremental(e, d, incBlockSize(d.Len())), true
}

// newIncremental is NewIncremental with an explicit snapshot spacing,
// so tests can force edits to span snapshot boundaries.
func newIncremental(e *Engine, d *span.Document, blockK int) *IncState {
	s := &IncState{e: e, doc: d, blockK: blockK, width: len(e.cols)}
	s.empty = make([]span.Span, s.width)
	n := e.prog.NumStates
	for _, b := range []*program.Bits{&s.tmp, &s.tmp2, &s.f0, &s.f1, &s.t0, &s.t1, &s.b0, &s.b1} {
		*b = program.NewBits(n)
	}
	s.rebuild()
	return s
}

// Doc returns the current document.
func (s *IncState) Doc() *span.Document { return s.doc }

// Len returns the number of mappings in the current result set,
// including the empty mapping when present.
func (s *IncState) Len() int {
	n := len(s.results.extents)
	if s.emptyOK {
		n++
	}
	return n
}

// Stats returns the session's cumulative counters.
func (s *IncState) Stats() IncStats { return s.stats }

// EachTuple yields the current mappings as tuples over the engine's
// Columns, in the enumerator's emission order (the empty mapping, when
// present, comes last), and reports whether the walk ran to
// completion. The tuples are borrowed: yield must not retain or modify
// them.
func (s *IncState) EachTuple(yield func(t []span.Span) bool) bool {
	for i := range s.results.extents {
		if !yield(s.results.tuples[i*s.width : (i+1)*s.width : (i+1)*s.width]) {
			return false
		}
	}
	if s.emptyOK {
		return yield(s.empty)
	}
	return true
}

// Each is EachTuple yielding each mapping as a freshly built map.
func (s *IncState) Each(yield func(span.Mapping) bool) bool {
	return s.EachTuple(func(t []span.Span) bool { return yield(tupleMapping(s.e.cols, t)) })
}

// Mappings returns the current result set in emission order.
func (s *IncState) Mappings() []span.Mapping {
	out := make([]span.Mapping, 0, s.Len())
	s.Each(func(m span.Mapping) bool {
		out = append(out, m)
		return true
	})
	return out
}

// Bytes the session charges per cached mapping: one span per column
// plus the mapping's extent.
const (
	incSpanBytes   = 16
	incExtentBytes = 16
)

// MemoryBytes estimates the memory the session owns, used by the
// document store's byte-budget accounting: snapshots, results (the
// window walk's scratch included) and a non-ASCII document's rune
// slice. The document text is not counted; the store shares its text
// with the session and charges it once.
func (s *IncState) MemoryBytes() int {
	words := 0
	if len(s.snaps) > 0 {
		words = len(s.snaps[0].f0)
	}
	b := len(s.snaps) * (4*words*8 + 64)
	b += len(s.results.extents) * (incSpanBytes*s.width + incExtentBytes)
	b += cap(s.win.tuples)*incSpanBytes + cap(s.win.extents)*incExtentBytes
	if s.doc.ASCIIText() == "" {
		b += 4 * s.doc.Len() // a non-ASCII document's rune slice
	}
	return b
}

// bitsEq reports word-wise equality of two same-width bitsets.
func bitsEq(a, b program.Bits) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rStrictInto sets dst to the states from which firing at least one op
// edge (followed by any further ops) reaches a state in src.
func (s *IncState) rStrictInto(src, dst program.Bits) {
	p := s.e.prog
	dst.Clear()
	for i, w := range src {
		for w &= p.RHasOps[i]; w != 0; w &= w - 1 {
			for _, ed := range p.OpsInto(i<<6 + bits.TrailingZeros64(w)) {
				dst.Set(int(ed.To))
			}
		}
	}
	p.ROpClosure(dst)
}

// stepForward advances the (f0, f1) pair across the rune r: ops fire
// at the current boundary (seeding f1 from f0 through at least one op
// edge), then both sets take the letter step.
func (s *IncState) stepForward(f0, f1, d0, d1 program.Bits, r rune) {
	p := s.e.prog
	s.tmp.CopyFrom(f1)
	for i, w := range f0 {
		for w &= p.HasOps[i]; w != 0; w &= w - 1 {
			for _, ed := range p.OpsFrom(i<<6 + bits.TrailingZeros64(w)) {
				s.tmp.Set(int(ed.To))
			}
		}
	}
	p.OpClosure(s.tmp)
	c := p.ClassOf(r)
	for j := range d0 {
		d0[j], d1[j] = stepWord(p, f0, c, j, false), stepWord(p, s.tmp, c, j, false)
	}
}

// stepWord is word j of the letter step of set across class c, forward
// or back (none for c < 0), its union kept in a register.
func stepWord(p *program.Program, set program.Bits, c, j int, back bool) (x uint64) {
	for i, w := range set {
		for ; w != 0 && c >= 0; w &= w - 1 {
			if q := i<<6 + bits.TrailingZeros64(w); back {
				x |= p.Pred(q, c)[j]
			} else {
				x |= p.Succ(q, c)[j]
			}
		}
	}
	return x
}

// stepBackward moves the (b0, b1) pair from boundary p+1 to boundary
// p across the rune r at position p: b0 retreats letters-only; b1 is
// reached either by firing ≥1 op at p before the letter, or by taking
// the letter into a completion that still owes an op.
func (s *IncState) stepBackward(b0, b1, d0, d1 program.Bits, r rune) {
	p := s.e.prog
	c := p.ClassOf(r)
	for j := range d0 {
		d0[j], d1[j] = stepWord(p, b0, c, j, true), stepWord(p, b1, c, j, true)
		// The letter step distributes over union: the step of b0 ∪ b1
		// is d0 ∪ d1.
		s.tmp2[j] = d0[j] | d1[j]
	}
	s.rStrictInto(s.tmp2, s.tmp)
	d1.Or(s.tmp)
}

// rebuild runs a full extraction of the current document and fills the
// snapshot grid from scratch.
func (s *IncState) rebuild() {
	d := s.doc
	s.results.reset()
	s.emptyOK = false
	s.e.EnumerateTuples(d, nil, func(t []span.Span) bool {
		if !s.results.add(t) {
			s.emptyOK = true
		}
		return true
	})
	s.snaps = s.sweepAll(d)
	s.stats.FullRuns++
}

// sweepAll computes forward and backward frontier pairs over the whole
// document, snapshotting every blockK positions.
func (s *IncState) sweepAll(d *span.Document) []incSnap {
	p := s.e.prog
	n := d.Len()
	var snaps []incSnap
	f0 := program.NewBits(p.NumStates)
	f0.Set(p.Start)
	f1 := program.NewBits(p.NumStates)
	t0 := program.NewBits(p.NumStates)
	t1 := program.NewBits(p.NumStates)
	for pos := 1; ; pos++ {
		if pos > 1 && (pos-1)%s.blockK == 0 {
			snaps = append(snaps, incSnap{pos: pos, f0: f0.Clone(), f1: f1.Clone()})
		}
		if pos == n+1 {
			break
		}
		s.stepForward(f0, f1, t0, t1, d.RuneAt(pos))
		f0, t0 = t0, f0
		f1, t1 = t1, f1
	}
	b0 := p.Final.Clone()
	b1 := program.NewBits(p.NumStates)
	s.rStrictInto(p.Final, b1)
	si := len(snaps) - 1
	for pos := n + 1; ; pos-- {
		if si >= 0 && snaps[si].pos == pos {
			snaps[si].b0 = b0.Clone()
			snaps[si].b1 = b1.Clone()
			si--
		}
		if pos == 1 {
			break
		}
		s.stepBackward(b0, b1, t0, t1, d.RuneAt(pos-1))
		b0, t0 = t0, b0
		b1, t1 = t1, b1
	}
	return snaps
}

// Splice applies the edit replacing del symbols at 0-based rune offset
// off with ins, updating the cached result set so that Each/Mappings
// afterwards return exactly what a from-scratch extraction of the new
// document would, in the same order.
func (s *IncState) Splice(off, del int, ins string) (SpliceResult, error) {
	if err := s.checkSplice(off, del); err != nil {
		return SpliceResult{}, err
	}
	return s.SpliceDoc(off, del, s.doc.Splice(off, del, ins))
}

func (s *IncState) checkSplice(off, del int) error {
	if n := s.doc.Len(); off < 0 || del < 0 || off > n || off+del > n {
		return fmt.Errorf("eval: splice [%d,+%d) out of range for document of %d symbols", off, del, n)
	}
	return nil
}

// SpliceDoc is Splice for a caller that has already built the edited
// document (a document store hands out the edited text, and
// span.Document.Edited adopts it): next must be the current document
// with the del symbols at rune offset off replaced by an insert of
// next.Len() - (Doc().Len() - del) symbols. The session adopts next,
// so a splice copies nothing of the document itself.
func (s *IncState) SpliceDoc(off, del int, next *span.Document) (SpliceResult, error) {
	if err := s.checkSplice(off, del); err != nil {
		return SpliceResult{}, err
	}
	p := s.e.prog
	n := s.doc.Len()
	n2 := next.Len()
	if n2 < n-del {
		return SpliceResult{}, fmt.Errorf("eval: edited document of %d symbols is shorter than the %d kept", n2, n-del)
	}
	delta := n2 - n

	prefixEnd := off + 1 // boundaries 1..prefixEnd precede unchanged text
	editEndOld := off + del + 1
	editEndNew := editEndOld + delta

	var res SpliceResult

	// Forward resweep: resume at the last snapshot before the edit and
	// stop at the first suffix-aligned snapshot whose pair matches.
	fi := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].pos > prefixEnd }) - 1
	f0, f1, t0, t1 := s.f0, s.f1, s.t0, s.t1
	fpos := 1
	if fi >= 0 {
		f0.CopyFrom(s.snaps[fi].f0)
		f1.CopyFrom(s.snaps[fi].f1)
		fpos = s.snaps[fi].pos
	} else {
		f0.Clear()
		f1.Clear()
		f0.Set(p.Start)
	}

	s.newF, s.newB = s.newF[:0], s.newB[:0]

	suffixSnapStart := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].pos >= editEndOld })
	oi := suffixSnapStart
	cf, cfIdx := -1, -1
	for pos := fpos; ; pos++ {
		if oi < len(s.snaps) && pos == s.snaps[oi].pos+delta {
			if bitsEq(f0, s.snaps[oi].f0) && bitsEq(f1, s.snaps[oi].f1) {
				cf, cfIdx = pos, oi
				break
			}
			s.newF = append(s.newF, incSnap{pos: pos, f0: f0.Clone(), f1: f1.Clone()})
			oi++
		} else if pos > fpos && (pos-1)%s.blockK == 0 {
			s.newF = append(s.newF, incSnap{pos: pos, f0: f0.Clone(), f1: f1.Clone()})
		}
		if pos == n2+1 {
			break
		}
		s.stepForward(f0, f1, t0, t1, next.RuneAt(pos))
		f0, t0 = t0, f0
		f1, t1 = t1, f1
		res.FwdSteps++
	}
	newEmptyOK := s.emptyOK
	if cf < 0 {
		// Swept to the end without re-converging: the letters-only
		// acceptance is re-derived from the final frontier.
		newEmptyOK = f0.Intersects(p.Final)
	}

	// Backward resweep: backward frontiers at suffix positions survive
	// the splice at pos+delta, so seed from the first snapshot past the
	// edit and sweep down until the pair matches a prefix snapshot.
	b0, b1 := s.b0, s.b1
	var bpos int
	if suffixSnapStart < len(s.snaps) {
		sn := s.snaps[suffixSnapStart]
		b0.CopyFrom(sn.b0)
		b1.CopyFrom(sn.b1)
		bpos = sn.pos + delta
	} else {
		b0.CopyFrom(p.Final)
		s.rStrictInto(p.Final, b1)
		bpos = n2 + 1
	}
	bj := fi
	cb, cbIdx := 0, -1
	for pos := bpos; ; pos-- {
		if bj >= 0 && s.snaps[bj].pos == pos && pos <= prefixEnd {
			if bitsEq(b0, s.snaps[bj].b0) && bitsEq(b1, s.snaps[bj].b1) {
				cb, cbIdx = pos, bj
				break
			}
			s.newB = append(s.newB, incSnap{pos: pos, b0: b0.Clone(), b1: b1.Clone()})
			bj--
		} else if pos < bpos && pos < editEndNew && pos > 1 && (pos-1)%s.blockK == 0 {
			s.newB = append(s.newB, incSnap{pos: pos, b0: b0.Clone(), b1: b1.Clone()})
		}
		if pos == 1 {
			break
		}
		s.stepBackward(b0, b1, t0, t1, next.RuneAt(pos-1))
		b0, t0 = t0, b0
		b1, t1 = t1, b1
		res.BwdSteps++
	}
	// The recorded pairs descend; rebuildSnaps reads both lists upwards.
	slices.Reverse(s.newB)

	// Cut A: the largest converged snapshot at or below cb that no
	// accepting run crosses. Fallback is boundary 1 (f1 there is empty,
	// trivially crossing-free).
	A := 1
	var startSet program.Bits
	for j := cbIdx; j >= 0; j-- {
		sn := s.snaps[j]
		if !sn.f1.Intersects(sn.b1) {
			A = sn.pos
			startSet = sn.f0
			break
		}
	}
	if startSet == nil {
		startSet = s.e.start
	}

	// Cut B: the smallest crossing-free suffix snapshot at or past the
	// forward re-convergence point. Without forward convergence the
	// window runs to the document end.
	B, bOld := 0, 0
	var targetB0 program.Bits
	if cfIdx >= 0 {
		for j := cfIdx; j < len(s.snaps); j++ {
			sn := s.snaps[j]
			if !sn.f1.Intersects(sn.b1) {
				B, bOld = sn.pos+delta, sn.pos
				targetB0 = sn.b0
				break
			}
		}
	}

	// Split the cached ordered results at the cuts: a contiguous prefix
	// of mappings entirely below A, a contiguous suffix entirely at or
	// past bOld, and a middle block replaced by the window walk.
	r := &s.results
	li := sort.Search(len(r.extents), func(i int) bool { return r.extents[i].maxPos >= A })
	ri := len(r.extents)
	if B > 0 {
		ri = li + sort.Search(ri-li, func(i int) bool { return r.extents[li+i].minPos >= bOld })
	}

	w := s.windowWalk(next, A, B, startSet, targetB0)

	// Shift the reused suffix in place (⊥ columns stay zero), then put
	// the window's tuples where the middle block was.
	if delta != 0 {
		for i := ri * s.width; i < len(r.tuples); i++ {
			if sp := &r.tuples[i]; *sp != (span.Span{}) {
				sp.Start += delta
				sp.End += delta
			}
		}
		for i := ri; i < len(r.extents); i++ {
			r.extents[i].minPos += delta
			r.extents[i].maxPos += delta
		}
	}
	r.tuples = slices.Replace(r.tuples, li*s.width, ri*s.width, w.tuples...)
	r.extents = slices.Replace(r.extents, li, ri, w.extents...)

	s.rebuildSnaps(n2, delta, prefixEnd, editEndOld, editEndNew, cf, cb)
	clear(s.newF) // the kept pairs live on in the snapshots
	clear(s.newB)
	s.doc = next
	s.emptyOK = newEmptyOK

	res.WindowStart = A
	res.WindowEnd = B
	res.ReusedLeft = li
	res.ReusedRight = len(r.extents) - (li + len(w.extents))
	res.Recomputed = len(w.extents)
	s.stats.Splices++
	s.stats.FwdSteps += int64(res.FwdSteps)
	s.stats.BwdSteps += int64(res.BwdSteps)
	s.stats.Reused += int64(res.ReusedLeft + res.ReusedRight)
	s.stats.Recomputed += int64(res.Recomputed)
	return res, nil
}

// windowWalk runs the enumerator's walk (walk.go) over the window
// [A, B) of the new document, emitting exactly the nonempty mappings
// whose ops all lie in the window. With B == 0 the window is
// open-ended (to the document end); otherwise B is a cut from which
// completion is letters-only through targetB0, the cached b0 there.
// Emission order is the enumerator's, so the output concatenates
// between the reused prefix and suffix of the cached result list. The
// output is the session's scratch, valid until the next splice.
func (s *IncState) windowWalk(d *span.Document, A, B int, startSet, targetB0 program.Bits) *incResults {
	hi, seed := d.Len()+1, program.Bits(nil)
	if B > 0 {
		hi, seed = B, targetB0
	}
	out := &s.win
	out.reset()
	s.e.newSeqWalk(d, A, hi, seed).run(startSet, func(t []span.Span) bool {
		out.add(t)
		return true
	})
	return out
}

// rebuildSnaps resolves the post-splice snapshot list from three
// sources per position: prefix snapshots survive verbatim, suffix
// snapshots shift by delta (forward pairs only once the sweep
// re-converged at cf, backward pairs unconditionally), and the resweep
// loops recorded fresh pairs in newF/newB. A snapshot is kept only
// when both halves resolved; snapshots that fell inside the edit die.
// The list is updated in place, so a splice near the end of a long
// document does not copy its snapshots.
func (s *IncState) rebuildSnaps(n2, delta, prefixEnd, editEndOld, editEndNew, cf, cb int) {
	// A snapshot before the edit and below the backward re-convergence
	// point survives verbatim: both resweeps record pairs only past it
	// (newF past the last snapshot before the edit, newB from cb up).
	// The cached list is thinned already, so the run of such snapshots
	// stays where it is and the resolution below starts after it.
	keep := 0
	if cb > 0 {
		lim := min(prefixEnd+1, editEndNew, cb)
		keep = sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].pos >= lim })
	}
	out := s.spare[:0]
	positions := s.positions[:0]
	for i := keep; i < len(s.snaps); i++ {
		pos := s.snaps[i].pos
		if pos <= prefixEnd {
			positions = append(positions, pos)
		}
		if pos >= editEndOld {
			positions = append(positions, pos+delta)
		}
	}
	for _, rec := range s.newF {
		positions = append(positions, rec.pos)
	}
	for _, rec := range s.newB {
		positions = append(positions, rec.pos)
	}
	slices.Sort(positions)
	positions = slices.Compact(positions)
	s.positions = positions
	// find looks up the snapshot at boundary pos in list, whose
	// positions ascend. Positions ascend here too, so each lookup moves
	// its cursor forward only: at and shifted walk the cached list at
	// pos and at pos-delta, fAt and bAt the recorded ones.
	at, shifted, fAt, bAt := keep, 0, 0, 0
	find := func(list []incSnap, cursor *int, pos int) (*incSnap, bool) {
		for *cursor < len(list) && list[*cursor].pos < pos {
			*cursor++
		}
		if *cursor < len(list) && list[*cursor].pos == pos {
			return &list[*cursor], true
		}
		return nil, false
	}

	out = slices.Grow(out, len(positions))
	for _, pos := range positions {
		if pos < 2 || pos > n2+1 {
			continue
		}
		var f0, f1, b0, b1 program.Bits
		if pos <= prefixEnd {
			if old, ok := find(s.snaps, &at, pos); ok {
				f0, f1 = old.f0, old.f1
			}
		}
		// The resweeps record fresh pairs only before they re-converge
		// (newF below cf, newB above cb), so the cached pairs past the
		// convergence points are looked up first and the recorded ones
		// only where they can answer.
		if f0 == nil && cf >= 0 && pos >= cf {
			if old, ok := find(s.snaps, &shifted, pos-delta); ok && old.pos >= editEndOld {
				f0, f1 = old.f0, old.f1
			}
		}
		if f0 == nil {
			if rec, ok := find(s.newF, &fAt, pos); ok {
				f0, f1 = rec.f0, rec.f1
			}
		}
		if pos >= editEndNew {
			if old, ok := find(s.snaps, &shifted, pos-delta); ok && old.pos >= editEndOld {
				b0, b1 = old.b0, old.b1
			}
		}
		if b0 == nil && cb > 0 && pos <= cb {
			if old, ok := find(s.snaps, &at, pos); ok {
				b0, b1 = old.b0, old.b1
			}
		}
		if b0 == nil {
			if rec, ok := find(s.newB, &bAt, pos); ok {
				b0, b1 = rec.b0, rec.b1
			}
		}
		if f0 != nil && b0 != nil {
			out = append(out, incSnap{pos: pos, f0: f0, f1: f1, b0: b0, b1: b1})
		}
	}

	n := max(len(s.snaps), keep+len(out))
	s.snaps = append(s.snaps[:keep], out...)
	clear(out)
	s.spare = out[:0]

	// Thin clusters left behind by repeated edits: snapshots are purely
	// accelerative, so halving density only lengthens future resweeps,
	// never changes results.
	if minGap := s.blockK / 2; len(s.snaps) > 1 && minGap > 0 {
		kept := s.snaps[:max(keep, 1)]
		for _, sn := range s.snaps[len(kept):] {
			if sn.pos-kept[len(kept)-1].pos >= minGap {
				kept = append(kept, sn)
			}
		}
		s.snaps = kept
	}
	clear(s.snaps[len(s.snaps):n]) // what the list no longer holds
}
