// Package spanners is a complete implementation of document spanners
// for extracting incomplete information, after Maturana, Riveros and
// Vrgoč (PODS 2018). It provides:
//
//   - variable regex (RGX) — regular expressions with capture
//     variables x{…} — under the paper's mapping semantics, so
//     missing or optional document parts yield partial mappings
//     instead of forcing every variable to match;
//   - variable-set automata (VA) with the full algebra (union,
//     projection, join), determinization, and conversions to and from
//     RGX;
//   - extraction rules (conjunctions of span regular expressions)
//     with the instantiated-variable semantics, the tree-like/dag-like
//     hierarchy, and all the rewriting theorems of the paper;
//   - the evaluation problems: Eval with partial constraints,
//     model checking, non-emptiness, and polynomial-delay enumeration
//     (polynomial for the sequential fragment, as in Theorem 5.7);
//   - static analysis: satisfiability and containment, including the
//     PTIME fragment of deterministic sequential point-disjoint
//     automata.
//
// The quickest route in:
//
//	s := spanners.MustCompile(`Seller: x{[^,\n]*},[^\n]*\n`)
//	doc := spanners.NewDocument(csvText)
//	for _, m := range s.ExtractAll(doc) {
//		fmt.Println(doc.Content(m["x"]))
//	}
package spanners

import (
	"context"
	"fmt"

	"spanners/internal/eval"
	"spanners/internal/obs"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/static"
	"spanners/internal/va"
)

// Re-exported core types: spans are 1-based (start, end) regions of a
// document, mappings are partial functions from variables to spans.
type (
	// Span is a document region (Start, End), content d[Start..End-1].
	Span = span.Span
	// Var is an extraction variable.
	Var = span.Var
	// Mapping is a partial function from variables to spans.
	Mapping = span.Mapping
	// Document is an input string with rune-based positions.
	Document = span.Document
	// MappingSet is a deduplicated set of mappings.
	MappingSet = span.Set
)

func init() {
	eval.SpannerEngine = func(sp any) *eval.Engine { return sp.(*Spanner).engine }
}

// NewDocument wraps text as a document.
func NewDocument(text string) *Document { return span.NewDocument(text) }

// Sp builds the span (start, end).
func Sp(start, end int) Span { return span.Sp(start, end) }

// Spanner is a compiled document spanner: for each document d it
// defines a set of mappings ⟦S⟧_d. Spanners are immutable and safe
// for concurrent use.
type Spanner struct {
	expr       rgx.Node // nil when built directly from an automaton
	source     string
	algebraSrc bool // source is an algebra expression, not an RGX
	engine     *eval.Engine
}

// Compile parses an RGX expression (the variable regex of Section
// 3.1) and compiles it down to the VA and program layers. The syntax
// is standard regex plus x{…} captures: literals, '.', classes [a-z]
// and [^…], alternation '|', repetition '*' '+' '?', grouping, and
// escapes (\n, \t, \d, \w, \s, \uXXXX, and \ before metacharacters).
func Compile(expr string) (*Spanner, error) {
	n, err := rgx.Parse(expr)
	if err != nil {
		return nil, err
	}
	return &Spanner{expr: n, source: expr, engine: eval.CompileRGX(n)}, nil
}

// MustCompile is Compile that panics on error, for constants.
func MustCompile(expr string) *Spanner {
	s, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return s
}

// FromAutomaton wraps a variable-set automaton as a spanner. The
// automaton is validated and must not be mutated afterwards.
func FromAutomaton(a *va.VA) (*Spanner, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &Spanner{source: "<automaton>", engine: eval.NewEngine(a)}, nil
}

// String returns the source expression (or "<automaton>").
func (s *Spanner) String() string { return s.source }

// WithSource returns a spanner sharing s's compiled engine but
// reporting source from String() and embedding it in MarshalBinary
// output; whether the source is an RGX or an algebra expression is
// carried over from s.
func (s *Spanner) WithSource(source string) *Spanner {
	return &Spanner{expr: s.expr, source: source, algebraSrc: s.algebraSrc, engine: s.engine}
}

// WithAlgebraSource is WithSource for compositions: the source is
// recorded as a spanner-algebra expression, and the mark survives
// MarshalBinary / LoadCompiledSpanner (envelope flag bit 1), so a
// registry holding the artifact knows to rebuild it by replanning the
// expression rather than compiling it as an RGX. The distinction
// cannot be inferred from the text — a canonical algebra expression
// is also a syntactically valid RGX.
func (s *Spanner) WithAlgebraSource(source string) *Spanner {
	return &Spanner{expr: s.expr, source: source, algebraSrc: true, engine: s.engine}
}

// AlgebraSource reports whether String() is a spanner-algebra
// expression (set by WithAlgebraSource, persisted through
// serialization) rather than an RGX.
func (s *Spanner) AlgebraSource() bool { return s.algebraSrc }

// Expr returns the parsed RGX syntax tree, or nil for automaton-built
// spanners.
func (s *Spanner) Expr() rgx.Node { return s.expr }

// Automaton returns the underlying variable-set automaton, or nil
// for spanners loaded from a serialized artifact (LoadCompiledSpanner)
// — those carry only the compiled program.
func (s *Spanner) Automaton() *va.VA { return s.engine.Automaton() }

// Vars returns the variables the spanner can assign, sorted.
func (s *Spanner) Vars() []Var { return s.engine.Vars() }

// Sequential reports whether evaluation uses the PTIME algorithm of
// Theorem 5.7 (true) or the FPT fallback (false). Sequential spanners
// enumerate with polynomial delay.
func (s *Spanner) Sequential() bool { return s.engine.Sequential() }

// Compiled reports whether the spanner executes a compiled program
// (the flat ε-free instruction tables of internal/program) rather
// than interpreting automaton transitions. Compilation is rejected
// only for automata beyond the program's variable or size budgets.
func (s *Spanner) Compiled() bool { return s.engine.Compiled() }

// ProgramStats describes the compiled execution artifact backing a
// spanner. When Compiled is false the engine interprets the automaton
// directly and the remaining fields are zero.
type ProgramStats struct {
	// Compiled is false when program compilation was rejected and the
	// interpreted fallback runs instead.
	Compiled bool `json:"compiled"`
	// Sequential selects between the PTIME engine (Theorem 5.7) and
	// the FPT fallback (Theorem 5.10).
	Sequential bool `json:"sequential"`
	// States and Classes size the dense dispatch tables: program
	// states × rune equivalence classes.
	States  int `json:"states"`
	Classes int `json:"classes"`
	// Vars and OpEdges size the bit-packed variable operation tables.
	Vars    int `json:"vars"`
	OpEdges int `json:"op_edges"`
	// CompileNS is the time spent lowering the automaton.
	CompileNS int64 `json:"compile_ns"`
}

// ProgramStats returns the compiled-program statistics of the spanner.
func (s *Spanner) ProgramStats() ProgramStats {
	ps, ok := s.engine.ProgramStats()
	if !ok {
		return ProgramStats{Sequential: s.engine.Sequential()}
	}
	return ProgramStats{
		Compiled:   true,
		Sequential: s.engine.Sequential(),
		States:     ps.States,
		Classes:    ps.Classes,
		Vars:       ps.Vars,
		OpEdges:    ps.OpEdges,
		CompileNS:  ps.CompileNS,
	}
}

// DFAStats is a snapshot of the lazy-DFA transition cache layered
// over a spanner's compiled program: the memoized (frontier bitset,
// rune class) → frontier table built on demand during evaluation.
// Because the cache belongs to the program and programs are shared
// (service caches, registry decodes), spanners compiled from the same
// artifact report the same cache — CacheID identifies it so
// aggregators can deduplicate.
type DFAStats struct {
	// Enabled is false for spanners running the interpreted fallback,
	// which have no program to determinize.
	Enabled bool `json:"enabled"`
	// CacheID is the process-unique identity of the shared cache.
	CacheID uint64 `json:"cache_id,omitempty"`
	// States counts resident determinized states and Layers the
	// enumeration walk's interned layers; Budget bounds the two
	// together.
	States int `json:"states"`
	Layers int `json:"layers"`
	Budget int `json:"budget"`
	// Hits and Misses count memoized-transition lookups. Evictions
	// counts states dropped by budget flushes, Flushes those flushes,
	// and Fallbacks document sweeps that abandoned the cache for plain
	// bitset stepping after repeated flushing.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Flushes   uint64 `json:"flushes"`
	Fallbacks uint64 `json:"fallbacks"`
	// PrefilterPrunes is always 0.
	//
	// Deprecated: evaluation has no required-literal prefilter; every
	// document is decided by the automaton's sweeps.
	PrefilterPrunes uint64 `json:"prefilter_prunes"`
}

// BoundaryMemoStats is the zero-valued result of the deprecated
// Spanner.BoundaryMemoStats.
//
// Deprecated: the enumerator has no boundary-emission memo; boundary
// choices are cached on the lazy DFA's states (see DFAStats).
type BoundaryMemoStats struct {
	Enabled   bool   `json:"enabled"`
	Size      int    `json:"size"`
	Budget    int    `json:"budget"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Flushes   uint64 `json:"flushes"`
}

// BoundaryMemoStats returns the zero value.
//
// Deprecated: the enumerator has no boundary-emission memo; boundary
// choices are cached on the lazy DFA's states (see DFAStats).
func (s *Spanner) BoundaryMemoStats() BoundaryMemoStats { return BoundaryMemoStats{} }

// DFAStats returns the counters of the spanner's lazy-DFA cache.
func (s *Spanner) DFAStats() DFAStats {
	st, ok := s.engine.DFAStats()
	if !ok {
		return DFAStats{}
	}
	return DFAStats{
		Enabled:   true,
		CacheID:   st.ID,
		States:    st.States,
		Layers:    st.Layers,
		Budget:    st.Budget,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Flushes:   st.Flushes,
		Fallbacks: st.Fallbacks,
	}
}

// Functional reports whether the expression is functional in the
// sense of Fagin et al.: every output assigns exactly Vars().
// Automaton-built spanners report false.
func (s *Spanner) Functional() bool {
	return s.expr != nil && rgx.IsFunctional(s.expr)
}

// Matches reports whether the spanner outputs at least one mapping on
// d (the NonEmp problem).
func (s *Spanner) Matches(d *Document) bool { return s.engine.NonEmpty(d) }

// ModelCheck reports whether m itself (exactly, with every other
// variable unassigned) is an output on d — the ModelCheck problem of
// Table 2, tractable even where Eval is not.
func (s *Spanner) ModelCheck(d *Document, m Mapping) bool {
	return s.engine.ModelCheck(d, m)
}

// Extendable decides the Eval problem: can the partial constraints be
// extended to an output mapping? Constrain variables with
// WithSpan/WithUnassigned on a Constraints value.
func (s *Spanner) Extendable(d *Document, c Constraints) bool {
	return s.engine.Eval(d, span.Extended(c))
}

// Enumerate streams every output mapping on d to yield in a
// deterministic order, stopping early when yield returns false. On a
// sequential spanner it first sweeps d backwards once, in time linear
// in |d|, and then emits with polynomial delay, as Theorems 5.1 and
// 5.7 bound it: the forward sweep runs only as far as the next mapping
// needs, so stopping after k mappings costs the prefix they read, and
// all of them together cost one forward sweep plus the output.
func (s *Spanner) Enumerate(d *Document, yield func(Mapping) bool) {
	s.engine.Enumerate(d, yield)
}

// EnumerateContext is Enumerate with cancellation: the stream stops
// as soon as ctx is done, and the context error is returned. ctx is
// consulted before each output, so on a sequential spanner a
// cancellation waits at most for Enumerate's backward sweep of d, then
// for one delay: the stretch of the forward sweep up to the next
// mapping. A nil error means
// enumeration ran to completion or yield stopped it — a cancellation
// that never interrupted delivery is not reported.
func (s *Spanner) EnumerateContext(ctx context.Context, d *Document, yield func(Mapping) bool) error {
	var err error
	s.engine.Enumerate(d, func(m Mapping) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		return yield(m)
	})
	return err
}

// EnumerateObserved is EnumerateContext with instrumentation: the
// observer (if non-nil) receives one Stage callback per completed
// pipeline phase — the sweep/enumerate taxonomy of internal/obs — and
// one Delay callback per emitted mapping carrying the time since the
// previous emission (the first sample measures time-to-first-result).
// Passing a nil observer makes it exactly EnumerateContext.
//
// Like every Enumerate form it builds one Mapping per output from the
// engine's internal span tuple, so yield may retain it. The extraction
// service reaches the same observed enumeration without the map: it
// encodes each tuple straight to the wire, and its delays land in the
// histograms served on /v1/metrics.
func (s *Spanner) EnumerateObserved(ctx context.Context, d *Document, o *obs.StageObserver, yield func(Mapping) bool) error {
	var err error
	s.engine.EnumerateObserved(d, o, func(m Mapping) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		return yield(m)
	})
	return err
}

// Stream returns a channel carrying every output mapping on d in
// enumeration order. The channel is closed when enumeration finishes
// or ctx is cancelled. On a sequential spanner the first mapping
// arrives after the backward sweep of d and the forward sweep up to
// it, and the rest with polynomial delay — long before the full output
// set is materialized. Callers that stop
// receiving before the channel closes must cancel ctx, or the
// producer goroutine blocks forever on the abandoned channel.
func (s *Spanner) Stream(ctx context.Context, d *Document) <-chan Mapping {
	out := make(chan Mapping)
	go func() {
		defer close(out)
		s.engine.Enumerate(d, func(m Mapping) bool {
			select {
			case out <- m:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return out
}

// ExtractAll collects every output mapping in enumeration order. The
// result can be large: prefer Enumerate for streaming.
func (s *Spanner) ExtractAll(d *Document) []Mapping {
	var out []Mapping
	s.engine.Enumerate(d, func(m Mapping) bool {
		out = append(out, m)
		return true
	})
	return out
}

// Count returns the number of output mappings on d without
// materializing them: for sequential spanners it counts the paths of
// the DAG that Enumerate's sweep builds, so it costs that linear sweep
// and none of the mappings.
func (s *Spanner) Count(d *Document) int { return s.engine.Count(d) }

// First returns the first output mapping in enumeration order. On a
// sequential spanner it costs the backward sweep of d and the forward
// sweep up to that mapping, not the whole enumeration's forward sweep.
func (s *Spanner) First(d *Document) (Mapping, bool) {
	var out Mapping
	found := false
	s.engine.Enumerate(d, func(m Mapping) bool {
		out, found = m, true
		return false
	})
	return out, found
}

// ProgramFingerprint returns the FNV-64 fingerprint of the compiled
// program backing the spanner — the identity under which incremental
// document sessions are keyed — or 0 for interpreted spanners, which
// have no program.
func (s *Spanner) ProgramFingerprint() uint64 {
	if !s.engine.Compiled() {
		return 0
	}
	return s.engine.Program().Fingerprint()
}

// Incremental is a stateful extraction session over one mutable
// document: it holds the full ordered result set of the last
// extraction plus per-block frontier snapshots, and Splice updates
// both by resweeping only the neighbourhood of the edit until the
// frontiers re-converge with the cached run (the dynamic-complexity
// observation of Freydenberger & Thompson 2019). After any sequence
// of edits, Each/Mappings return exactly what a from-scratch
// extraction of the current document would, in the same order.
//
// Offsets are rune positions, like spans. A session is not safe for
// concurrent use.
type Incremental struct {
	inc *eval.IncState
}

// IncrementalStats are the cumulative counters of a session.
type IncrementalStats struct {
	// FullRuns counts from-scratch extractions (the initial build);
	// Splices the incremental edits applied since.
	FullRuns int64 `json:"full_runs"`
	Splices  int64 `json:"splices"`
	// FwdSteps/BwdSteps total the positions reswept across all edits —
	// the incremental cost, to be compared against documents × length.
	FwdSteps int64 `json:"fwd_steps"`
	BwdSteps int64 `json:"bwd_steps"`
	// Reused counts cached mappings carried over (verbatim or
	// offset-shifted); Recomputed those re-derived by window walks.
	Reused     int64 `json:"reused"`
	Recomputed int64 `json:"recomputed"`
}

// SpliceStats reports what one Splice call actually did: how far the
// two resweeps ran before re-converging with the cached frontiers,
// the dirty window that was re-walked, and how the new result set
// decomposes into reused and recomputed mappings. The Recomputed
// mappings occupy positions [ReusedLeft, ReusedLeft+Recomputed) of
// the post-splice result order, which is how followers isolate "new"
// outputs after an append.
type SpliceStats struct {
	FwdSteps    int `json:"fwd_steps"`
	BwdSteps    int `json:"bwd_steps"`
	WindowStart int `json:"window_start"`
	WindowEnd   int `json:"window_end"` // 0: the window ran to document end
	ReusedLeft  int `json:"reused_left"`
	ReusedRight int `json:"reused_right"`
	Recomputed  int `json:"recomputed"`
}

// Incremental opens an incremental session on text, running one full
// extraction to seed the caches. The second result is false when the
// spanner cannot maintain results incrementally — only compiled
// sequential spanners can — in which case callers re-extract from
// scratch per edit.
func (s *Spanner) Incremental(text string) (*Incremental, bool) {
	inc, ok := eval.NewIncremental(s.engine, span.NewDocument(text))
	if !ok {
		return nil, false
	}
	return &Incremental{inc: inc}, true
}

// Text returns the session's current document text.
func (i *Incremental) Text() string { return i.inc.Doc().Text() }

// Document returns the session's current document.
func (i *Incremental) Document() *Document { return i.inc.Doc() }

// MappingCount returns the size of the current result set.
func (i *Incremental) MappingCount() int { return i.inc.Len() }

// Splice replaces del runes at 0-based rune offset off with ins and
// incrementally updates the result set. It returns what the update
// cost and reused; an out-of-range splice returns an error and leaves
// the session untouched.
func (i *Incremental) Splice(off, del int, ins string) (SpliceStats, error) {
	r, err := i.inc.Splice(off, del, ins)
	if err != nil {
		return SpliceStats{}, err
	}
	return SpliceStats{
		FwdSteps:    r.FwdSteps,
		BwdSteps:    r.BwdSteps,
		WindowStart: r.WindowStart,
		WindowEnd:   r.WindowEnd,
		ReusedLeft:  r.ReusedLeft,
		ReusedRight: r.ReusedRight,
		Recomputed:  r.Recomputed,
	}, nil
}

// Append splices text onto the end of the document — the follow-mode
// edit, whose cost scales with the appended suffix rather than the
// document.
func (i *Incremental) Append(text string) (SpliceStats, error) {
	return i.Splice(i.inc.Doc().Len(), 0, text)
}

// Each yields the current mappings in enumeration order (the empty
// mapping, when present, comes last), stopping early when yield
// returns false. The session caches its results as span tuples; each
// yielded map is built for the call and may be retained.
func (i *Incremental) Each(yield func(Mapping) bool) { i.inc.Each(yield) }

// Mappings returns independent copies of the current result set in
// enumeration order.
func (i *Incremental) Mappings() []Mapping { return i.inc.Mappings() }

// Stats returns the session's cumulative counters.
func (i *Incremental) Stats() IncrementalStats {
	st := i.inc.Stats()
	return IncrementalStats{
		FullRuns:   st.FullRuns,
		Splices:    st.Splices,
		FwdSteps:   st.FwdSteps,
		BwdSteps:   st.BwdSteps,
		Reused:     st.Reused,
		Recomputed: st.Recomputed,
	}
}

// MemoryBytes estimates the memory the session owns (result set,
// frontier snapshots, and a non-ASCII document's rune slice), the unit
// of the document store's byte budget. The document text is not
// counted: a store shares it with its sessions and charges it once.
func (i *Incremental) MemoryBytes() int { return i.inc.MemoryBytes() }

// Constraints is a partial assignment used by Extendable: each
// constrained variable is pinned to a span or forbidden (⊥).
type Constraints span.Extended

// NewConstraints returns an empty constraint set.
func NewConstraints() Constraints { return Constraints{} }

// WithSpan pins x to s.
func (c Constraints) WithSpan(x Var, s Span) Constraints {
	out := span.Extended(c).With(x, span.Assigned(s))
	return Constraints(out)
}

// WithUnassigned forbids assigning x.
func (c Constraints) WithUnassigned(x Var) Constraints {
	out := span.Extended(c).With(x, span.Unassigned())
	return Constraints(out)
}

// Union returns the spanner whose outputs are the union of both
// spanners' outputs (Theorem 4.5: variable automata are closed under
// union, at linear size). Like every algebra operation, it composes
// through the operands' automata: spanners loaded from serialized
// artifacts (LoadCompiledSpanner) carry none and must be recompiled
// from String() first.
func Union(a, b *Spanner) *Spanner {
	u := va.Union(a.Automaton(), b.Automaton())
	return &Spanner{source: fmt.Sprintf("(%s) ∪ (%s)", a, b), engine: eval.NewEngine(u)}
}

// Project restricts outputs to the given variables (Theorem 4.5:
// closure under projection, exponential only in the dropped
// variables).
func Project(s *Spanner, keep ...Var) *Spanner {
	p := va.Project(s.Automaton(), keep)
	return &Spanner{source: fmt.Sprintf("π%v(%s)", keep, s), engine: eval.NewEngine(p)}
}

// Join combines compatible outputs of both spanners (Theorem 4.5);
// it can express non-hierarchical overlaps that no single RGX can.
// The construction is worst-case exponential in the shared variables.
func Join(a, b *Spanner) *Spanner {
	j := va.Join(a.Automaton(), b.Automaton())
	return &Spanner{source: fmt.Sprintf("(%s) ⋈ (%s)", a, b), engine: eval.NewEngine(j)}
}

// Difference returns the spanner outputting exactly the mappings of a
// that b does not output, compared as partial mappings. Difference is
// the algebra operator Peterfreund, Kimelfeld, Freydenberger & Kröll
// (2019) treat separately: it requires complementing (hence
// determinizing) the right operand, which is worst-case exponential
// and breaks the polynomial-delay guarantee the other operators keep.
// budget bounds that determinization's work (<= 0 means
// DefaultDifferenceBudget); on exhaustion the error wraps
// va.ErrBudget and no spanner is built.
func Difference(a, b *Spanner, budget int) (*Spanner, error) {
	d, err := va.Difference(a.Automaton(), b.Automaton(), budget)
	if err != nil {
		return nil, err
	}
	return &Spanner{source: fmt.Sprintf("(%s) ∖ (%s)", a, b), engine: eval.NewEngine(d)}, nil
}

// DefaultDifferenceBudget is the default state budget for Difference.
const DefaultDifferenceBudget = va.DefaultDifferenceBudget

// Determinize returns an equivalent deterministic spanner
// (Proposition 6.5); the automaton can be exponentially larger.
func Determinize(s *Spanner) *Spanner {
	d := va.Determinize(s.Automaton())
	return &Spanner{source: fmt.Sprintf("det(%s)", s), engine: eval.NewEngine(d)}
}

// Sequentialize rewrites an expression-based spanner into an
// equivalent sequential one (Proposition 5.6), enabling the PTIME
// evaluation path. The rewriting is worst-case exponential; budget
// caps it (use DefaultBudget).
func Sequentialize(s *Spanner, budget int) (*Spanner, error) {
	if s.expr == nil {
		return nil, fmt.Errorf("spanners: Sequentialize requires an expression-based spanner")
	}
	n, err := rgx.Sequentialize(s.expr, budget)
	if err != nil {
		return nil, err
	}
	return &Spanner{expr: n, source: n.String(), engine: eval.CompileRGX(n)}, nil
}

// DefaultBudget bounds the worst-case-exponential rewritings.
const DefaultBudget = rgx.DefaultDecomposeBudget

// Satisfiable reports whether some document makes the spanner output
// anything (Theorems 6.1/6.2; polynomial for sequential spanners).
func Satisfiable(s *Spanner) bool { return static.Satisfiable(s.Automaton()) }

// Witness returns a document on which the spanner produces output.
func Witness(s *Spanner) (*Document, bool) {
	return static.WitnessDocument(s.Automaton())
}

// Counterexample separates two spanners: a document and a mapping the
// left one outputs and the right one does not.
type Counterexample = static.Counterexample

// Contained decides ⟦a⟧_d ⊆ ⟦b⟧_d for every document (Theorem 6.4).
// The check is complete but worst-case exponential (the problem is
// PSPACE-complete); a counterexample is returned when containment
// fails.
func Contained(a, b *Spanner) (bool, *Counterexample) {
	return static.Contained(a.Automaton(), b.Automaton())
}

// ContainedDetSeq is the PTIME containment check for deterministic
// sequential point-disjoint spanners (Theorem 6.7); it returns an
// error when the preconditions fail.
func ContainedDetSeq(a, b *Spanner) (bool, error) {
	return static.ContainedDetSeq(a.Automaton(), b.Automaton())
}

// Equivalent checks two-way containment.
func Equivalent(a, b *Spanner) bool {
	return static.Equivalent(a.Automaton(), b.Automaton())
}
