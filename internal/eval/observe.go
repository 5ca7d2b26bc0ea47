package eval

import (
	"slices"
	"time"

	"spanners/internal/obs"
	"spanners/internal/span"
)

// The result path carries an output as a tuple, the paper's partial
// mapping over a fixed variable set: one span per column of
// Engine.Columns, with the zero Span standing for ⊥ (positions start at
// 1, so no real span is zero). The walker fills one reused tuple per
// output and the service encodes it straight to the wire; span.Mapping
// maps are built only at the public API edge (Enumerate,
// EnumerateObserved, IncState.Each).

// SpannerEngine returns the engine behind a *spanners.Spanner. Package
// spanners sets it at init, so the service reaches the tuple path
// without the public API growing an accessor.
var SpannerEngine func(sp any) *Engine

// Columns returns the engine's column list: the variables a tuple
// holds spans for, sorted by name. Callers must not modify it.
func (e *Engine) Columns() []span.Var { return e.cols }

// EnumerateTuples streams ⟦A⟧_d as tuples over Columns — same strategy
// selection, same mapping set, same order as Enumerate — until yield
// returns false. The tuple is reused: yield must not retain it. It
// reports instrumentation through o: one Stage callback per completed
// pipeline phase (co-reach-sweep / enumerate on the sequential walk;
// eval / forward-sweep / co-reach-sweep / candidate-sweep / enumerate
// on the filtered fallback) and one Delay callback per emitted mapping
// with the time since the previous emission. The first delay sample
// measures time-to-first-result, including the preparatory sweeps —
// that is the delay a streaming client actually experiences, and the
// quantity the polynomial-delay bound of Theorems 5.1/5.7 speaks
// about.
//
// This is the engine's one strategy switch; a nil observer reads no
// clock at all. The compiled walk fills the tuple itself; the
// interpreted and filtered strategies convert at their yield point.
func (e *Engine) EnumerateTuples(d *span.Document, o *obs.StageObserver, yield func(t []span.Span) bool) {
	var clk *stageClock
	if o != nil && o.Stage != nil {
		clk = &stageClock{stage: o.Stage, last: time.Now()}
	}
	if o != nil && o.Delay != nil {
		inner := yield
		last := time.Now()
		yield = func(t []span.Span) bool {
			now := time.Now()
			o.Delay(now.Sub(last))
			last = now
			return inner(t)
		}
	}

	switch {
	case !e.sequential:
		e.enumerateFiltered(d, clk, e.viaTuple(yield))
	case !e.Compiled():
		bwd := e.backwardReach(d)
		clk.mark(obs.StageCoReachSweep)
		e.enumerateSequential(d, bwd, e.viaTuple(yield))
		clk.mark(obs.StageEnumerate)
	default:
		w := e.newSeqWalk(d, 1, d.Len()+1, nil)
		clk.mark(obs.StageCoReachSweep)
		w.run(e.start, yield)
		clk.mark(obs.StageEnumerate)
	}
}

// EnumerateObserved is EnumerateTuples yielding each output as a
// freshly built span.Mapping, for the public API.
func (e *Engine) EnumerateObserved(d *span.Document, o *obs.StageObserver, yield func(span.Mapping) bool) {
	e.EnumerateTuples(d, o, func(t []span.Span) bool { return yield(tupleMapping(e.cols, t)) })
}

// viaTuple adapts a tuple yield to the strategies that build maps: each
// mapping is copied into one reused tuple over Columns.
func (e *Engine) viaTuple(yield func([]span.Span) bool) func(span.Mapping) bool {
	t := make([]span.Span, len(e.cols))
	return func(m span.Mapping) bool {
		clear(t)
		for v, sp := range m {
			i, _ := slices.BinarySearch(e.cols, v)
			t[i] = sp
		}
		return yield(t)
	}
}

// tupleMapping builds the mapping of a tuple over cols.
func tupleMapping(cols []span.Var, t []span.Span) span.Mapping {
	n := 0
	for _, sp := range t {
		if sp != (span.Span{}) {
			n++
		}
	}
	m := make(span.Mapping, n)
	for i, sp := range t {
		if sp != (span.Span{}) {
			m[cols[i]] = sp
		}
	}
	return m
}

// stageClock reports pipeline phases to an observer's Stage callback.
// Adjacent stages share one clock reading — the end of a stage is the
// start of the next — and a nil clock is the unobserved path: mark
// does nothing.
type stageClock struct {
	stage func(string, time.Duration)
	last  time.Time
}

// mark ends the stage that began at the previous mark.
func (c *stageClock) mark(name string) {
	if c == nil {
		return
	}
	now := time.Now()
	c.stage(name, now.Sub(c.last))
	c.last = now
}
