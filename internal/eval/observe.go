package eval

import (
	"time"

	"spanners/internal/obs"
	"spanners/internal/span"
)

// EnumerateObserved streams ⟦A⟧_d exactly like Enumerate — same
// strategy selection, same mapping set, same order — while reporting
// instrumentation through o: one Stage callback per completed pipeline
// phase (co-reach-sweep / enumerate on the sequential walk; eval /
// forward-sweep / co-reach-sweep / candidate-sweep / enumerate on the
// filtered fallback) and one Delay callback per emitted mapping with
// the time since the previous emission. The first delay sample
// measures time-to-first-result, including the preparatory sweeps —
// that is the delay a streaming client actually experiences, and the
// quantity the polynomial-delay bound of Theorems 5.1/5.7 speaks
// about.
//
// This is the engine's one strategy switch: Enumerate is the call with
// a nil observer, which reads no clock at all.
func (e *Engine) EnumerateObserved(d *span.Document, o *obs.StageObserver, yield func(span.Mapping) bool) {
	var clk *stageClock
	if o != nil && o.Stage != nil {
		clk = &stageClock{stage: o.Stage, last: time.Now()}
	}
	if o != nil && o.Delay != nil {
		inner := yield
		last := time.Now()
		yield = func(m span.Mapping) bool {
			now := time.Now()
			o.Delay(now.Sub(last))
			last = now
			return inner(m)
		}
	}

	switch {
	case !e.sequential:
		e.enumerateFiltered(d, clk, yield)
	case !e.Compiled():
		bwd := e.backwardReach(d)
		clk.mark(obs.StageCoReachSweep)
		e.enumerateSequential(d, bwd, yield)
		clk.mark(obs.StageEnumerate)
	case e.prefilterRejects(d):
		clk.mark(obs.StageCoReachSweep)
	default:
		co := e.backwardReachProg(d)
		clk.mark(obs.StageCoReachSweep)
		w := e.newSeqWalk(d, 1, d.Len()+1, co, false)
		w.run(e.startSet(), func(fired []firedOp) bool { return yield(e.mappingOf(fired)) })
		clk.mark(obs.StageEnumerate)
	}
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
