package eval

import (
	"sort"

	"spanners/internal/span"
	"spanners/internal/va"
)

// candidateSpans computes, for each variable, an over-approximation
// of the spans any output mapping can assign it: pairs (i, j) such
// that some letter-consistent path opens the variable at position i
// and closes it at position j. Enumeration then probes only these
// candidates with the Eval oracle instead of all O(|d|²) spans, which
// turns Algorithm 2 from "polynomial" into "practical" — the oracle
// still validates every candidate, so the filter cannot change the
// output set, only skip provably impossible spans.
//
// The filter treats variable operations permissively (any operation
// may fire regardless of discipline), so it is sound for sequential
// and non-sequential automata alike.
//
// This is the interpreted filter, walking va.Transition slices over
// the forward and backward reachability sweeps (fwd[pos][state]:
// reachable from the start; bwd[pos][state]: final reachable from
// here); candidateSpansProg in compiled.go is the program-backed
// equivalent.
func (e *Engine) candidateSpans(d *span.Document, fwd, bwd [][]bool) map[span.Var][]span.Span {
	n := d.Len()
	adj := e.a.Adj()
	out := make(map[span.Var][]span.Span, len(e.vars))
	for _, x := range e.vars {
		seen := map[span.Span]bool{}
		for _, t := range e.a.Trans {
			if t.Kind != va.Open || t.Var != x {
				continue
			}
			for pos := 1; pos <= n+1; pos++ {
				if !fwd[pos][t.From] {
					continue
				}
				// Scan forward from the open, recording positions
				// where a close of x can fire on a surviving path.
				frontier := make([]bool, e.a.NumStates)
				frontier[t.To] = true
				for p := pos; p <= n+1; p++ {
					closeNoLetter(e.a, adj, frontier)
					for _, t2 := range e.a.Trans {
						if t2.Kind == va.Close && t2.Var == x &&
							frontier[t2.From] && bwd[p][t2.To] {
							seen[span.Span{Start: pos, End: p}] = true
						}
					}
					if p == n+1 {
						break
					}
					next := make([]bool, e.a.NumStates)
					r := d.RuneAt(p)
					any := false
					for q := 0; q < e.a.NumStates; q++ {
						if !frontier[q] {
							continue
						}
						for _, ti := range adj[q] {
							tt := e.a.Trans[ti]
							if tt.Kind == va.Letter && tt.Class.Contains(r) {
								next[tt.To] = true
								any = true
							}
						}
					}
					if !any {
						break
					}
					frontier = next
				}
			}
		}
		spans := make([]span.Span, 0, len(seen))
		for s := range seen {
			spans = append(spans, s)
		}
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End < spans[j].End
		})
		out[x] = spans
	}
	return out
}

// forwardReach computes, for every position, the states reachable
// from the start reading the document prefix, with all variable
// operations treated as ε (a permissive over-approximation).
func (e *Engine) forwardReach(d *span.Document) [][]bool {
	n := d.Len()
	adj := e.a.Adj()
	out := make([][]bool, n+2)
	cur := make([]bool, e.a.NumStates)
	cur[e.a.Start] = true
	for pos := 1; pos <= n+1; pos++ {
		closeNoLetter(e.a, adj, cur)
		out[pos] = cur
		if pos == n+1 {
			break
		}
		next := make([]bool, e.a.NumStates)
		r := d.RuneAt(pos)
		for q := 0; q < e.a.NumStates; q++ {
			if !cur[q] {
				continue
			}
			for _, ti := range adj[q] {
				t := e.a.Trans[ti]
				if t.Kind == va.Letter && t.Class.Contains(r) {
					next[t.To] = true
				}
			}
		}
		cur = next
	}
	return out
}

// backwardReach computes, for every position, the states from which a
// final state is reachable reading the document suffix, operations
// again treated as ε.
func (e *Engine) backwardReach(d *span.Document) [][]bool {
	n := d.Len()
	radj := make([][]int, e.a.NumStates)
	for i, t := range e.a.Trans {
		radj[t.To] = append(radj[t.To], i)
	}
	closeBack := func(set []bool) {
		stack := []int{}
		for q := range set {
			if set[q] {
				stack = append(stack, q)
			}
		}
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ti := range radj[q] {
				t := e.a.Trans[ti]
				if t.Kind != va.Letter && !set[t.From] {
					set[t.From] = true
					stack = append(stack, t.From)
				}
			}
		}
	}
	out := make([][]bool, n+2)
	cur := make([]bool, e.a.NumStates)
	for _, f := range e.a.Finals {
		cur[f] = true
	}
	closeBack(cur)
	out[n+1] = cur
	for pos := n; pos >= 1; pos-- {
		prev := make([]bool, e.a.NumStates)
		r := d.RuneAt(pos)
		for _, t := range e.a.Trans {
			if t.Kind == va.Letter && cur[t.To] && t.Class.Contains(r) {
				prev[t.From] = true
			}
		}
		closeBack(prev)
		out[pos] = prev
		cur = prev
	}
	return out
}

// closeNoLetter saturates a state set under ε and variable-operation
// transitions in place.
func closeNoLetter(a *va.VA, adj [][]int, set []bool) {
	stack := []int{}
	for q := range set {
		if set[q] {
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ti := range adj[q] {
			t := a.Trans[ti]
			if t.Kind != va.Letter && !set[t.To] {
				set[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
}
