package eval

import (
	"sort"
	"strconv"
	"strings"

	"spanners/internal/span"
	"spanners/internal/va"
)

// enumerateSequential streams ⟦A⟧_d for a sequential automaton by
// walking the document once per output branch: at every boundary the
// automaton's reachable state set is split by the set of variable
// operations fired there, and the DFS branches on that choice. Two
// properties of sequential automata make this both correct and
// output-efficient:
//
//   - every path from the start state is a valid run prefix, so a
//     branch never has to re-check variable discipline; and
//   - the permissive co-reachability index is exact, so a branch is
//     pruned the moment it cannot reach acceptance — every surviving
//     branch produces at least one output, giving delay O(|d|·|δ|)
//     between outputs without the Eval-oracle probing of Algorithm 2.
//
// A mapping is exactly the sequence of boundary operation sets, so
// distinct branches produce distinct mappings and no deduplication is
// needed. Outputs are emitted in deterministic order (boundary sets
// in canonical order at each position).
//
// bwd is the co-reach sweep (backwardReach), run by the caller so it
// can be timed as its own stage.
func (e *Engine) enumerateSequential(d *span.Document, bwd [][]bool, yield func(span.Mapping) bool) {
	n := d.Len()

	// opAt records one fired operation for mapping reconstruction.
	type opAt struct {
		tok opToken
		pos int
	}
	var fired []opAt

	emit := func() bool {
		m := make(span.Mapping)
		opens := map[span.Var]int{}
		for _, f := range fired {
			if f.tok.open {
				opens[f.tok.v] = f.pos
			} else {
				m[f.tok.v] = span.Span{Start: opens[f.tok.v], End: f.pos}
			}
		}
		return yield(m)
	}

	start := make([]bool, e.a.NumStates)
	start[e.a.Start] = true

	var dfs func(set []bool, pos int) bool
	dfs = func(set []bool, pos int) bool {
		for _, ch := range e.boundaryEmissions(set, bwd[pos]) {
			if pos == n+1 {
				if !containsFinalState(e.a, ch.states) {
					continue
				}
				for _, t := range ch.ops {
					fired = append(fired, opAt{t, pos})
				}
				ok := emit()
				fired = fired[:len(fired)-len(ch.ops)]
				if !ok {
					return false
				}
				continue
			}
			next := e.letterAdvance(ch.states, d.RuneAt(pos), bwd[pos+1])
			if next == nil {
				continue
			}
			for _, t := range ch.ops {
				fired = append(fired, opAt{t, pos})
			}
			ok := dfs(next, pos+1)
			fired = fired[:len(fired)-len(ch.ops)]
			if !ok {
				return false
			}
		}
		return true
	}
	dfs(start, 1)
}

// emission is one boundary choice: the operation set fired (sorted
// canonically) and the states reachable having fired exactly it.
type emission struct {
	ops    []opToken
	states []bool
}

// boundaryEmissions enumerates the distinct operation sets firable
// from the state set at one boundary, via a (state, mask) BFS over
// the boundary's operation universe. States not co-reachable (per
// coReach) are dropped; choices whose state set dies are omitted.
func (e *Engine) boundaryEmissions(set []bool, coReach []bool) []emission {
	adj := e.a.Adj()

	// The boundary universe: operation labels on transitions of the
	// automaton. Collect lazily from reachable states.
	universe := make([]opToken, 0, 4)
	bit := map[opToken]int{}

	type cfg struct {
		q    int
		mask int
	}
	seen := map[cfg]bool{}
	var queue []cfg
	for q := range set {
		if set[q] && coReach[q] {
			c := cfg{q, 0}
			seen[c] = true
			queue = append(queue, c)
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, ti := range adj[c.q] {
			t := e.a.Trans[ti]
			var next cfg
			switch t.Kind {
			case va.Eps:
				next = cfg{t.To, c.mask}
			case va.Open, va.Close:
				tok := opToken{open: t.Kind == va.Open, v: t.Var}
				b, ok := bit[tok]
				if !ok {
					b = len(universe)
					if b >= 30 {
						continue // defensive cap; sequential automata stay tiny here
					}
					bit[tok] = b
					universe = append(universe, tok)
				}
				if c.mask&(1<<b) != 0 {
					continue // an operation fires at most once per run
				}
				next = cfg{t.To, c.mask | 1<<b}
			default:
				continue
			}
			if !coReach[next.q] {
				continue
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}

	byMask := map[int][]bool{}
	for c := range seen {
		s := byMask[c.mask]
		if s == nil {
			s = make([]bool, e.a.NumStates)
			byMask[c.mask] = s
		}
		s[c.q] = true
	}
	masks := make([]int, 0, len(byMask))
	for m := range byMask {
		masks = append(masks, m)
	}
	// Canonical order: operation-firing choices before the do-nothing
	// choice (so outputs come out in document order), then by op-set
	// key so enumeration is deterministic.
	keyOf := func(m int) string {
		k := ""
		toks := make([]string, 0, 2)
		for i, t := range universe {
			if m&(1<<i) != 0 {
				s := "c"
				if t.open {
					s = "o"
				}
				toks = append(toks, s+string(t.v))
			}
		}
		sort.Strings(toks)
		for _, t := range toks {
			k += t + ";"
		}
		return k
	}
	sort.Slice(masks, func(i, j int) bool {
		if (masks[i] == 0) != (masks[j] == 0) {
			return masks[j] == 0
		}
		return keyOf(masks[i]) < keyOf(masks[j])
	})

	out := make([]emission, 0, len(masks))
	for _, m := range masks {
		ops := make([]opToken, 0, 2)
		for i, t := range universe {
			if m&(1<<i) != 0 {
				ops = append(ops, t)
			}
		}
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].v != ops[j].v {
				return ops[i].v < ops[j].v
			}
			return ops[i].open && !ops[j].open
		})
		out = append(out, emission{ops: ops, states: byMask[m]})
	}
	return out
}

// Count returns |⟦A⟧_d|, the number of distinct output mappings. For
// sequential automata it runs a memoized dynamic program over
// (state set, position) configurations of the enumeration tree —
// branches of the tree correspond bijectively to mappings, so the
// count needs no materialization and is typically far cheaper than
// enumerating (spanner counting is a well-studied problem in its own
// right). Non-sequential automata fall back to counting via
// enumeration.
func (e *Engine) Count(d *span.Document) int {
	if !e.sequential {
		n := 0
		e.EnumerateTuples(d, nil, func([]span.Span) bool { n++; return true })
		return n
	}
	if e.Compiled() {
		return e.countProg(d)
	}
	nDoc := d.Len()
	bwd := e.backwardReach(d)
	memo := map[string]int{}
	encode := func(set []bool, pos int) string {
		var b strings.Builder
		b.WriteString(strconv.Itoa(pos))
		for q, in := range set {
			if in {
				b.WriteByte(':')
				b.WriteString(strconv.Itoa(q))
			}
		}
		return b.String()
	}
	var count func(set []bool, pos int) int
	count = func(set []bool, pos int) int {
		key := encode(set, pos)
		if c, ok := memo[key]; ok {
			return c
		}
		total := 0
		for _, ch := range e.boundaryEmissions(set, bwd[pos]) {
			if pos == nDoc+1 {
				if containsFinalState(e.a, ch.states) {
					total++
				}
				continue
			}
			next := e.letterAdvance(ch.states, d.RuneAt(pos), bwd[pos+1])
			if next != nil {
				total += count(next, pos+1)
			}
		}
		memo[key] = total
		return total
	}
	start := make([]bool, e.a.NumStates)
	start[e.a.Start] = true
	return count(start, 1)
}

// letterAdvance moves a state set across one letter, pruning by
// co-reachability; nil means the branch died.
func (e *Engine) letterAdvance(set []bool, r rune, coReach []bool) []bool {
	adj := e.a.Adj()
	next := make([]bool, e.a.NumStates)
	any := false
	for q := range set {
		if !set[q] {
			continue
		}
		for _, ti := range adj[q] {
			t := e.a.Trans[ti]
			if t.Kind == va.Letter && t.Class.Contains(r) && coReach[t.To] {
				next[t.To] = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return next
}

func containsFinalState(a *va.VA, set []bool) bool {
	for _, f := range a.Finals {
		if set[f] {
			return true
		}
	}
	return false
}
