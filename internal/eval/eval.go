// Package eval implements the evaluation problems of Section 5 for
// RGX formulas and variable-set automata under the mapping semantics:
//
//   - Eval[L]: given γ, a document d and an extended mapping µ
//     (variables constrained to spans or to ⊥), decide whether some
//     µ' ⊇ µ is in ⟦γ⟧_d,
//   - ModelCheck[L]: decide µ ∈ ⟦γ⟧_d,
//   - NonEmp[L]: decide ⟦γ⟧_d ≠ ∅, and
//   - polynomial-delay enumeration of ⟦γ⟧_d via Eval (Algorithm 2,
//     Theorem 5.1).
//
// Two decision engines back these: for sequential automata the
// PTIME algorithm of Theorem 5.7, which coalesces the constrained
// variable operations into per-boundary obligation sets and then runs
// an NFA-style simulation; for arbitrary automata a reachability over
// (state, per-variable status) configurations that is fixed-parameter
// tractable in the number of variables (Theorem 5.10). The engine
// picks automatically, so Eval is PTIME exactly on the fragments the
// paper proves tractable and degrades gracefully elsewhere.
//
// Both engines execute a compiled form of the automaton by default:
// NewEngine lowers the VA through internal/program into a flat ε-free
// instruction table (dense states, rune equivalence classes,
// bit-packed variable operations, bitset frontiers), and the
// algorithms in compiled.go run on those tables; enumerating,
// counting and re-walking an edited window of a sequential spanner
// are one iterative boundary walk (walk.go). The original
// transition-walking implementations are retained as the fallback for
// automata the compiler rejects (more than program.MaxVars variables,
// oversized dispatch tables) and for differential testing via
// ForceInterpreted.
package eval

import (
	"sort"

	"spanners/internal/obs"
	"spanners/internal/program"
	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

// Engine evaluates one automaton over documents. It is immutable
// after construction and safe for concurrent use.
type Engine struct {
	a          *va.VA
	vars       []span.Var
	varSet     map[span.Var]bool
	sequential bool

	// cols is the tuple column list (Columns): prog.Vars when the
	// program compiled, vars otherwise — both sorted by name.
	cols []span.Var

	// prog is the compiled execution core, nil when compilation was
	// rejected; interpreted forces the pre-compilation paths even when
	// prog exists (ablation and differential testing only).
	prog        *program.Program
	interpreted bool

	// order is the emission order of the compiled walk's boundary
	// choices, derived once from prog.Vars; opFree marks the states
	// from which no letter path reaches an operation; start and coFinal
	// are the frontiers walks start from (walkSeeds, walk.go).
	order          *opOrder
	opFree         program.Bits
	start, coFinal program.Bits

	// dfa is the lazy-DFA transition cache layered over prog — shared
	// with every other engine executing the same program; nodfa forces
	// plain bitset stepping even when the cache exists (the
	// differential-oracle switch mirroring ForceInterpreted).
	dfa   *program.DFA
	nodfa bool
}

// NewEngine wraps an automaton, detecting once whether the sequential
// fast path applies and lowering the automaton into its compiled
// program form. The automaton must not be mutated afterwards.
func NewEngine(a *va.VA) *Engine {
	e := &Engine{
		a:          a,
		vars:       a.Vars(),
		sequential: a.IsSequential(),
	}
	e.varSet = make(map[span.Var]bool, len(e.vars))
	for _, v := range e.vars {
		e.varSet[v] = true
	}
	e.cols = e.vars
	if p, err := program.Compile(a); err == nil {
		e.prog = p
		e.dfa = p.DFA()
		e.order = newOpOrder(p.Vars)
		e.opFree = opFreeStates(p)
		e.start, e.coFinal = walkSeeds(p)
		e.cols = p.Vars
	}
	return e
}

// CompileRGX compiles a variable regex and wraps it in an engine.
func CompileRGX(n rgx.Node) *Engine { return NewEngine(va.FromRGX(n)) }

// FromProgram wraps an already-compiled program — typically decoded
// from a registry artifact — as an engine, skipping the parse →
// decompose → VA-compile pipeline entirely. The engine has no
// automaton: Automaton returns nil, and the interpreted fallbacks are
// unavailable (ForceInterpreted is a no-op), but every evaluation
// path runs, because the compiled algorithms never consult the
// automaton. sequential selects the PTIME engine exactly as
// va.IsSequential would have on the source automaton; callers must
// pass the value recorded when the program was built.
func FromProgram(p *program.Program, sequential bool) *Engine {
	e := &Engine{
		vars:       append([]span.Var(nil), p.Vars...),
		sequential: sequential,
		prog:       p,
		dfa:        p.DFA(),
		order:      newOpOrder(p.Vars),
		opFree:     opFreeStates(p),
	}
	e.start, e.coFinal = walkSeeds(p)
	e.cols = p.Vars
	e.varSet = make(map[span.Var]bool, len(e.vars))
	for _, v := range e.vars {
		e.varSet[v] = true
	}
	return e
}

// Program returns the compiled program the engine executes, or nil
// when compilation was rejected and the engine interprets.
func (e *Engine) Program() *program.Program { return e.prog }

// Automaton returns the underlying automaton.
func (e *Engine) Automaton() *va.VA { return e.a }

// Vars returns the variables the underlying automaton can assign.
func (e *Engine) Vars() []span.Var { return append([]span.Var(nil), e.vars...) }

// Sequential reports whether the engine runs the PTIME algorithm of
// Theorem 5.7 (true) or the FPT fallback of Theorem 5.10 (false).
func (e *Engine) Sequential() bool { return e.sequential }

// ForceFPT downgrades the engine to the general FPT algorithm even on
// sequential automata. It exists for the ablation benchmarks and for
// differential testing of the two engines; production callers should
// never need it.
func (e *Engine) ForceFPT() { e.sequential = false }

// ForceInterpreted downgrades the engine to the pre-compilation,
// transition-walking algorithms even when a compiled program exists.
// It exists for the engine head-to-head benchmarks and for
// differential testing; production callers should never need it. On a
// program-only engine (FromProgram) there is no automaton to
// interpret, so the call is a no-op.
func (e *Engine) ForceInterpreted() {
	if e.a != nil {
		e.interpreted = true
	}
}

// Compiled reports whether evaluation executes the compiled program
// (true) or the interpreted transition-walking fallback (false).
func (e *Engine) Compiled() bool { return e.prog != nil && !e.interpreted }

// ForceNoDFA downgrades the engine to plain bitset stepping even when
// the program's lazy-DFA cache exists. Like ForceInterpreted it is a
// differential-oracle switch for head-to-head benchmarks and
// property tests; production callers should never need it.
func (e *Engine) ForceNoDFA() { e.nodfa = true }

// UseDFA replaces the engine's DFA cache — tests use it to install a
// tiny-budget cache and probe the budget-exhausted fallback boundary.
// It must be called before the engine evaluates anything.
func (e *Engine) UseDFA(d *program.DFA) { e.dfa = d }

// DFAEnabled reports whether evaluation consults the lazy-DFA cache.
func (e *Engine) DFAEnabled() bool { return e.dfa != nil && !e.nodfa && e.Compiled() }

// DFAStats returns the counters of the engine's DFA cache; ok is
// false when the engine has none (interpreted fallback).
func (e *Engine) DFAStats() (program.DFAStats, bool) {
	if e.dfa == nil {
		return program.DFAStats{}, false
	}
	return e.dfa.Stats(), true
}

// ProgramStats returns the compiled program's statistics; ok is false
// when the automaton could not be compiled and the engine interprets.
func (e *Engine) ProgramStats() (program.Stats, bool) {
	if e.prog == nil {
		return program.Stats{}, false
	}
	return e.prog.Stats(), true
}

// Eval decides the Eval[L] problem: does some µ' ⊇ µ belong to
// ⟦A⟧_d? Constraints on variables the automaton cannot assign make
// the answer false when they demand a span and are ignored when they
// demand ⊥.
func (e *Engine) Eval(d *span.Document, mu span.Extended) bool {
	n := d.Len()
	for v, o := range mu {
		if o.Bottom {
			continue
		}
		if !e.varSet[v] {
			return false // demanded span on an unassignable variable
		}
		if !o.Span.Valid(n) {
			return false
		}
	}
	if e.sequential {
		if e.Compiled() {
			return e.evalSeqProg(d, mu)
		}
		return e.evalSequential(d, mu)
	}
	if e.Compiled() {
		return e.evalFPTProg(d, mu)
	}
	return e.evalFPT(d, mu)
}

// NonEmpty decides NonEmp[L]: ⟦A⟧_d ≠ ∅.
func (e *Engine) NonEmpty(d *span.Document) bool {
	return e.Eval(d, span.Extended{})
}

// ModelCheck decides µ ∈ ⟦A⟧_d: the completion must assign exactly
// dom(µ), so every other automaton variable is constrained to ⊥.
func (e *Engine) ModelCheck(d *span.Document, m span.Mapping) bool {
	return e.Eval(d, span.FromMapping(m, e.vars))
}

// opToken identifies a variable operation for boundary bookkeeping.
type opToken struct {
	open bool
	v    span.Var
}

// boundaryOps computes, for each document boundary 1..n+1, the set of
// constrained operations that must fire exactly there.
func boundaryOps(mu span.Extended, n int) ([]map[opToken]bool, bool) {
	t := make([]map[opToken]bool, n+2)
	add := func(b int, tok opToken) {
		if t[b] == nil {
			t[b] = map[opToken]bool{}
		}
		t[b][tok] = true
	}
	for v, o := range mu {
		if o.Bottom {
			continue
		}
		if o.Span.Start < 1 || o.Span.End > n+1 {
			return nil, false
		}
		add(o.Span.Start, opToken{open: true, v: v})
		add(o.Span.End, opToken{open: false, v: v})
	}
	return t, true
}

// evalSequential is the PTIME algorithm of Theorem 5.7. The NFA-style
// simulation carries a set of automaton states across document
// positions; at each boundary it closes the set under ε-transitions,
// operations of unconstrained variables (sound to treat as ε because
// on a sequential automaton every path is a valid run and those
// variables are free to take whatever the run gives them), and the
// boundary's obligation set, counting consumed obligations — on a
// sequential automaton no path repeats an operation, so counting
// |T_b| consumptions means every obligation fired exactly once.
// Operations of ⊥-variables and misplaced constrained operations are
// forbidden.
func (e *Engine) evalSequential(d *span.Document, mu span.Extended) bool {
	n := d.Len()
	tb, ok := boundaryOps(mu, n)
	if !ok {
		return false
	}
	// Mark transitions blocked by the constraints: operations of
	// pinned or ⊥ variables may only fire through an obligation set.
	blocked := make([]bool, len(e.a.Trans))
	for i, t := range e.a.Trans {
		if t.Kind == va.Open || t.Kind == va.Close {
			if _, ok := mu[t.Var]; ok {
				blocked[i] = true
			}
		}
	}

	adj := e.a.Adj()
	nStates := e.a.NumStates
	cur := make([]bool, nStates)
	next := make([]bool, nStates)
	stack := make([]int, 0, nStates)
	cur[e.a.Start] = true

	for pos := 1; pos <= n+1; pos++ {
		if need := tb[pos]; len(need) == 0 {
			// Fast path: saturate under ε and unblocked operations.
			stack = stack[:0]
			for q := 0; q < nStates; q++ {
				if cur[q] {
					stack = append(stack, q)
				}
			}
			for len(stack) > 0 {
				q := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, ti := range adj[q] {
					t := e.a.Trans[ti]
					if t.Kind == va.Letter || blocked[ti] || cur[t.To] {
						continue
					}
					cur[t.To] = true
					stack = append(stack, t.To)
				}
			}
		} else if !e.obligationClosure(cur, need, blocked, adj) {
			return false
		}
		if pos == n+1 {
			break
		}
		r := d.RuneAt(pos)
		for i := range next {
			next[i] = false
		}
		any := false
		for q := 0; q < nStates; q++ {
			if !cur[q] {
				continue
			}
			for _, ti := range adj[q] {
				t := e.a.Trans[ti]
				if t.Kind == va.Letter && t.Class.Contains(r) {
					next[t.To] = true
					any = true
				}
			}
		}
		if !any {
			return false
		}
		cur, next = next, cur
	}
	for _, f := range e.a.Finals {
		if cur[f] {
			return true
		}
	}
	return false
}

// obligationClosure expands the state set (in place) at a boundary
// that must consume exactly the obligation set need: a (state, count)
// BFS, sound by the sequentiality counting argument — no path can
// fire an operation twice, so count == |need| means each obligation
// fired exactly once. It reports whether any state survives.
func (e *Engine) obligationClosure(cur []bool, need map[opToken]bool, blocked []bool, adj [][]int) bool {
	total := len(need)
	nStates := e.a.NumStates
	seen := make([]bool, nStates*(total+1))
	var stack []int
	for q := 0; q < nStates; q++ {
		if cur[q] {
			seen[q*(total+1)] = true
			stack = append(stack, q*(total+1))
		}
	}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		q, count := idx/(total+1), idx%(total+1)
		for _, ti := range adj[q] {
			t := e.a.Trans[ti]
			var nidx int
			switch t.Kind {
			case va.Eps:
				nidx = t.To*(total+1) + count
			case va.Open, va.Close:
				if need[opToken{open: t.Kind == va.Open, v: t.Var}] {
					if count == total {
						continue
					}
					nidx = t.To*(total+1) + count + 1
				} else if blocked[ti] {
					continue
				} else {
					nidx = t.To*(total+1) + count
				}
			default:
				continue
			}
			if !seen[nidx] {
				seen[nidx] = true
				stack = append(stack, nidx)
			}
		}
	}
	any := false
	for q := 0; q < nStates; q++ {
		cur[q] = seen[q*(total+1)+total]
		if cur[q] {
			any = true
		}
	}
	return any
}

// evalFPT is the general algorithm: reachability over configurations
// (state, status vector over the automaton's variables), FPT in the
// number of variables (3^k · |Q| · |d| configurations, Theorem 5.10).
func (e *Engine) evalFPT(d *span.Document, mu span.Extended) bool {
	n := d.Len()
	k := len(e.vars)
	idx := make(map[span.Var]int, k)
	for i, v := range e.vars {
		idx[v] = i
	}

	const (
		stAvail  byte = 0
		stOpen   byte = 1
		stClosed byte = 2
	)

	type vclass int
	const (
		free vclass = iota
		pinned
		bot
	)
	classOf := make([]vclass, k)
	starts := make([]int, k)
	ends := make([]int, k)
	for i, v := range e.vars {
		if o, ok := mu[v]; ok {
			if o.Bottom {
				classOf[i] = bot
			} else {
				classOf[i] = pinned
				starts[i] = o.Span.Start
				ends[i] = o.Span.End
			}
		}
	}

	adj := e.a.Adj()
	type cfg struct {
		q  int
		st string
	}
	start := cfg{e.a.Start, string(make([]byte, k))}
	frontier := map[cfg]bool{start: true}

	// closure expands a frontier at a fixed position pos under ε and
	// operation transitions, respecting each variable's class.
	closure := func(frontier map[cfg]bool, pos int) map[cfg]bool {
		seen := map[cfg]bool{}
		var stack []cfg
		for c := range frontier {
			seen[c] = true
			stack = append(stack, c)
		}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			st := []byte(c.st)
			for _, ti := range adj[c.q] {
				t := e.a.Trans[ti]
				var nc cfg
				switch t.Kind {
				case va.Eps:
					nc = cfg{t.To, c.st}
				case va.Open:
					vi := idx[t.Var]
					if st[vi] != stAvail {
						continue
					}
					if classOf[vi] == pinned && starts[vi] != pos {
						continue
					}
					ns := append([]byte(nil), st...)
					ns[vi] = stOpen
					nc = cfg{t.To, string(ns)}
				case va.Close:
					vi, known := idx[t.Var]
					if !known {
						continue // close of a never-opened variable
					}
					if st[vi] != stOpen {
						continue
					}
					switch classOf[vi] {
					case bot:
						continue // closing would assign a ⊥ variable
					case pinned:
						if ends[vi] != pos {
							continue
						}
					}
					ns := append([]byte(nil), st...)
					ns[vi] = stClosed
					nc = cfg{t.To, string(ns)}
				default:
					continue
				}
				if !seen[nc] {
					seen[nc] = true
					stack = append(stack, nc)
				}
			}
		}
		return seen
	}

	for pos := 1; pos <= n+1; pos++ {
		frontier = closure(frontier, pos)
		if len(frontier) == 0 {
			return false
		}
		if pos == n+1 {
			break
		}
		r := d.RuneAt(pos)
		next := map[cfg]bool{}
		for c := range frontier {
			for _, ti := range adj[c.q] {
				t := e.a.Trans[ti]
				if t.Kind == va.Letter && t.Class.Contains(r) {
					next[cfg{t.To, c.st}] = true
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return false
		}
	}

	for c := range frontier {
		if !e.a.IsFinal(c.q) {
			continue
		}
		ok := true
		for vi := 0; vi < k; vi++ {
			s := c.st[vi]
			if classOf[vi] == pinned && byte(s) != stClosed {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Enumerate streams every mapping of ⟦A⟧_d to yield, stopping early
// if yield returns false, with polynomial delay whenever the paper
// proves it possible (Theorem 5.1 + 5.7). Three strategies exist:
//
//   - sequential automata use a direct branch-per-boundary walk whose
//     every branch provably yields output — on the compiled program a
//     DFS emits the branches from a DAG that one forward sweep, linear
//     in |d|, builds only as far as the next emission needs, after a
//     co-reach sweep (walk.go), so the delay is polynomial and a caller
//     that stops early pays for the prefix it read; the interpreted
//     walk, beyond 32 variables, has delay O(|d|·|δ|);
//   - other automata fall back to EnumerateFiltered, Algorithm 2 with
//     a reachability prefilter on candidate spans;
//   - EnumerateOracle is the paper's Algorithm 2 verbatim, kept for
//     the ablation benchmarks.
//
// All three emit the same mapping set; orders differ between the
// direct and oracle strategies but each is deterministic. Each yielded
// map is built for the caller; EnumerateTuples is the map-free form.
func (e *Engine) Enumerate(d *span.Document, yield func(span.Mapping) bool) {
	e.EnumerateObserved(d, nil, yield)
}

// EnumerateFiltered implements Algorithm 2 with a candidate-span
// prefilter: instead of probing all (|d|²+1)/2 spans per variable, a
// reachability analysis narrows each variable to the spans some
// letter-consistent run could assign; the Eval oracle then validates
// each candidate exactly as in the paper, so the delay bound is
// unchanged while typical anchored patterns get near-linear probes.
// Variables are fixed in sorted order, candidate spans in
// lexicographic order, ⊥ last.
func (e *Engine) EnumerateFiltered(d *span.Document, yield func(span.Mapping) bool) {
	e.enumerateFiltered(d, nil, yield)
}

// enumerateFiltered is EnumerateFiltered reporting its phases —
// emptiness check, the two reachability sweeps, the candidate sweep,
// the probing walk — to clk.
func (e *Engine) enumerateFiltered(d *span.Document, clk *stageClock, yield func(span.Mapping) bool) {
	nonEmpty := e.Eval(d, span.Extended{})
	clk.mark(obs.StageEval)
	if !nonEmpty {
		return
	}
	var candidates map[span.Var][]span.Span
	if e.Compiled() {
		fwd := e.forwardReachProg(d)
		clk.mark(obs.StageForwardSweep)
		var co coBufs
		states, bwd, _ := co.coReach(e, d, 1, d.Len()+1, nil, nil)
		for _, s := range states {
			bwd = append(bwd, s.Frontier())
		}
		clk.mark(obs.StageCoReachSweep)
		candidates = e.candidateSpansProg(d, fwd, bwd)
	} else {
		fwd := e.forwardReach(d)
		clk.mark(obs.StageForwardSweep)
		bwd := e.backwardReach(d)
		clk.mark(obs.StageCoReachSweep)
		candidates = e.candidateSpans(d, fwd, bwd)
	}
	clk.mark(obs.StageCandidateSweep)

	var rec func(mu span.Extended, rest []span.Var) bool
	rec = func(mu span.Extended, rest []span.Var) bool {
		if len(rest) == 0 {
			return yield(mu.Mapping())
		}
		x := rest[0]
		for _, s := range candidates[x] {
			next := mu.With(x, span.Assigned(s))
			if e.Eval(d, next) {
				if !rec(next, rest[1:]) {
					return false
				}
			}
		}
		next := mu.With(x, span.Unassigned())
		if e.Eval(d, next) {
			if !rec(next, rest[1:]) {
				return false
			}
		}
		return true
	}
	vars := append([]span.Var(nil), e.vars...)
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	rec(span.Extended{}, vars)
	clk.mark(obs.StageEnumerate)
}

// EnumerateOracle is the paper's Algorithm 2 verbatim: every span of
// the document (plus ⊥) is probed for every variable through the Eval
// oracle, with no prefilter. It exists to measure the unoptimized
// polynomial-delay bound; Enumerate is the practical variant.
func (e *Engine) EnumerateOracle(d *span.Document, yield func(span.Mapping) bool) {
	if !e.Eval(d, span.Extended{}) {
		return
	}
	spans := d.Spans()
	var rec func(mu span.Extended, rest []span.Var) bool
	rec = func(mu span.Extended, rest []span.Var) bool {
		if len(rest) == 0 {
			return yield(mu.Mapping())
		}
		x := rest[0]
		for _, s := range spans {
			next := mu.With(x, span.Assigned(s))
			if e.Eval(d, next) {
				if !rec(next, rest[1:]) {
					return false
				}
			}
		}
		next := mu.With(x, span.Unassigned())
		if e.Eval(d, next) {
			if !rec(next, rest[1:]) {
				return false
			}
		}
		return true
	}
	vars := append([]span.Var(nil), e.vars...)
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	rec(span.Extended{}, vars)
}

// All collects the complete output set ⟦A⟧_d. The result can be
// exponentially large in the number of variables.
func (e *Engine) All(d *span.Document) *span.Set {
	out := span.NewSet()
	e.Enumerate(d, func(m span.Mapping) bool {
		out.Add(m)
		return true
	})
	return out
}
