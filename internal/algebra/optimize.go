package algebra

import (
	"math"
	"sort"

	"spanners"
)

// Rewrite records one planner rule firing: the rule name and the
// canonical renderings of the rewritten subtree before and after.
// Plans expose the full log so `spanreg eval -explain` and the
// service's per-rule counters can show exactly what the optimizer did.
type Rewrite struct {
	Rule   string `json:"rule"`
	Before string `json:"before"`
	After  string `json:"after"`
}

// Planner rule names, one per Rewrite.Rule value (and per label of
// the service's spand_algebra_planner_rewrites_total counter):
//
//	project-identity    π_V(e) with V = Vars(e) is e itself
//	project-collapse    π_V(π_W(e)) = π_V(e) (V ⊆ W by validation)
//	project-past-union  π_V(∪ eᵢ) = ∪ π_{V∩Vars(eᵢ)}(eᵢ)
//	project-past-join   π_V(⋈ eᵢ) = π_V(⋈ π_{Vars(eᵢ)∩(V∪sharedᵢ)}(eᵢ))
//	dedup-union         duplicate union operands dropped (A ∪ A = A)
//	join-reorder        join operands greedily reordered by estimated
//	                    product cost
//
// Two tempting rules are deliberately absent because they are unsound
// under the partial-mapping semantics and pinned so by tests in
// plan_quick_test.go: projection does NOT distribute over difference
// (π_V(A∖B) ≠ π_V(A)∖π_V(B) — projection can merge a subtracted
// mapping with a surviving one), and join is NOT idempotent
// (A ⋈ A ⊇ A can be strict: two distinct partial mappings of A that
// agree where both assign join into a third mapping A never output).
const (
	ruleProjectIdentity  = "project-identity"
	ruleProjectCollapse  = "project-collapse"
	ruleProjectPastUnion = "project-past-union"
	ruleProjectPastJoin  = "project-past-join"
	ruleDedupUnion       = "dedup-union"
	ruleJoinReorder      = "join-reorder"
)

// RuleNames lists every planner rule that can appear in a
// Rewrite.Rule, in documentation order. The service uses it to
// pre-register per-rule counters so all label values are visible in
// /v1/metrics from startup.
func RuleNames() []string {
	return []string{
		ruleProjectIdentity, ruleProjectCollapse, ruleProjectPastUnion,
		ruleProjectPastJoin, ruleDedupUnion, ruleJoinReorder,
	}
}

// leafMeta is what the optimizer and the cost model know about one
// resolved leaf: its bound variables and its automaton's state count.
type leafMeta struct {
	vars   []spanners.Var
	states int
}

// costModel estimates composed-automaton sizes from resolved leaf
// metadata. The numbers follow the shape of the constructions in
// internal/va — union is additive, projection multiplies by the
// status product over dropped variables (3 statuses each), join
// multiplies the operands and pays the closing-normalization of both
// sides on shared variables (~4^shared), difference pays the
// subset-determinization of the right operand (~2^states) — and are
// heuristics for ordering plans, not promises: the differential
// harness guarantees equivalence, the estimator only ranks.
type costModel struct {
	leafMeta map[string]leafMeta
}

const estCap = 1e18

// varsOf returns the variable set a subtree binds. Validation has
// already run, so projections are ⊆ their operand and difference
// operands agree; trees are small (MaxLeaves, MaxDepth), so
// recomputing per call beats carrying a memo around.
func (c *costModel) varsOf(e Expr) map[spanners.Var]bool {
	out := map[spanners.Var]bool{}
	switch n := e.(type) {
	case Ref:
		for _, v := range c.leafMeta[n.Canonical()].vars {
			out[v] = true
		}
	case Union:
		for _, a := range n.Args {
			for v := range c.varsOf(a) {
				out[v] = true
			}
		}
	case Join:
		for _, a := range n.Args {
			for v := range c.varsOf(a) {
				out[v] = true
			}
		}
	case Difference:
		return c.varsOf(n.A)
	case Project:
		for _, v := range n.Vars {
			out[v] = true
		}
	}
	return out
}

// est estimates the composed automaton size of e, capped at estCap.
func (c *costModel) est(e Expr) float64 {
	switch n := e.(type) {
	case Ref:
		return float64(c.leafMeta[n.Canonical()].states)
	case Union:
		total := 2.0
		for _, a := range n.Args {
			total = capEst(total + c.est(a))
		}
		return total
	case Join:
		acc := c.est(n.Args[0])
		accVars := c.varsOf(n.Args[0])
		for _, a := range n.Args[1:] {
			acc = c.estJoin(acc, accVars, a)
			for v := range c.varsOf(a) {
				accVars[v] = true
			}
		}
		return acc
	case Difference:
		// Complementing the right operand determinizes it: worst-case
		// exponential in its states, the reason the budget exists.
		return capEst(c.est(n.A) * math.Pow(2, math.Min(c.est(n.B), 40)))
	case Project:
		inner := c.varsOf(n.Arg)
		kept := map[spanners.Var]bool{}
		for _, v := range n.Vars {
			if inner[v] {
				kept[v] = true
			}
		}
		dropped := len(inner) - len(kept)
		return capEst(c.est(n.Arg) * math.Pow(3, float64(dropped)))
	}
	return 1
}

// estJoin estimates joining an accumulated product (est size acc,
// variables accVars) with one more operand.
func (c *costModel) estJoin(acc float64, accVars map[spanners.Var]bool, next Expr) float64 {
	shared := 0
	for v := range c.varsOf(next) {
		if accVars[v] {
			shared++
		}
	}
	return capEst(acc * c.est(next) * math.Pow(4, float64(shared)))
}

func capEst(v float64) float64 {
	if v > estCap {
		return estCap
	}
	return v
}

// optimizer rewrites a validated, pinned expression tree to a cheaper
// result-identical one, logging every rule firing.
type optimizer struct {
	cost *costModel
	log  []Rewrite
}

func (o *optimizer) record(rule string, before, after Expr) {
	o.log = append(o.log, Rewrite{Rule: rule, Before: before.Canonical(), After: after.Canonical()})
}

// optimize rewrites e bottom-up. Every rule preserves ⟦·⟧_d exactly
// (set semantics over partial mappings); the differential harness in
// plan_quick_test.go is the enforcement.
func (o *optimizer) optimize(e Expr) Expr {
	switch n := e.(type) {
	case Ref:
		return n

	case Union:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = o.optimize(a)
		}
		// dedup-union: A ∪ A = A under set semantics, so repeated
		// operands (by canonical form) compose once.
		seen := map[string]bool{}
		dedup := args[:0:0]
		for _, a := range args {
			k := a.Canonical()
			if seen[k] {
				continue
			}
			seen[k] = true
			dedup = append(dedup, a)
		}
		if len(dedup) < len(args) {
			var after Expr = Union{Args: dedup}
			if len(dedup) == 1 {
				after = dedup[0]
			}
			o.record(ruleDedupUnion, Union{Args: args}, after)
			return after
		}
		return Union{Args: args}

	case Join:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = o.optimize(a)
		}
		reordered := o.reorderJoin(args)
		if !sameExprs(args, reordered) {
			o.record(ruleJoinReorder, Join{Args: args}, Join{Args: reordered})
		}
		return Join{Args: reordered}

	case Difference:
		// No rule crosses a difference boundary: projection does not
		// distribute over it, and the operands' variable schemas are
		// pinned by validation.
		return Difference{A: o.optimize(n.A), B: o.optimize(n.B)}

	case Project:
		return o.optimizeProject(o.optimize(n.Arg), n.Vars)
	}
	return e
}

// optimizeProject applies the projection rules to π_vars(arg) until
// none fires. Each iteration either strictly shrinks the subtree
// (collapse, identity) or pushes the projection strictly downward
// (past-union, past-join — the re-check cannot fire again because the
// pushed children already keep exactly their needed variables), so
// the loop terminates.
func (o *optimizer) optimizeProject(arg Expr, vars []spanners.Var) Expr {
	for {
		// project-collapse: π_V(π_W(e)) = π_V(e); validation
		// guarantees V ⊆ W.
		if inner, ok := arg.(Project); ok {
			o.record(ruleProjectCollapse,
				Project{Arg: inner, Vars: vars}, Project{Arg: inner.Arg, Vars: vars})
			arg = inner.Arg
			continue
		}

		argVars := o.cost.varsOf(arg)
		// project-identity: keeping every variable is a no-op.
		if varSetEqual(vars, argVars) {
			o.record(ruleProjectIdentity, Project{Arg: arg, Vars: vars}, arg)
			return arg
		}

		// project-past-union: π_V(∪eᵢ) = ∪ π_{V∩Vars(eᵢ)}(eᵢ) —
		// restricting a mapping of eᵢ to V only ever touches the
		// variables eᵢ binds. Fires only if some operand shrinks.
		if u, ok := arg.(Union); ok {
			if pushed, fired := o.pushPastUnion(u, vars); fired {
				return pushed
			}
		}

		// project-past-join: each join operand needs only the
		// variables the projection keeps plus the ones it shares with
		// the rest of the join (compatibility is decided on shared
		// variables, which restriction to V∪shared preserves). The
		// outer projection stays: the shrunk join can still bind
		// shared variables outside V.
		if j, ok := arg.(Join); ok {
			if inner, fired := o.pushPastJoin(j, vars); fired {
				arg = inner
				continue
			}
		}
		break
	}
	return Project{Arg: arg, Vars: vars}
}

func (o *optimizer) pushPastUnion(u Union, vars []spanners.Var) (Expr, bool) {
	shrinks := false
	newArgs := make([]Expr, len(u.Args))
	for i, a := range u.Args {
		av := o.cost.varsOf(a)
		keep := intersectVars(vars, av)
		if len(keep) == len(av) {
			newArgs[i] = a
			continue
		}
		shrinks = true
		newArgs[i] = Project{Arg: a, Vars: keep}
	}
	if !shrinks {
		return nil, false
	}
	after := Union{Args: newArgs}
	o.record(ruleProjectPastUnion, Project{Arg: u, Vars: vars}, after)
	// The pushed projections may collapse or vanish in turn.
	return o.optimize(after), true
}

func (o *optimizer) pushPastJoin(j Join, vars []spanners.Var) (Expr, bool) {
	childVars := make([]map[spanners.Var]bool, len(j.Args))
	for i, a := range j.Args {
		childVars[i] = o.cost.varsOf(a)
	}
	keepSet := map[spanners.Var]bool{}
	for _, v := range vars {
		keepSet[v] = true
	}
	shrinks := false
	newArgs := make([]Expr, len(j.Args))
	for i, a := range j.Args {
		needed := map[spanners.Var]bool{}
		for v := range childVars[i] {
			if keepSet[v] {
				needed[v] = true
				continue
			}
			for k, other := range childVars {
				if k != i && other[v] {
					needed[v] = true
					break
				}
			}
		}
		if len(needed) == len(childVars[i]) {
			newArgs[i] = a
			continue
		}
		shrinks = true
		newArgs[i] = Project{Arg: a, Vars: sortedVars(needed)}
	}
	if !shrinks {
		return nil, false
	}
	inner := Join{Args: newArgs}
	o.record(ruleProjectPastJoin, Project{Arg: j, Vars: vars}, Project{Arg: inner, Vars: vars})
	// Optimize the shrunk join (its new projections and ordering);
	// the caller loops to re-check identity/collapse above it.
	return o.optimize(inner), true
}

// reorderJoin greedily orders join operands to minimize the estimated
// left-fold product cost: start from the smallest operand, then
// repeatedly take the operand whose join with the accumulated product
// is estimated cheapest. Ties break on canonical form so plans are
// deterministic. Two operands fold at the same cost either way, so
// only wider joins reorder.
func (o *optimizer) reorderJoin(args []Expr) []Expr {
	if len(args) < 3 {
		return args
	}
	type cand struct {
		e     Expr
		est   float64
		canon string
	}
	remaining := make([]cand, len(args))
	for i, a := range args {
		remaining[i] = cand{e: a, est: o.cost.est(a), canon: a.Canonical()}
	}
	pick := func(better func(a, b cand) bool) cand {
		best := 0
		for i := 1; i < len(remaining); i++ {
			if better(remaining[i], remaining[best]) {
				best = i
			}
		}
		c := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		return c
	}
	first := pick(func(a, b cand) bool {
		return a.est < b.est || (a.est == b.est && a.canon < b.canon)
	})
	order := []Expr{first.e}
	accVars := o.cost.varsOf(first.e)
	acc := first.est
	for len(remaining) > 0 {
		next := pick(func(a, b cand) bool {
			ca := o.cost.estJoin(acc, accVars, a.e)
			cb := o.cost.estJoin(acc, accVars, b.e)
			return ca < cb || (ca == cb && a.canon < b.canon)
		})
		acc = o.cost.estJoin(acc, accVars, next.e)
		for v := range o.cost.varsOf(next.e) {
			accVars[v] = true
		}
		order = append(order, next.e)
	}
	return order
}

func sameExprs(a, b []Expr) bool {
	for i := range a {
		if a[i].Canonical() != b[i].Canonical() {
			return false
		}
	}
	return true
}

// varSetEqual reports whether the listed variables are exactly set.
func varSetEqual(vars []spanners.Var, set map[spanners.Var]bool) bool {
	seen := map[spanners.Var]bool{}
	for _, v := range vars {
		if !set[v] {
			return false
		}
		seen[v] = true
	}
	return len(seen) == len(set)
}

// intersectVars returns vars ∩ set, sorted, without duplicates.
func intersectVars(vars []spanners.Var, set map[spanners.Var]bool) []spanners.Var {
	out := map[spanners.Var]bool{}
	for _, v := range vars {
		if set[v] {
			out[v] = true
		}
	}
	return sortedVars(out)
}

func sortedVars(set map[spanners.Var]bool) []spanners.Var {
	out := make([]spanners.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
