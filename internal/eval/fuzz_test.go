package eval

import (
	"maps"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

// fuzzMaxMappings caps how many mappings one fuzz input compares;
// patterns like x{.*}y{.*} have outputs polynomial of high degree in
// the document.
const fuzzMaxMappings = 4096

// FuzzEnumerateOrder checks the compiled sequential walk, with the
// lazy DFA on (cold, then warm) and off, against the interpreted
// enumerator on arbitrary patterns and documents: the same mappings in
// the same order, and a Count equal to their number. Each engine first
// enumerates only the first k mappings, which leaves its walk
// mid-sweep when the DFS stops, and must emit the full enumeration's
// first k; the full enumeration after it then reuses that pooled walk.
// Pinned Eval is the same walk stopped at its first completion: the
// k-th mapping must model-check on the DFA and bitset engines, and a
// copy with one span shifted by one gets the interpreted answer.
func FuzzEnumerateOrder(f *testing.F) {
	for i, seed := range []struct{ expr, doc string }{
		{`.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`,
			"1.2.3.4 GET / 200 7 \"c\"\n5.6.7.8 PUT /a 404 1 \"m\" ref=/\n"},
		{`.*m{TRACE} (p{/admin/[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`,
			"1.2.3.4 GET / 200 7 \"c\"\n9.9.9.9 TRACE /admin/k 403 2 \"c\"\n"},
		{`.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`,
			"Seller: Ana Soto, ID7, $3,000\nBuyer: Ivan Diaz, ID82, P4\n"},
		{`x{a*}`, "aaaaaaaa"},
		{`a*x{a*}a*`, "aaaaaaaaaaaaaaaa"},
		{`.*x{.*}.*`, "abcabcabc"},
		{`(x{a}|x1{a}y{b}|y{ab})(z{c}|).*`, "abcab"},
		{`(a(bbb)*x{}|a(bb)*z{})b*y{c}`, "abbbbbbbbbbbbbc"},
		{`.*(x{a}bbbb|y{a}b)b*z{c}.*`, "abbbbbbbcabbbc"},
	} {
		f.Add(seed.expr, seed.doc, uint8(1+i))
	}

	f.Fuzz(func(t *testing.T, expr, text string, k uint8) {
		// e+ compiles as e e*, so nested repetitions double the
		// automaton per level; keep it small enough to test quickly.
		if len(expr) > 128 || strings.Count(expr, "+") > 6 ||
			!utf8.ValidString(text) || utf8.RuneCountInString(text) > 64 {
			return
		}
		n, err := rgx.Parse(expr)
		if err != nil {
			return
		}
		a := va.FromRGX(n)
		if a.NumStates > 2048 {
			return
		}
		eng := NewEngine(a)
		if !eng.Sequential() || !eng.Compiled() {
			return
		}
		bitset := NewEngine(a)
		bitset.ForceNoDFA()
		interp := NewEngine(a)
		interp.ForceInterpreted()

		d := span.NewDocument(text)
		want := fuzzKeys(interp, d)
		// The DFA engine runs twice on one cache: the warm pass replays
		// the glide rows and boundary effects the cold one recorded on
		// its layers, and must emit what the cold pass computed.
		for _, r := range []struct {
			name string
			e    *Engine
		}{{"dfa", eng}, {"dfa-warm", eng}, {"bitset", bitset}} {
			name, e := r.name, r.e
			stop := max(int(k), 1)
			prefix := fuzzPrefix(e, d, stop)
			if n := min(len(want), stop); !slices.Equal(prefix, want[:n]) {
				t.Fatalf("%s: stopped after %d, emitted %q, interpreted %q, on %q / %q", name, n, prefix, want[:n], expr, text)
			}
			got := fuzzKeys(e, d)
			if len(got) != len(want) {
				t.Fatalf("%s: %d mappings, interpreted %d, on %q / %q", name, len(got), len(want), expr, text)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: mapping %d is %s, interpreted %s, on %q / %q", name, i, got[i], want[i], expr, text)
				}
			}
			if len(want) < fuzzMaxMappings {
				if c := e.Count(d); c != len(want) {
					t.Fatalf("%s: Count %d, %d mappings, on %q / %q", name, c, len(want), expr, text)
				}
			}
		}

		m, shifted := fuzzPins(interp, d, max(int(k), 1))
		if m == nil {
			return
		}
		wantShifted := interp.ModelCheck(d, shifted)
		for name, e := range map[string]*Engine{"dfa": eng, "bitset": bitset} {
			if !e.ModelCheck(d, m) {
				t.Fatalf("%s: ModelCheck false on emitted mapping %s, on %q / %q", name, m.Key(), expr, text)
			}
			if got := e.ModelCheck(d, shifted); got != wantShifted {
				t.Fatalf("%s: ModelCheck %v on %s, interpreted %v, on %q / %q", name, got, shifted.Key(), wantShifted, expr, text)
			}
		}
	})
}

// fuzzPins returns the k-th mapping e emits on d (the last when there
// are fewer), nil when there is none, and a copy with the span of one
// of its variables, picked by k, shifted one boundary right, or left
// where it ends the document.
func fuzzPins(e *Engine, d *span.Document, k int) (m, shifted span.Mapping) {
	seen := 0
	e.Enumerate(d, func(got span.Mapping) bool {
		m, seen = got, seen+1
		return seen < k
	})
	if m == nil {
		return nil, nil
	}
	shifted = maps.Clone(m)
	if vars := slices.Sorted(maps.Keys(m)); len(vars) > 0 {
		v := vars[k%len(vars)]
		if s := m[v]; s.End <= d.Len() {
			shifted[v] = span.Sp(s.Start+1, s.End+1)
		} else {
			shifted[v] = span.Sp(s.Start-1, s.End-1)
		}
	}
	return m, shifted
}

// fuzzKeys returns the canonical keys of the first fuzzMaxMappings
// mappings e emits on d, in emission order.
func fuzzKeys(e *Engine, d *span.Document) []string {
	return fuzzPrefix(e, d, fuzzMaxMappings)
}

// fuzzPrefix returns the canonical keys of the first k mappings e
// emits on d, in emission order, stopping the enumeration there.
func fuzzPrefix(e *Engine, d *span.Document, k int) []string {
	var keys []string
	e.Enumerate(d, func(m span.Mapping) bool {
		keys = append(keys, m.Key())
		return len(keys) < k
	})
	return keys
}
