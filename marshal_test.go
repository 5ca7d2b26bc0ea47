package spanners

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"

	"spanners/internal/program"
)

// marshalCorpus pairs expressions with documents that exercise them;
// the acceptance bar for the artifact format is that a loaded spanner
// is observationally identical to a freshly compiled one.
var marshalCorpus = []struct {
	expr string
	docs []string
}{
	{`x{a*}b`, []string{"aaab", "b", "ab", "aa", ""}},
	{`a*x{a*}a*`, []string{"aaaa", "", "a"}},
	{`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`, []string{
		"Seller: John, ID75\nBuyer: Marcelo, ID832\nSeller: Mark, ID7, $35,000\n",
		"no sellers\n",
	}},
	{`(x{a}|y{b})(z{c}|w{d})`, []string{"ac", "bd", "ad", "xy"}},
	{`(x0{a}|x1{a}|x2{a}|b)*`, []string{"ab", "ba", ""}}, // non-sequential, FPT engine
	{`x{\w+}\s+y{\d+}`, []string{"item 42", "a 1", "nope"}},
}

func TestMarshalRoundTripDifferential(t *testing.T) {
	for _, tc := range marshalCorpus {
		t.Run(tc.expr, func(t *testing.T) {
			orig := MustCompile(tc.expr)
			if !orig.Compiled() {
				t.Fatalf("%q compiled to the interpreted fallback", tc.expr)
			}
			art, err := orig.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}

			// Determinism: marshaling twice, and marshaling a loaded
			// spanner, must reproduce the same bytes.
			art2, err := orig.MarshalBinary()
			if err != nil || !bytes.Equal(art, art2) {
				t.Fatalf("MarshalBinary is not deterministic (err=%v)", err)
			}
			loaded, err := LoadCompiledSpanner(art)
			if err != nil {
				t.Fatalf("LoadCompiledSpanner: %v", err)
			}
			art3, err := loaded.MarshalBinary()
			if err != nil || !bytes.Equal(art, art3) {
				t.Fatalf("re-marshaling a loaded spanner diverges (err=%v)", err)
			}

			if loaded.String() != tc.expr {
				t.Errorf("String() = %q, want %q", loaded.String(), tc.expr)
			}
			if loaded.Sequential() != orig.Sequential() {
				t.Errorf("Sequential() = %v, want %v", loaded.Sequential(), orig.Sequential())
			}
			if !loaded.Compiled() {
				t.Error("loaded spanner is not compiled")
			}
			if !loaded.DFAStats().Enabled {
				t.Error("loaded spanner runs without its lazy-DFA cache")
			}
			if loaded.Automaton() != nil || loaded.Expr() != nil {
				t.Error("loaded spanner claims an automaton or syntax tree")
			}

			ws, gs := orig.ProgramStats(), loaded.ProgramStats()
			ws.CompileNS, gs.CompileNS = 0, 0
			if ws != gs {
				t.Errorf("ProgramStats changed: %+v -> %+v", ws, gs)
			}
			if !reflect.DeepEqual(orig.Vars(), loaded.Vars()) {
				t.Errorf("Vars changed: %v -> %v", orig.Vars(), loaded.Vars())
			}

			// Differential extraction: identical mapping sets in
			// identical enumeration order, plus Count and Matches.
			for _, text := range tc.docs {
				d := NewDocument(text)
				want := orig.ExtractAll(d)
				got := loaded.ExtractAll(d)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("doc %q: mappings %v -> %v", text, want, got)
				}
				if orig.Count(d) != loaded.Count(d) {
					t.Errorf("doc %q: Count %d -> %d", text, orig.Count(d), loaded.Count(d))
				}
				if orig.Matches(d) != loaded.Matches(d) {
					t.Errorf("doc %q: Matches diverges", text)
				}
				for _, m := range want {
					if !loaded.ModelCheck(d, m) {
						t.Errorf("doc %q: loaded spanner rejects its own output %v", text, m)
					}
				}
			}
		})
	}
}

func TestLoadCompiledSpannerRejectsGarbage(t *testing.T) {
	art, err := MustCompile(`x{a*}b`).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, program.ErrTruncated},
		{"not an artifact", []byte("hello world, definitely a spanner"), program.ErrBadMagic},
		{"truncated header", art[:6], program.ErrTruncated},
		{"truncated program", art[:len(art)-10], program.ErrChecksum},
		{"program bit flip", flip(art, len(art)-12), program.ErrChecksum},
		// Envelope corruption — flipped flags, source bytes, version —
		// is caught by the whole-artifact checksum even though the
		// program payload's own checksum cannot see it.
		{"flag bit flip", flip(art, 7), program.ErrChecksum},
		{"source bit flip", flip(art, spannerHeaderLen), program.ErrChecksum},
		{"version bit flip", flip(art, 4), program.ErrChecksum},
		// A consistently-built artifact of a future envelope version or
		// with unknown flags gets the typed error, not ErrChecksum.
		{"future version", resealed(art, func(b []byte) { b[4] = 2 }), program.ErrVersion},
		{"unknown flags", resealed(art, func(b []byte) { b[6] |= 0x80 }), program.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := LoadCompiledSpanner(tc.data)
			if sp != nil || err == nil {
				t.Fatalf("accepted garbage: sp=%v err=%v", sp, err)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v, want %v", err, tc.want)
			}
		})
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0x20
	return out
}

// resealed mutates an artifact's body and recomputes the trailing
// envelope checksum, simulating a consistently-written (not merely
// corrupted) foreign artifact.
func resealed(b []byte, mutate func([]byte)) []byte {
	body := append([]byte{}, b[:len(b)-8]...)
	mutate(body)
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

func TestMarshalBinaryInterpretedFallback(t *testing.T) {
	// 33 variables exceed program.MaxVars, forcing the interpreted
	// engines; such a spanner has no serializable artifact.
	expr := ""
	for i := 0; i < 33; i++ {
		expr += "x" + string(rune('A'+i%26)) + string(rune('a'+i/26)) + "{a}"
	}
	s := MustCompile(expr)
	if s.Compiled() {
		t.Skip("expression unexpectedly compiled; fallback path not reachable")
	}
	if _, err := s.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary succeeded on an interpreted spanner")
	}
}
