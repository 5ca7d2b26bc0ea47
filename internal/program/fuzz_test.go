package program

import (
	"bytes"
	"testing"

	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

// FuzzDecode throws arbitrary bytes at the artifact decoder. The
// invariants: Decode never panics, never hangs on bounded input, and
// anything it accepts must re-encode byte-identically (otherwise
// content addressing would drift) and pass Decode again.
func FuzzDecode(f *testing.F) {
	for _, expr := range codecCorpus {
		p, err := Compile(va.FromRGX(rgx.MustParse(expr)))
		if err != nil {
			f.Fatal(err)
		}
		enc := p.Encode()
		f.Add(enc)
		// Truncations at structurally interesting places.
		for _, n := range []int{0, 3, headerLen, headerLen + 13, len(enc) / 2, len(enc) - 9, len(enc) - 1} {
			if n >= 0 && n <= len(enc) {
				f.Add(enc[:n])
			}
		}
		// A few deterministic corruptions.
		for _, off := range []int{5, headerLen + 1, len(enc) - trailerLen} {
			bad := append([]byte{}, enc...)
			bad[off] ^= 0xff
			f.Add(bad)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			if p != nil {
				t.Fatal("Decode returned both a program and an error")
			}
			return
		}
		re := p.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted artifact re-encodes differently (%d -> %d bytes)", len(data), len(re))
		}
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-encoded artifact rejected: %v", err)
		}
	})
}

// FuzzDecodeDFA throws arbitrary bytes at the artifact decoder and
// runs whatever it accepts through the lazy DFA, the path a served
// registry artifact takes. The invariants: neither Decode nor the DFA
// panics on a hostile artifact, and an accepted program's DFA agrees
// with direct bitset stepping on the probe document.
func FuzzDecodeDFA(f *testing.F) {
	for _, expr := range codecCorpus {
		p, err := Compile(va.FromRGX(rgx.MustParse(expr)))
		if err != nil {
			f.Fatal(err)
		}
		// A valid artifact, plus structural truncations and
		// deterministic corruptions of it.
		enc := p.Encode()
		f.Add(enc)
		for _, n := range []int{0, 3, headerLen, headerLen + 7, headerLen + 19, len(enc) / 2, len(enc) - 9, len(enc) - 1} {
			if n >= 0 && n <= len(enc) {
				f.Add(enc[:n])
			}
		}
		for _, off := range []int{5, headerLen + 1, headerLen + 17, len(enc) - trailerLen} {
			if off < len(enc) {
				bad := append([]byte{}, enc...)
				bad[off] ^= 0xff
				f.Add(bad)
			}
		}
	}

	probe := span.NewDocument("Seller: ab, ID1\naba")
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		got, ok := sweepMatch(t, p, NewDFA(p, 64), probe)
		if !ok {
			return
		}
		if want := matchDirect(p, probe); got != want {
			t.Fatalf("decoded program's DFA diverges from direct stepping: %v vs %v", got, want)
		}
	})
}
