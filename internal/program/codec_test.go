package program

import (
	"bytes"
	"errors"
	"testing"

	"spanners/internal/rgx"
	"spanners/internal/span"
	"spanners/internal/va"
)

// codecCorpus spans the structural range of compiled programs:
// multiple variables, optional fields, alternation, rune classes,
// non-sequential variable discipline, unicode classes.
var codecCorpus = []string{
	`x{a*}b`,
	`a*x{a*}a*`,
	`.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`,
	`(x{a}|y{b})(z{c}|w{d})`,
	`(x0{a}|x1{a}|x2{a}|b)*`,
	`x{\w+}\s+y{\d+}`,
	`[^a-z]*x{[a-z]+}[^a-z]*`,
	`abc`,
}

func compileCorpus(t *testing.T, expr string) *Program {
	t.Helper()
	p, err := Compile(va.FromRGX(rgx.MustParse(expr)))
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	return p
}

func TestCodecRoundTrip(t *testing.T) {
	for _, expr := range codecCorpus {
		t.Run(expr, func(t *testing.T) {
			p := compileCorpus(t, expr)
			enc := p.Encode()
			q, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}

			// Stats must survive modulo CompileNS, which measures work
			// decoding deliberately skips.
			ws, gs := p.Stats(), q.Stats()
			ws.CompileNS, gs.CompileNS = 0, 0
			if ws != gs {
				t.Errorf("stats changed: %+v -> %+v", ws, gs)
			}
			if gs.CompileNS != 0 || q.Stats().CompileNS != 0 {
				t.Errorf("decoded CompileNS = %d, want 0", q.Stats().CompileNS)
			}

			// Re-encoding must be byte-identical (content addressing).
			if !bytes.Equal(enc, q.Encode()) {
				t.Error("re-encoding the decoded program is not byte-identical")
			}

			// Derived tables must be rebuilt exactly.
			if q.OpenedMask != p.OpenedMask {
				t.Errorf("OpenedMask %x -> %x", p.OpenedMask, q.OpenedMask)
			}
			for i := range p.rdelta {
				if !bytes.Equal(bitsBytes(p.rdelta[i]), bitsBytes(q.rdelta[i])) {
					t.Fatalf("rdelta[%d] diverges", i)
				}
			}
			for q1 := 0; q1 < p.NumStates; q1++ {
				if len(p.OpsInto(q1)) != len(q.OpsInto(q1)) {
					t.Fatalf("OpsInto(%d): %d -> %d edges", q1, len(p.OpsInto(q1)), len(q.OpsInto(q1)))
				}
				for i, e := range p.OpsInto(q1) {
					if q.OpsInto(q1)[i] != e {
						t.Fatalf("OpsInto(%d)[%d]: %+v -> %+v", q1, i, e, q.OpsInto(q1)[i])
					}
				}
			}
			if !bytes.Equal(bitsBytes(p.HasOps), bitsBytes(q.HasOps)) ||
				!bytes.Equal(bitsBytes(p.RHasOps), bitsBytes(q.RHasOps)) {
				t.Error("HasOps/RHasOps diverge")
			}
		})
	}
}

func bitsBytes(b Bits) []byte { return []byte(b.Key()) }

// TestCodecDeterministicAcrossCompiles pins the property content
// addressing depends on: compiling the same source twice yields
// byte-identical artifacts.
func TestCodecDeterministicAcrossCompiles(t *testing.T) {
	for _, expr := range codecCorpus {
		a := compileCorpus(t, expr).Encode()
		b := compileCorpus(t, expr).Encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%q: two compiles encode differently", expr)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := compileCorpus(t, codecCorpus[2]).Encode()
	for _, n := range []int{0, 3, 4, 7, headerLen - 1, headerLen, headerLen + 5, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:n]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded", n, len(enc))
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) {
			t.Errorf("Decode of %d bytes: error %v is not typed", n, err)
		}
	}
	// Trailing garbage is rejected too, not ignored.
	if _, err := Decode(append(append([]byte{}, enc...), 0)); !errors.Is(err, ErrTruncated) {
		t.Errorf("trailing byte: %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := compileCorpus(t, codecCorpus[2]).Encode()

	// Any single bit flip in the payload must trip the checksum.
	for _, off := range []int{headerLen, headerLen + 9, len(enc) - trailerLen - 1} {
		bad := append([]byte{}, enc...)
		bad[off] ^= 0x40
		if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("bit flip at %d: %v, want ErrChecksum", off, err)
		}
	}

	bad := append([]byte{}, enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte{}, enc...)
	bad[4] = 99
	if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: %v", err)
	}
}

// TestDecodeRejectsStructuralLies re-checksums after corrupting the
// payload so structural validation, not the checksum, must catch it.
func TestDecodeRejectsStructuralLies(t *testing.T) {
	p := compileCorpus(t, codecCorpus[2])

	tamper := func(t *testing.T, f func(q *Program)) error {
		t.Helper()
		q, err := Decode(p.Encode())
		if err != nil {
			t.Fatal(err)
		}
		f(q)
		_, err = Decode(q.Encode()) // Encode re-checksums the lie
		return err
	}

	cases := []struct {
		name string
		f    func(q *Program)
		want error
	}{
		{"start out of range", func(q *Program) { q.Start = q.NumStates }, ErrCorrupt},
		{"final bit past states", func(q *Program) {
			q.Final = append(Bits{}, q.Final...)
			q.Final.Set(len(q.Final)*64 - 1)
		}, ErrCorrupt},
		{"unsorted vars", func(q *Program) { q.Vars[0], q.Vars[1] = q.Vars[1], q.Vars[0] }, ErrCorrupt},
		{"op edge bad target", func(q *Program) {
			q.OpEdges = append([]OpEdge{}, q.OpEdges...)
			q.OpEdges[0].To = int32(q.NumStates)
		}, ErrCorrupt},
		{"op edge bad var", func(q *Program) {
			q.OpEdges = append([]OpEdge{}, q.OpEdges...)
			q.OpEdges[0].Var = MaxVars + 1
		}, ErrCorrupt},
		{"op heads decreasing", func(q *Program) {
			q.OpHead = append([]int32{}, q.OpHead...)
			q.OpHead[1] = q.OpHead[len(q.OpHead)-1] + 1
		}, ErrCorrupt},
		{"overlapping ranges", func(q *Program) {
			q.lo = append([]rune{}, q.lo...)
			q.lo[1] = q.lo[0]
		}, ErrCorrupt},
		{"range class out of range", func(q *Program) {
			q.cls = append([]uint16{}, q.cls...)
			q.cls[0] = uint16(q.NumClasses)
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tamper(t, tc.f)
			if !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodedProgramEvaluates runs the decoded tables directly: every
// accessor the engines use must behave identically.
func TestDecodedProgramEvaluates(t *testing.T) {
	p := compileCorpus(t, `a*x{a*}b`)
	q, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range "abcz" {
		if p.ClassOf(r) != q.ClassOf(r) {
			t.Errorf("ClassOf(%q): %d -> %d", r, p.ClassOf(r), q.ClassOf(r))
		}
	}
	for s := 0; s < p.NumStates; s++ {
		for c := 0; c < p.NumClasses; c++ {
			if p.Succ(s, c).Key() != q.Succ(s, c).Key() || p.Pred(s, c).Key() != q.Pred(s, c).Key() {
				t.Fatalf("dispatch diverges at state %d class %d", s, c)
			}
		}
	}
	for _, v := range p.Vars {
		wi, wok := p.VarID(v)
		gi, gok := q.VarID(v)
		if wi != gi || wok != gok {
			t.Errorf("VarID(%q): (%d,%v) -> (%d,%v)", v, wi, wok, gi, gok)
		}
	}
	// The decoded program's lazy DFA decides what the compiled one does.
	d := NewDFA(q, 64)
	for _, text := range []string{"", "b", "aab", "aaba", "abc"} {
		doc := span.NewDocument(text)
		got, ok := sweepMatch(t, q, d, doc)
		if !ok || got != matchDirect(p, doc) {
			t.Errorf("%q: decoded DFA match = %v (ok=%v), compiled program says %v", text, got, ok, matchDirect(p, doc))
		}
	}
}
