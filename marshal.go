package spanners

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"unicode/utf8"

	"spanners/internal/eval"
	"spanners/internal/program"
)

// A serialized spanner is a small envelope around the compiled
// program artifact of internal/program:
//
//	magic   [4]byte  "SPNA"
//	version uint16   spannerArtifactVersion
//	flags   uint16   bit 0: sequential engine
//	                 bit 1: source is an algebra expression
//	srcLen  uint32   length of the source expression
//	source  [srcLen]byte
//	program …        program codec artifact (self-checksummed)
//	check   uint64   FNV-64a of everything above
//
// The source expression rides along so a registry can fall back to
// recompiling when an artifact fails to decode, and so String() on a
// loaded spanner reports what it extracts. Bit 1 of the flags records
// that the source is a spanner-algebra expression rather than an RGX
// — the two concrete syntaxes overlap (a canonical algebra expression
// is also a valid RGX), so the artifact must say which reading
// rebuilds it; guessing would silently rebuild a composition as a
// literal matcher. The trailing checksum covers the envelope too —
// the program payload alone is checksummed by its own codec, but a
// flipped flag bit or source byte would otherwise slip through and
// silently select the wrong engine.
const spannerArtifactVersion = 1

var spannerMagic = [4]byte{'S', 'P', 'N', 'A'}

const (
	seqFlag           = 1 << 0
	algebraSrcFlag    = 1 << 1
	maxSourceBytes    = 1 << 20
	spannerHeaderLen  = 4 + 2 + 2 + 4
	spannerTrailerLen = 8
)

// MarshalBinary serializes the spanner's compiled program together
// with its source expression. The encoding is deterministic — the
// same spanner always marshals to the same bytes, and compiling the
// same expression yields the same artifact — so artifacts can be
// content-addressed. Spanners running the interpreted fallback
// (Compiled() == false) have no program to serialize and return an
// error.
func (s *Spanner) MarshalBinary() ([]byte, error) {
	p := s.engine.Program()
	if p == nil {
		return nil, fmt.Errorf("spanners: %q runs the interpreted fallback and cannot be serialized", s.source)
	}
	if len(s.source) > maxSourceBytes {
		return nil, fmt.Errorf("spanners: source expression of %d bytes exceeds the artifact limit", len(s.source))
	}
	prog := p.Encode()
	buf := make([]byte, 0, spannerHeaderLen+len(s.source)+len(prog)+spannerTrailerLen)
	buf = append(buf, spannerMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, spannerArtifactVersion)
	var flags uint16
	if s.engine.Sequential() {
		flags |= seqFlag
	}
	if s.algebraSrc {
		flags |= algebraSrcFlag
	}
	buf = binary.LittleEndian.AppendUint16(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.source)))
	buf = append(buf, s.source...)
	buf = append(buf, prog...)
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64()), nil
}

// LoadCompiledSpanner reconstructs a spanner from MarshalBinary
// output without recompiling: the artifact is checksum-verified and
// decoded, and evaluation runs on the decoded tables directly.
//
// A loaded spanner supports the full evaluation surface — Matches,
// ModelCheck, Extendable, Enumerate/Stream/ExtractAll, Count — but
// carries no syntax tree and no automaton: Expr returns nil,
// Automaton returns nil, and the algebra and static-analysis
// functions (Union, Project, Join, Determinize, Contained, …) must
// not be applied to it. Recompile from String() when those are
// needed.
//
// Malformed input never panics: errors wrap the typed sentinels of
// internal/program (program.ErrBadMagic, program.ErrTruncated,
// program.ErrChecksum, program.ErrCorrupt, program.ErrVersion,
// program.ErrTooLarge).
func LoadCompiledSpanner(data []byte) (*Spanner, error) {
	if len(data) >= 4 && string(data[:4]) != string(spannerMagic[:]) {
		return nil, fmt.Errorf("spanners: %w", program.ErrBadMagic)
	}
	if len(data) < spannerHeaderLen+spannerTrailerLen {
		return nil, fmt.Errorf("spanners: %w", program.ErrTruncated)
	}
	body := data[:len(data)-spannerTrailerLen]
	h := fnv.New64a()
	h.Write(body)
	if got := binary.LittleEndian.Uint64(data[len(data)-spannerTrailerLen:]); got != h.Sum64() {
		return nil, fmt.Errorf("spanners: envelope: %w", program.ErrChecksum)
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != spannerArtifactVersion {
		return nil, fmt.Errorf("spanners: %w: spanner envelope version %d, want %d",
			program.ErrVersion, v, spannerArtifactVersion)
	}
	flags := binary.LittleEndian.Uint16(body[6:])
	if flags&^uint16(seqFlag|algebraSrcFlag) != 0 {
		return nil, fmt.Errorf("spanners: %w: unknown envelope flags %#x", program.ErrCorrupt, flags)
	}
	srcLen := binary.LittleEndian.Uint32(body[8:])
	if srcLen > maxSourceBytes {
		return nil, fmt.Errorf("spanners: %w: %d-byte source expression", program.ErrTooLarge, srcLen)
	}
	if spannerHeaderLen+int(srcLen) > len(body) {
		return nil, fmt.Errorf("spanners: %w", program.ErrTruncated)
	}
	source := string(body[spannerHeaderLen : spannerHeaderLen+int(srcLen)])
	if !utf8.ValidString(source) {
		return nil, fmt.Errorf("spanners: %w: source expression is not valid UTF-8", program.ErrCorrupt)
	}
	p, err := program.Decode(body[spannerHeaderLen+int(srcLen):])
	if err != nil {
		return nil, err
	}
	return &Spanner{
		source:     source,
		algebraSrc: flags&algebraSrcFlag != 0,
		engine:     eval.FromProgram(p, flags&seqFlag != 0),
	}, nil
}
