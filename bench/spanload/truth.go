package main

import (
	"fmt"
	"sort"
	"strings"

	"spanners/client"
)

// Ground truth comes from the shape the generators write, read back
// with plain string functions, never from the engine under test: which
// lines produce a mapping, the (variable, start, end) triples of each,
// and which optional variables (r, t, p) are absent because the field
// is. Spans are 1-based rune positions; generated text is ASCII, so
// byte offsets are rune offsets.

// triple is one assigned variable of a mapping.
type triple struct {
	v          string
	start, end int // 1-based, end exclusive: the paper's span convention
}

// mapping is one expected output: its triples sorted by variable.
type mapping []triple

// key is the canonical text of a mapping, the unit of set comparison.
func (m mapping) key() string {
	var b strings.Builder
	for _, t := range m {
		fmt.Fprintf(&b, "%s:%d-%d;", t.v, t.start, t.end)
	}
	return b.String()
}

// field appends the triple for text[lo:hi].
func (m mapping) field(v string, lo, hi int) mapping {
	return append(m, triple{v, lo + 1, hi + 1})
}

// eachLine calls fn with every newline-terminated line of text and the
// byte offset it starts at.
func eachLine(text string, fn func(line string, off int)) {
	for off := 0; off < len(text); {
		n := strings.IndexByte(text[off:], '\n')
		if n < 0 {
			return // an unterminated tail matches none of the queries
		}
		fn(text[off:off+n], off)
		off += n + 1
	}
}

// weblogTruth expects one mapping per access-log line: m, p and st
// always, r exactly when the line carries a " ref=" field.
func weblogTruth(text string) []mapping { return logTruth(text, false) }

// sparseTruth expects a mapping only for TRACE /admin/… lines.
func sparseTruth(text string) []mapping { return logTruth(text, true) }

// logTruth reads lines of the form
//
//	ip SP method SP path SP status SP bytes SP "agent" [SP ref=referer]
func logTruth(text string, traceOnly bool) []mapping {
	var out []mapping
	eachLine(text, func(line string, off int) {
		f := strings.SplitN(line, " ", 6)
		if len(f) != 6 {
			return
		}
		method, path, status := f[1], f[2], f[3]
		if traceOnly != (method == "TRACE") || traceOnly && !strings.HasPrefix(path, "/admin/") {
			return
		}
		mOff := off + len(f[0]) + 1
		pOff := mOff + len(method) + 1
		sOff := pOff + len(path) + 1
		m := mapping{}.field("m", mOff, mOff+len(method)).
			field("p", pOff, pOff+len(path))
		if i := strings.Index(line, `" ref=`); i >= 0 {
			m = m.field("r", off+i+len(`" ref=`), off+len(line))
		}
		m = m.field("st", sOff, sOff+len(status))
		out = append(out, m)
	})
	return out
}

// landTruth expects one mapping per registry row: name and id always,
// t exactly on seller rows that carry a tax amount, p exactly on buyer
// rows.
func landTruth(text string) []mapping {
	var out []mapping
	eachLine(text, func(line string, off int) {
		colon := strings.Index(line, ": ")
		idAt := strings.Index(line, ", ID")
		if colon < 0 || idAt < 0 {
			return
		}
		idEnd := idAt + len(", ID")
		for idEnd < len(line) && line[idEnd] >= '0' && line[idEnd] <= '9' {
			idEnd++
		}
		m := mapping{}.field("id", off+idAt+len(", ID"), off+idEnd).
			field("name", off+colon+2, off+idAt)
		switch rest := line[idEnd:]; {
		case strings.HasPrefix(rest, ", P"):
			m = m.field("p", off+idEnd+len(", P"), off+len(line))
		case strings.HasPrefix(rest, ", $"):
			m = m.field("t", off+idEnd+len(", $"), off+len(line))
		}
		out = append(out, m)
	})
	return out
}

// checkResults compares one document's decoded results with the truth
// in full: the same number of mappings, the same set of them, and each
// span's content equal to the text it names.
func checkResults(text string, want []mapping, got []client.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d mappings, want %d", len(got), len(want))
	}
	wantKeys := make(map[string]bool, len(want))
	for _, m := range want {
		wantKeys[m.key()] = true
	}
	for _, res := range got {
		m := make(mapping, 0, len(res))
		for v, sp := range res {
			if sp.Start < 1 || sp.End < sp.Start || sp.End > len(text)+1 {
				return fmt.Errorf("variable %s: span (%d, %d) outside the %d-rune document", v, sp.Start, sp.End, len(text))
			}
			if c := text[sp.Start-1 : sp.End-1]; c != sp.Content {
				return fmt.Errorf("variable %s: content %q, document has %q at (%d, %d)", v, sp.Content, c, sp.Start, sp.End)
			}
			m = append(m, triple{v, sp.Start, sp.End})
		}
		sort.Slice(m, func(i, j int) bool { return m[i].v < m[j].v })
		k := m.key()
		if !wantKeys[k] {
			return fmt.Errorf("unexpected or repeated mapping %s", k)
		}
		delete(wantKeys, k)
	}
	return nil
}
