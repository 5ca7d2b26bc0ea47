package httpapi

import (
	"errors"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// docText is a document's text as a request body carries it. Decoding
// it unquotes the JSON string literal straight into the final string,
// one allocation of at most the literal's length, where encoding/json
// would unquote into scratch and then copy. The string never aliases
// the literal, whose buffer is pooled.
type docText string

// errNotString refuses a document given as anything but a JSON string.
var errNotString = errors.New("document text must be a JSON string")

// UnmarshalJSON decodes lit as encoding/json decodes a JSON string into
// a string: null leaves t unchanged, and a lone surrogate escape or an
// invalid UTF-8 byte becomes U+FFFD.
func (t *docText) UnmarshalJSON(lit []byte) error {
	if string(lit) == "null" {
		return nil
	}
	s, ok := unquote(lit)
	if !ok {
		return errNotString
	}
	*t = docText(s)
	return nil
}

// texts returns the documents as strings.
func texts(docs []docText) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = string(d)
	}
	return out
}

// unquote returns the string the JSON string literal lit denotes, and
// false when lit is not one.
func unquote(lit []byte) (string, bool) {
	if len(lit) < 2 || lit[0] != '"' || lit[len(lit)-1] != '"' {
		return "", false
	}
	s := lit[1 : len(lit)-1]
	n := plainLen(s)
	if n == len(s) {
		return string(s), true
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		b.Write(s[:n])
		s = s[n:]
		if len(s) == 0 {
			return b.String(), true
		}
		switch c := s[0]; {
		case c == '\\':
			r, size := unescape(s)
			if size == 0 {
				return "", false
			}
			b.WriteRune(r)
			s = s[size:]
		case c < utf8.RuneSelf:
			return "", false // a quote or a control byte
		default: // a byte of invalid UTF-8
			b.WriteRune(utf8.RuneError)
			s = s[1:]
		}
		n = plainLen(s)
	}
}

// plainLen returns the length of s's leading run of bytes that stand
// for themselves in a JSON string: valid UTF-8 without quote,
// backslash or control byte.
func plainLen(s []byte) int {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < ' ' || c == '"' || c == '\\' {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			return i
		}
		i += size
	}
	return len(s)
}

// unescape decodes the escape sequence s starts with, returning its rune
// and length, or length 0 when s starts with no valid escape. A
// surrogate pair of \u escapes is one rune; any other surrogate escape
// is U+FFFD, and the escape after it is read on its own.
func unescape(s []byte) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case '"', '\\', '/':
		return rune(s[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hexEscape(s)
		switch {
		case r < 0:
			return 0, 0
		case !utf16.IsSurrogate(r):
			return r, 6
		}
		if pair := utf16.DecodeRune(r, hexEscape(s[6:])); pair != unicode.ReplacementChar {
			return pair, 12
		}
		return unicode.ReplacementChar, 6
	}
	return 0, 0
}

// hexEscape returns the code unit of the \uXXXX escape s starts with,
// or -1 when s starts with none.
func hexEscape(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
