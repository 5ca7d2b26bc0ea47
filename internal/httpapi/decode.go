package httpapi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"spanners/client"
)

// Every request body of spand and spangate is a flat JSON object of
// string, int and string-list fields. decodeObject decodes one in a
// single pass over the body: it validates, matches keys, and unquotes
// each string straight into its final string, where encoding/json
// would validate the body, scan it again, and unquote into scratch
// before copying. It accepts and refuses what encoding/json.Unmarshal
// does on the struct the fields describe, and decodes the same values
// (FuzzDecodeBody holds it to that).

// Field binds one key of a flat request object to the variable its
// value decodes into; stringField, intField and stringsField make one.
type Field struct {
	name string
	str  *string
	num  *int
	strs *[]string
}

// stringField decodes the string under key name into p.
func stringField(name string, p *string) Field { return Field{name: name, str: p} }

// intField decodes the integer under key name into p.
func intField(name string, p *int) Field { return Field{name: name, num: p} }

// stringsField decodes the array of strings under key name into p.
func stringsField(name string, p *[]string) Field { return Field{name: name, strs: p} }

// ExtractFields returns the fields of a POST /v1/extract body, the
// one spand and spangate decode. It is an array, so a caller that keeps
// it in a variable decodes without allocating the list.
func ExtractFields(req *client.ExtractRequest) [7]Field {
	return queryFields(&req.Query, stringsField("docs", &req.Docs), stringsField("doc_ids", &req.DocIDs))
}

// StreamFields returns the fields of a POST /v1/extract/stream body,
// the one spand and spangate decode.
func StreamFields(req *client.StreamRequest) [7]Field {
	return queryFields(&req.Query, stringField("doc", &req.Doc), stringField("doc_id", &req.DocID))
}

// queryFields returns the fields of q, the keys every extraction body
// shares, followed by the body's two document fields.
func queryFields(q *client.Query, doc, ref Field) [7]Field {
	return [7]Field{
		stringField("expr", &q.Expr),
		stringField("rule", &q.Rule),
		stringField("spanner", &q.Spanner),
		stringField("algebra", &q.Algebra),
		intField("limit", &q.Limit),
		doc, ref,
	}
}

// maxNesting is how deeply encoding/json lets arrays and objects nest,
// the body's own object included.
const maxNesting = 10000

// decodeObject decodes body, one JSON object or null with only
// whitespace around it, into fields as encoding/json.Unmarshal decodes
// it into a struct with those fields:
//   - a key names the field it equals, else the first whose name it
//     equals under bytes.EqualFold, else none;
//   - of duplicate keys the last wins, and a string list decodes over
//     the list an earlier key left;
//   - the value of an unknown key is validated and skipped;
//   - null leaves a string or an int unchanged and sets a list to nil;
//   - an int takes only an integer literal in its range.
//
// The decoded strings never alias body.
func decodeObject(body []byte, fields []Field) error {
	d := decoder{b: body}
	d.space()
	if !d.literal("null") {
		if d.peek() != '{' {
			return d.unexpected("an object")
		}
		if err := d.object(fields); err != nil {
			return err
		}
	}
	d.space()
	if d.pos < len(d.b) {
		return fmt.Errorf("invalid character %q after the body's value", d.b[d.pos])
	}
	return nil
}

// decoder reads one body; pos is the next byte, and lastKey the literal of
// the key whose value is being read, for error messages. (They quote
// the key as the body spells it, not the field's name: an error that
// held a field's name would make every decoded field escape.)
type decoder struct {
	b       []byte
	pos     int
	lastKey []byte
}

// peek returns the next byte, 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.pos < len(d.b) {
		return d.b[d.pos]
	}
	return 0
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.peek() == c {
		d.pos++
		return true
	}
	return false
}

// literal consumes lit if the body continues with it.
func (d *decoder) literal(lit string) bool {
	if end := d.pos + len(lit); end <= len(d.b) && string(d.b[d.pos:end]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// unexpected is the error for a body that does not continue with
// what is wanted.
func (d *decoder) unexpected(want string) error {
	if d.pos >= len(d.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.b[d.pos], d.pos, want)
}

// object decodes the object at pos into fields.
func (d *decoder) object(fields []Field) error {
	d.pos++
	d.space()
	if d.eat('}') {
		return nil
	}
	for {
		f, err := d.key(fields)
		if err != nil {
			return err
		}
		d.space()
		if !d.eat(':') {
			return d.unexpected("':'")
		}
		d.space()
		switch {
		case f == nil:
			err = d.skip(1)
		case d.literal("null"):
			if f.strs != nil {
				*f.strs = nil
			}
		case f.str != nil:
			err = d.stringInto(f.str)
		case f.num != nil:
			err = d.int(f.num)
		default:
			err = d.strings(f.strs)
		}
		if err != nil {
			return err
		}
		d.space()
		if d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return d.unexpected("',' or '}'")
		}
		d.space()
	}
}

// key reads the key at pos and returns the field it names, or nil.
func (d *decoder) key(fields []Field) (*Field, error) {
	if d.peek() != '"' {
		return nil, d.unexpected("a key")
	}
	end, err := d.stringEnd()
	if err != nil {
		return nil, err
	}
	lit := d.b[d.pos : end+1]
	d.pos, d.lastKey = end+1, lit
	key := lit[1 : len(lit)-1]
	if plainLen(key) < len(key) {
		s, ok := unquote(lit)
		if !ok {
			return nil, errors.New("invalid key")
		}
		key = []byte(s)
	}
	for i := range fields {
		if string(key) == fields[i].name {
			return &fields[i], nil
		}
	}
	for i := range fields {
		if bytes.EqualFold(key, []byte(fields[i].name)) {
			return &fields[i], nil
		}
	}
	return nil, nil
}

// stringEnd returns the index of the quote that closes the string
// literal at pos: the first quote after it behind an even number of
// backslashes.
func (d *decoder) stringEnd() (int, error) {
	for i := d.pos + 1; ; i++ {
		k := bytes.IndexByte(d.b[i:], '"')
		if k < 0 {
			return 0, errors.New("unexpected end of JSON input")
		}
		i += k
		j := i - 1
		for d.b[j] == '\\' { // stops at the opening quote
			j--
		}
		if (i-1-j)%2 == 0 {
			return i, nil
		}
	}
}

// stringInto decodes the string literal at pos into dst.
func (d *decoder) stringInto(dst *string) error {
	if d.peek() != '"' {
		return fmt.Errorf("%s must be a string", d.lastKey)
	}
	end, err := d.stringEnd()
	if err != nil {
		return err
	}
	s, ok := unquote(d.b[d.pos : end+1])
	if !ok {
		return fmt.Errorf("%s: invalid string", d.lastKey)
	}
	*dst, d.pos = s, end+1
	return nil
}

// int decodes the number at pos into dst, which takes an integer
// literal within its range and nothing else.
func (d *decoder) int(dst *int) error {
	start := d.pos
	if err := d.number(); err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(d.b[start:d.pos]), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("%s must be an integer in range, not %s", d.lastKey, d.b[start:d.pos])
	}
	*dst = int(n)
	return nil
}

// strings decodes the array of strings at pos into dst as
// encoding/json does: over the elements an earlier key left in dst,
// growing it past them, a null element leaving its slot as it was. A
// list that starts out empty is decoded into pooled scratch and copied
// out at its length, so growing it leaves no garbage.
func (d *decoder) strings(dst *[]string) error {
	if !d.eat('[') {
		return fmt.Errorf("%s must be an array of strings", d.lastKey)
	}
	var s []string
	var err error
	if cap(*dst) > 0 {
		s, err = d.list(*dst)
	} else {
		scratch := listPool.Get().(*[]string)
		list, e := d.list((*scratch)[:0])
		s, err = slices.Clone(list), e
		if clear(list[:cap(list)]); cap(list) <= maxPooledList {
			*scratch = list[:0]
			listPool.Put(scratch)
		}
	}
	if len(s) == 0 {
		s = []string{}
	}
	*dst = s
	return err
}

// list decodes the elements of the array whose '[' was just read over
// the slots of s and returns s cut to their number.
func (d *decoder) list(s []string) ([]string, error) {
	d.space()
	i := 0
	for !d.eat(']') {
		if i > 0 {
			if !d.eat(',') {
				return s, d.unexpected("',' or ']'")
			}
			d.space()
		}
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			s = append(s, "")
		}
		if !d.literal("null") {
			if err := d.stringInto(&s[i]); err != nil {
				return s, err
			}
		}
		i++
		d.space()
	}
	return s[:i], nil
}

// listPool recycles the scratch lists are decoded into.
var listPool = sync.Pool{New: func() any { return new([]string) }}

// maxPooledList keeps the scratch of huge lists out of the pool.
const maxPooledList = 1 << 12

// skip validates the value at pos, inside containers nested depth
// deep, and moves past it.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); c {
	case '{', '[':
		if depth++; depth > maxNesting {
			return fmt.Errorf("body nests deeper than %d", maxNesting)
		}
		d.pos++
		d.space()
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		for n := 0; !d.eat(end); n++ {
			if n > 0 {
				if !d.eat(',') {
					return d.unexpected(fmt.Sprintf("',' or '%c'", end))
				}
				d.space()
			}
			if c == '{' {
				if d.peek() != '"' {
					return d.unexpected("a key")
				}
				if err := d.skipString(); err != nil {
					return err
				}
				d.space()
				if !d.eat(':') {
					return d.unexpected("':'")
				}
				d.space()
			}
			if err := d.skip(depth); err != nil {
				return err
			}
			d.space()
		}
		return nil
	case '"':
		return d.skipString()
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.unexpected("a value")
	}
	return d.number()
}

// skipString validates the string literal at pos and moves past it.
func (d *decoder) skipString() error {
	end, err := d.stringEnd()
	if err != nil {
		return err
	}
	if !validString(d.b[d.pos+1 : end]) {
		return errors.New("invalid string")
	}
	d.pos = end + 1
	return nil
}

// number moves past the JSON number at pos.
func (d *decoder) number() error {
	b, i := d.b, d.pos
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		d.pos = i
		return d.unexpected("a value")
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			d.pos = i
			return d.unexpected("a digit")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return d.unexpected("a digit")
		}
	}
	d.pos = i
	return nil
}

// bodyBufPool recycles the buffers request bodies are read into.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBodyBytes keeps the buffers of large bodies out of the pool.
const maxPooledBodyBytes = 1 << 20

// DecodeBody reads the request body, at most maxBody bytes, into a
// pooled buffer and decodes it into fields with decodeObject. On
// failure it writes the error envelope — 413 too_large past the cap,
// 400 bad_request otherwise — and returns false. Nothing decoded
// aliases the buffer.
func DecodeBody(w http.ResponseWriter, r *http.Request, maxBody int64, fields []Field) bool {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBodyBytes {
			bodyBufPool.Put(buf)
		}
	}()
	if r.ContentLength > 0 && r.ContentLength <= maxBody {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		if err = decodeObject(buf.Bytes(), fields); err == nil {
			return true
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, client.CodeTooLarge, err.Error())
		return false
	}
	WriteError(w, http.StatusBadRequest, client.CodeBadRequest, "decode request: "+err.Error())
	return false
}

// unquote returns the string the JSON string literal lit denotes, and
// false when lit is not one. Like encoding/json it turns a lone
// surrogate escape and each byte of invalid UTF-8 into U+FFFD. The
// string is one allocation of at most the literal's length and never
// aliases lit.
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

// validString reports whether s is the inside of a JSON string
// literal, as unquote would accept it.
func validString(s []byte) bool {
	for {
		s = s[plainLen(s):]
		if len(s) == 0 {
			return true
		}
		switch c := s[0]; {
		case c == '\\':
			_, size := unescape(s)
			if size == 0 {
				return false
			}
			s = s[size:]
		case c < utf8.RuneSelf:
			return false
		default:
			s = s[1:]
		}
	}
}

// plainByte marks the ASCII bytes that stand for themselves in a JSON
// string: all but quote, backslash and the control bytes below ' '
// (0x7f stands for itself). Bytes from 0x80 are not marked: they start
// a UTF-8 sequence, which plainLen decodes.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainLen returns the length of s's leading run of bytes that stand
// for themselves in a JSON string: valid UTF-8 without quote,
// backslash or control byte. Eight ASCII bytes are one word test
// (plainWord), and a byte of a word that fails one table load.
func plainLen(s []byte) int {
	for i := 0; i < len(s); {
		if i+8 <= len(s) && plainWord(binary.LittleEndian.Uint64(s[i:])) {
			i += 8
			continue
		}
		c := s[i]
		if plainByte[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			return i
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			return i
		}
		i += size
	}
	return len(s)
}

// plainWord reports whether all eight bytes of w stand for themselves
// in a JSON string: none has its high bit set, is a control byte, a
// quote or a backslash. Each test is exact over the whole word: a
// byte's borrow reaches the bytes above it only when the byte itself
// is a hit.
func plainWord(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	q, b := w^(ones*'"'), w^(ones*'\\')
	return (w|(w-ones*' ')&^w|(q-ones)&^q|(b-ones)&^b)&highs == 0
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
