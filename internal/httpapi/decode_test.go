package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"spanners/client"
	"spanners/internal/docstore"
	"spanners/internal/service"
	"spanners/internal/workload"
)

// decodeTargets are the request bodies of spand and spangate: each
// makes a zero value and the fields decodeObject decodes into it. The
// extraction bodies are the client's types, which spand and the gate
// both decode with ExtractFields and StreamFields.
var decodeTargets = []struct {
	name string
	make func() (any, []Field)
}{
	{"extract", func() (any, []Field) { r := new(client.ExtractRequest); f := ExtractFields(r); return r, f[:] }},
	{"stream", func() (any, []Field) { r := new(client.StreamRequest); f := StreamFields(r); return r, f[:] }},
	{"put document", func() (any, []Field) { r := new(putDocumentRequest); f := r.fields(); return r, f[:] }},
	{"patch document", func() (any, []Field) { r := new(docstore.Splice); f := spliceFields(r); return r, f[:] }},
	{"register", func() (any, []Field) { r := new(registerRequest); f := r.fields(); return r, f[:] }},
}

// checkDecode fails t unless decodeObject accepts body into every
// decode target exactly when json.Unmarshal does, with the same value.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	for _, tg := range decodeTargets {
		got, fields := tg.make()
		err := decodeObject(body, fields)
		want, _ := tg.make()
		wantErr := json.Unmarshal(body, want)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s %q: decodeObject err %v, encoding/json err %v", tg.name, body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q: decodeObject %#v, encoding/json %#v", tg.name, body, got, want)
		}
	}
}

// FuzzDecodeBody: on arbitrary bytes, every request body of spand and
// spangate decodes as encoding/json decodes it, or both refuse it.
func FuzzDecodeBody(f *testing.F) {
	rows := make([]string, 8)
	for i := range rows {
		rows[i] = workload.LandRegistry(workload.LandRegistryOptions{Rows: 4, TaxProb: 0.5, Seed: int64(i + 1)})
	}
	log := workload.WebLog(workload.WebLogOptions{Lines: 8, ReferProb: 0.5, Seed: 3})
	for _, v := range []any{
		// The four benchmark workloads' bodies, smaller.
		client.StreamRequest{Query: client.Query{Spanner: "weblog@v1"}, Doc: log},
		client.ExtractRequest{Query: client.Query{Expr: `.*m{TRACE} (p{/admin/[^ ]*}).*`}, Docs: []string{log}},
		client.ExtractRequest{Query: client.Query{Expr: `.*(Seller|Buyer): name{[^,\n]*}.*`, Limit: 5}, Docs: rows},
		client.ExtractRequest{Query: client.Query{Spanner: "weblog@v1"}, DocIDs: []string{"log-0"}},
		client.Splice{Offset: 10, DeleteLen: 2, Insert: "GET /x\n"},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, seed := range []string{
		`{"text": "a\nb", "expr": "x{a}", "algebra": "a ⋈ b"}`,
		// Keys matched by case folding: ſ folds to s, K (Kelvin) to k.
		`{"EXPR": "a", "Docs": ["x"], "DOC_IDS": ["y"], "Limit": 3, "Offset": 1, "DELETE_len": 2}`,
		`{"ſpanner": "s", "\u017fpanner": "t", "K": 1, "Text": "k", "inſert": "i"}`,
		`{"expr": "a", "Expr": "b", "EXPR": "c"}`,
		// Duplicate keys: the last wins, and a list decodes over the last.
		`{"docs": ["a", "b", "c"], "docs": ["x"], "docs": ["y", null, null, null]}`,
		`{"docs": ["a"], "docs": [], "docs": [null]}`,
		`{"limit": 1, "limit": 2, "doc": "a", "doc": "b"}`,
		// null everywhere.
		`null`, ` null `, `{"expr": null, "docs": null, "limit": null, "doc": null, "text": null, "offset": null}`,
		`{"docs": ["a"], "docs": null}`, `{"docs": [null, "a", null]}`, `{"doc_ids": [null]}`,
		// Unknown keys with nested values.
		`{"x": {"a": [1, {"b": null}, true, false, -0.5e+3], "c": "d\u00e9"}, "expr": "e", "y": []}`,
		`{"x": {"a": 1,}}`, `{"x": [1 2]}`, `{"x": {"a" 1}}`, `{"x": {1: 2}}`, `{"x": tru}`, `{"x": nul}`,
		`{"x": "\q"}`, "{\"x\": \"\x01\"}", `{"x": [}`,
		// Numbers an int field refuses, and ones it takes.
		`{"limit": 1.0}`, `{"limit": 1e2}`, `{"limit": 9223372036854775808}`, `{"limit": -9223372036854775809}`,
		`{"limit": 9223372036854775807}`, `{"limit": -0}`, `{"limit": 01}`, `{"limit": -}`, `{"limit": +1}`,
		`{"limit": 1.}`, `{"limit": .5}`, `{"limit": 1e}`, `{"limit": "5"}`, `{"offset": -5, "delete_len": 0}`,
		// Escapes, surrogates and invalid UTF-8, in values and keys.
		`{"doc": "a\nb\t\"q\"\\\/\u00e9\ud83d\ude00\u2028"}`, `{"\u0064oc": "x", "d\u006fcs": ["y"]}`,
		`{"doc": "\ud800", "text": "\udc00x", "insert": "\ud800\u0041", "expr": "\ud800\ud800\udc00"}`,
		`{"doc": "\u12"}`, `{"doc": "\"}`, `{"doc": "\\\\"}`, `{"doc": "a\\"}`,
		"{\"doc\": \"bad \xff\xfe utf8 \xc3 \xed\xa0\x80\", \"\xffkey\": 1, \"do\xffc\": \"z\"}",
		// Wrong types for known keys.
		`{"docs": "a"}`, `{"docs": [1]}`, `{"docs": [["a"]]}`, `{"expr": 5}`, `{"doc": ["a"]}`, `{"expr": {}}`,
		// Trailing values and other malformed bodies.
		`{"expr": "a"} {"expr": "b"}`, `{"expr": "a"}[]`, `{} x`, "{\"expr\": \"a\"}\n\t ", `{"expr": "a"`,
		`[]`, `""`, `1`, ``, ` `, `{`, `{,}`, `{"a": 1,}`, `{"a" 1}`, `{"docs": ["a",]}`, `{"docs": [,"a"]}`,
		`{"docs": ["a" "b"]}`, "\ufeff{}", `{"a":1}}`, `nullx`, `{"expr": "a",, "doc": "b"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeObjectNesting: an unknown value may nest as deeply as
// encoding/json allows, the body's object included, and no deeper.
// (Kept out of FuzzDecodeBody's seeds, whose mutations of a 20 KB
// input minimize slowly.)
func TestDecodeObjectNesting(t *testing.T) {
	for _, depth := range []int{maxNesting - 1, maxNesting} {
		checkDecode(t, []byte(`{"x": `+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`))
		checkDecode(t, []byte(`{"x": `+strings.Repeat(`{"a":`, depth)+"1"+strings.Repeat("}", depth)+`}`))
	}
	if err := decodeObject([]byte(`{"x": `+strings.Repeat("[", maxNesting)+strings.Repeat("]", maxNesting)+`}`), nil); err == nil {
		t.Fatalf("a value nested %d deep inside the body was accepted", maxNesting)
	}
}

// FuzzDocText: a document given as arbitrary literal bytes decodes to
// the string encoding/json gives, or both refuse the body.
func FuzzDocText(f *testing.F) {
	logLit, _ := json.Marshal(workload.WebLog(workload.WebLogOptions{Lines: 8, ReferProb: 0.5, Seed: 3}))
	for _, seed := range []string{
		string(logLit),
		`"a\nb\n\nc\r\n\t\"q\"\\\/"`,
		"\"line\u2028sep\u2029para <b>&amp;</b>\"",
		`"\u2028\u2029\u003cb\u003e\u0026 <b>&"`,
		`"😀 𝄞"`,
		`"\ud800"`, `"\udc00x"`, `"\ud800A"`, `"\ud800𐀀"`, `"\ud800\u12"`,
		`"\u0000"`,
		"\"bad \xff\xfe utf8 \xc3 \xed\xa0\x80 tail\xe2\x82\"",
		`"abc\"`, `"\u12"`, `"\`, `"\x"`, `"`, `""`,
		` "a" `, `null`, `1`, `{}`, `"a" "b"`, "\"\x01\"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, lit []byte) {
		checkDecode(t, append(append([]byte(`{"doc":`), lit...), '}'))
	})
}

// weblogBody is a stream request holding one escaped web log of about
// 29 KB, and the log.
func weblogBody(t *testing.T) ([]byte, string) {
	t.Helper()
	doc := workload.WebLog(workload.WebLogOptions{Lines: 500, ReferProb: 0.3, Seed: 11})
	body, err := json.Marshal(map[string]string{"expr": `.*x{GET}.*`, "doc": doc})
	if err != nil {
		t.Fatal(err)
	}
	return body, doc
}

// streamDecoders are the two ways a stream body is decoded: spand's
// (server.decodeBody) and spangate's (Gate.decodeBody, which is
// DecodeBody under the gate's cap). Each returns the decoded document.
var streamDecoders = []struct {
	name   string
	decode func(w http.ResponseWriter, r *http.Request) (string, bool)
}{
	{"spand", func(w http.ResponseWriter, r *http.Request) (string, bool) {
		var req client.StreamRequest
		f := StreamFields(&req)
		ok := (&server{maxBody: DefaultMaxBody}).decodeBody(w, r, f[:])
		return req.Doc, ok
	}},
	{"gate", func(w http.ResponseWriter, r *http.Request) (string, bool) {
		var req client.StreamRequest
		f := StreamFields(&req)
		ok := DecodeBody(w, r, DefaultMaxBody, f[:])
		return req.Doc, ok
	}},
}

// TestDecodeBodyCopiesDocumentOnce: decoding a body that holds one
// 29 KB escaped web log allocates at most 1.3× the document's bytes,
// in spand and in the gate. encoding/json alone unquotes the document
// into scratch and copies it again (2.26×).
func TestDecodeBodyCopiesDocumentOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body, doc := weblogBody(t)
	for _, dec := range streamDecoders {
		w := httptest.NewRecorder()
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, "/v1/extract/stream", rd)
		var got string
		decode := func() {
			rd.Reset(body)
			var ok bool
			if got, ok = dec.decode(w, r); !ok {
				t.Fatalf("%s: decodeBody: %d %s", dec.name, w.Code, w.Body)
			}
		}
		decode()
		if got != doc {
			t.Fatalf("%s: decoded document differs from the one encoded", dec.name)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(doc))
		if perByte > 1.3 {
			t.Errorf("%s: decoding a %d-byte document allocates %.2f× its bytes, want at most 1.3×", dec.name, len(doc), perByte)
		}
		t.Logf("%s: %d-byte document in a %d-byte body: %.2f× its bytes", dec.name, len(doc), len(body), perByte)
	}
}

// TestDecodeBodyAllocs: the 128-document body of the batch_rows
// workload decodes in one object per document plus a small constant,
// and in at most 1.3× the documents' bytes, in spand and in the gate.
func TestDecodeBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	docs := make([]string, 128)
	docBytes := 0
	for i := range docs {
		docs[i] = workload.LandRegistry(workload.LandRegistryOptions{Rows: 4, TaxProb: 0.5, Seed: int64(i + 1)})
		docBytes += len(docs[i])
	}
	body, err := json.Marshal(client.ExtractRequest{
		Query: client.Query{Expr: `.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`},
		Docs:  docs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dec := range []struct {
		name   string
		decode func(w http.ResponseWriter, r *http.Request) ([]string, bool)
	}{
		{"spand", func(w http.ResponseWriter, r *http.Request) ([]string, bool) {
			var req client.ExtractRequest
			f := ExtractFields(&req)
			ok := (&server{maxBody: DefaultMaxBody}).decodeBody(w, r, f[:])
			return req.Docs, ok
		}},
		{"gate", func(w http.ResponseWriter, r *http.Request) ([]string, bool) {
			var req client.ExtractRequest
			f := ExtractFields(&req)
			ok := DecodeBody(w, r, DefaultMaxBody, f[:])
			return req.Docs, ok
		}},
	} {
		w := httptest.NewRecorder()
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, "/v1/extract", rd)
		var got []string
		decode := func() {
			rd.Reset(body)
			var ok bool
			if got, ok = dec.decode(w, r); !ok {
				t.Fatalf("%s: decodeBody: %d %s", dec.name, w.Code, w.Body)
			}
		}
		decode()
		if !reflect.DeepEqual(got, docs) {
			t.Fatalf("%s: decoded documents differ from the ones encoded", dec.name)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / runs
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(docBytes)
		if objects > float64(len(docs)+16) {
			t.Errorf("%s: decoding %d documents allocates %.0f objects, want at most %d", dec.name, len(docs), objects, len(docs)+16)
		}
		if perByte > 1.3 {
			t.Errorf("%s: decoding %d bytes of documents allocates %.2f× their bytes, want at most 1.3×", dec.name, docBytes, perByte)
		}
		t.Logf("%s: %d documents, %d bytes, in a %d-byte body: %.0f objects, %.2f× their bytes", dec.name, len(docs), docBytes, len(body), objects, perByte)
	}
}

// TestDecodedDocumentOutlivesBodyBuffer: the decoded document shares
// no bytes with the pooled body buffer, so the next request reusing
// the buffer cannot change it, in spand and in the gate.
func TestDecodedDocumentOutlivesBodyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	logBody, doc := weblogBody(t)
	plainBody := []byte(`{"doc": "plain text, nothing escaped"}`)
	for _, dec := range streamDecoders {
		for _, c := range []struct {
			body []byte
			doc  string
		}{{logBody, doc}, {plainBody, "plain text, nothing escaped"}} {
			w := httptest.NewRecorder()
			got, ok := dec.decode(w, httptest.NewRequest(http.MethodPost, "/v1/extract/stream", bytes.NewReader(c.body)))
			if !ok {
				t.Fatalf("%s: decodeBody: %d %s", dec.name, w.Code, w.Body)
			}
			buf := bodyBufPool.Get().(*bytes.Buffer)
			if !bytes.Equal(buf.Bytes(), c.body) {
				t.Fatal("the body buffer did not return to the pool")
			}
			b := buf.Bytes()
			for i := range b {
				b[i] = 'X'
			}
			bodyBufPool.Put(buf)
			if got != c.doc {
				t.Fatalf("%s: overwriting the body buffer changed the decoded document to %.40q…", dec.name, got)
			}
		}
	}
}

// TestConcurrentExtractReusesResultBuffers: concurrent /v1/extract
// requests, inline and by reference, each get their own results,
// although every request releases its result buffers for the next once
// its response is written. Run it under -race -count=10.
func TestConcurrentExtractReusesResultBuffers(t *testing.T) {
	const expr = `.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`
	svc := service.New(service.Config{Workers: 2})
	h := New(svc, Options{})
	ctx := context.Background()
	q := service.Query{Expr: expr}
	docs := make([]string, 16)
	for i := range docs {
		docs[i] = workload.LandRegistry(workload.LandRegistryOptions{Rows: 2 + i%5, TaxProb: 0.5, Seed: int64(i)})
	}
	want, err := svc.ExtractBatch(ctx, q, docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs[:4] {
		if _, err := svc.Documents().Put(fmt.Sprint("d", i), doc); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				lo := (g*7 + i*3) % len(docs)
				picked := docs[lo:min(lo+1+i%6, len(docs))]
				id := (g + i) % 4
				body, err := json.Marshal(map[string]any{"expr": expr, "docs": picked, "doc_ids": []string{fmt.Sprint("d", id)}})
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/extract", bytes.NewReader(body)))
				var resp struct{ Results [][]json.RawMessage }
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("status %d, body %.200s: %v", rec.Code, rec.Body, err)
					return
				}
				expect := append(append([][]service.Result{}, want[lo:lo+len(picked)]...), want[id])
				if got, exp := fmt.Sprintf("%s", resp.Results), fmt.Sprintf("%s", expect); got != exp {
					t.Errorf("request %d.%d: results\n%s\nwant\n%s", g, i, got, exp)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// plainLenBytes is plainLen a byte at a time, as it read before it
// tested words.
func plainLenBytes(s []byte) int {
	for i := 0; i < len(s); {
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

// TestPlainLenWordAtATime: each byte a word test must catch — a quote,
// a backslash, a control byte, a high bit, a valid multi-byte rune and
// an invalid one — at every offset 0–15 of plain strings 16–24 bytes
// long, where plainLen answers what the byte loop answers.
func TestPlainLenWordAtATime(t *testing.T) {
	for _, ins := range []string{`"`, `\`, "\x1f", "\x80", "é", "€", "\xe2\x82"} {
		for n := 16; n <= 24; n++ {
			for off := 0; off < 16; off++ {
				s := []byte(strings.Repeat("a~ z0", 5)[:n])
				s = append(append(s[:off:off], ins...), s[off:]...)
				if got, want := plainLen(s), plainLenBytes(s); got != want {
					t.Errorf("%q: plainLen %d, the byte loop %d", s, got, want)
				}
			}
		}
	}
}
