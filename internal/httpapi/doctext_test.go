package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"spanners/internal/service"
	"spanners/internal/workload"
)

// FuzzDocText: on arbitrary literal bytes the document-text decoder
// gives the string encoding/json gives, or both fail. encoding/json
// hands UnmarshalJSON the literal without the whitespace around it.
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
		var want string
		wantErr := json.Unmarshal(lit, &want)
		var got docText
		err := got.UnmarshalJSON(bytes.Trim(lit, " \t\r\n"))
		if (err != nil) != (wantErr != nil) || string(got) != want {
			t.Fatalf("%q: docText %q (err %v), encoding/json %q (err %v)", lit, got, err, want, wantErr)
		}
		var viaJSON docText
		if err := json.Unmarshal(lit, &viaJSON); (err != nil) != (wantErr != nil) || string(viaJSON) != want {
			t.Fatalf("%q through json.Unmarshal: %q (err %v), encoding/json %q (err %v)", lit, viaJSON, err, want, wantErr)
		}
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

// decodeStream decodes body as a stream request through decodeBody.
func decodeStream(t *testing.T, s *server, body []byte, req *streamRequest) {
	t.Helper()
	w := httptest.NewRecorder()
	if !s.decodeBody(w, httptest.NewRequest(http.MethodPost, "/v1/extract/stream", bytes.NewReader(body)), req) {
		t.Fatalf("decodeBody: %d %s", w.Code, w.Body)
	}
}

// TestDecodeBodyCopiesDocumentOnce: decoding a body that holds one
// 29 KB escaped web log allocates at most 1.3× the document's bytes.
// encoding/json alone unquotes the document into scratch and copies it
// again (2.26×).
func TestDecodeBodyCopiesDocumentOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body, doc := weblogBody(t)
	s := &server{maxBody: DefaultMaxBody}
	w := httptest.NewRecorder()
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/extract/stream", rd)
	var req streamRequest
	decode := func() {
		rd.Reset(body)
		req = streamRequest{}
		if !s.decodeBody(w, r, &req) {
			t.Fatalf("decodeBody: %d %s", w.Code, w.Body)
		}
	}
	decode()
	if string(req.Doc) != doc {
		t.Fatal("decoded document differs from the one encoded")
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
		t.Errorf("decoding a %d-byte document allocates %.2f× its bytes, want at most 1.3×", len(doc), perByte)
	}
	t.Logf("%d-byte document in a %d-byte body: %.2f× its bytes", len(doc), len(body), perByte)
}

// TestDecodedDocumentOutlivesBodyBuffer: the decoded document shares
// no bytes with the pooled body buffer, so the next request reusing
// the buffer cannot change it.
func TestDecodedDocumentOutlivesBodyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := &server{maxBody: DefaultMaxBody}
	logBody, doc := weblogBody(t)
	plainBody := []byte(`{"doc": "plain text, nothing escaped"}`)
	for _, c := range []struct {
		body []byte
		doc  string
	}{{logBody, doc}, {plainBody, "plain text, nothing escaped"}} {
		var req streamRequest
		decodeStream(t, s, c.body, &req)
		buf := bodyBufPool.Get().(*bytes.Buffer)
		if !bytes.Equal(buf.Bytes(), c.body) {
			t.Fatal("the body buffer did not return to the pool")
		}
		b := buf.Bytes()
		for i := range b {
			b[i] = 'X'
		}
		bodyBufPool.Put(buf)
		if string(req.Doc) != c.doc {
			t.Fatalf("overwriting the body buffer changed the decoded document to %.40q…", req.Doc)
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
