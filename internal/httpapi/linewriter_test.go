package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"spanners/internal/service"
	"spanners/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// recordingWriter is an http.ResponseWriter that records the body and
// counts Write and Flush calls. It is safe for the concurrent reads a
// test makes while a LineWriter's timer writes, and a warm one
// allocates nothing.
type recordingWriter struct {
	mu       sync.Mutex
	header   http.Header
	body     []byte
	writes   int
	flushes  int
	firstLen int   // length of the first Write
	failAt   int   // when > 0, the failAt-th Write fails
	lastAt   int64 // time of the last Write, UnixNano
}

func newRecordingWriter() *recordingWriter {
	return &recordingWriter{header: http.Header{}}
}

func (r *recordingWriter) Header() http.Header { return r.header }

func (r *recordingWriter) WriteHeader(int) {}

func (r *recordingWriter) Write(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes++
	if r.writes == r.failAt {
		return 0, errors.New("downstream gone")
	}
	if r.writes == 1 {
		r.firstLen = len(b)
	}
	r.body = append(r.body, b...)
	r.lastAt = time.Now().UnixNano()
	return len(b), nil
}

func (r *recordingWriter) Flush() {
	r.mu.Lock()
	r.flushes++
	r.mu.Unlock()
}

// reset empties the recorder, keeping its buffer.
func (r *recordingWriter) reset() {
	r.mu.Lock()
	r.body, r.writes, r.flushes, r.firstLen = r.body[:0], 0, 0, 0
	r.mu.Unlock()
}

// snapshot returns a copy of the body and the Write and Flush counts.
func (r *recordingWriter) snapshot() (body []byte, writes, flushes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.body...), r.writes, r.flushes
}

// weblogStreamLines returns the weblog_stream shape: a 96-line log
// and the NDJSON lines the stream endpoint owes for it.
func weblogStreamLines(t testing.TB, svc *service.Service) (string, [][]byte) {
	t.Helper()
	doc := workload.WebLog(workload.WebLogOptions{Lines: 96, ReferProb: 0.35, Seed: 1})
	res, err := svc.ExtractBatch(context.Background(), service.Query{Expr: weblogShape}, []string{doc})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, len(res[0]))
	for i, r := range res[0] {
		lines[i] = append([]byte(nil), r...)
	}
	if len(lines) != 96 {
		t.Fatalf("weblog shape gave %d mappings on 96 lines", len(lines))
	}
	return doc, lines
}

func ndjson(lines [][]byte) []byte {
	var out []byte
	for _, l := range lines {
		out = append(append(out, l...), '\n')
	}
	return out
}

func weblogRequest(t testing.TB, doc string) *http.Request {
	t.Helper()
	body, err := json.Marshal(map[string]any{"expr": weblogShape, "doc": doc})
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewRequest(http.MethodPost, "/v1/extract/stream", bytes.NewReader(body))
}

// TestStreamCoalescesWrites: a 96-line weblog_stream document goes out
// in at most three downstream writes, the first holding exactly line
// one, and the body is byte-identical to the extracted results, one
// per line.
func TestStreamCoalescesWrites(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	h := New(svc, Options{})
	doc, lines := weblogStreamLines(t, svc)
	want := ndjson(lines)
	for i := 0; i < 3; i++ {
		rec := newRecordingWriter()
		h.ServeHTTP(rec, weblogRequest(t, doc))
		body, writes, flushes := rec.snapshot()
		if !bytes.Equal(body, want) {
			t.Fatalf("streamed body differs from the extracted results:\n%s\nwant\n%s", body, want)
		}
		if rec.firstLen != len(lines[0])+1 {
			t.Fatalf("first write holds %d bytes, want line one (%d)", rec.firstLen, len(lines[0])+1)
		}
		if flushes != writes {
			t.Fatalf("%d writes but %d flushes; every write must be flushed", writes, flushes)
		}
		// The race detector slows enumeration enough for the 1 ms timer
		// to cut the stream into more writes; the bytes still hold.
		if !raceEnabled && writes > 3 {
			t.Fatalf("96 lines took %d downstream writes, want at most 3", writes)
		}
	}
}

// TestStreamLineDelayBound: a line produced after the first reaches
// the client within the delay bound although the producer stalls.
func TestStreamLineDelayBound(t *testing.T) {
	rec := newRecordingWriter()
	lw := NewLineWriter(rec)
	defer lw.Close()
	if err := lw.WriteLine([]byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	if body, writes, flushes := rec.snapshot(); writes != 1 || flushes != 1 || string(body) != "{\"n\":1}\n" {
		t.Fatalf("line one not flushed at once: %d writes, %d flushes, body %q", writes, flushes, body)
	}
	produced := time.Now()
	if err := lw.WriteLine([]byte(`{"n":2}`)); err != nil {
		t.Fatal(err)
	}
	// The producer stalls here; only the timer can move line two.
	const bound = 50 * time.Millisecond
	for {
		if body, _, _ := rec.snapshot(); string(body) == "{\"n\":1}\n{\"n\":2}\n" {
			rec.mu.Lock()
			waited := time.Duration(rec.lastAt - produced.UnixNano())
			rec.mu.Unlock()
			if waited < lineFlushDelay {
				t.Fatalf("line two written after %v, before the %v delay: not coalescing", waited, lineFlushDelay)
			}
			if waited > bound {
				t.Fatalf("line two waited %v, want at most %v", waited, bound)
			}
			return
		}
		if time.Since(produced) > bound {
			t.Fatalf("line two still unwritten after %v", bound)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStreamWriterAllocs: once warm, the writer allocates nothing,
// whether a stream has 96 lines or 4.
func TestStreamWriterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	_, lines := weblogStreamLines(t, service.New(service.Config{}))
	rec := newRecordingWriter()
	stream := func(lines [][]byte) func() {
		return func() {
			rec.reset()
			lw := NewLineWriter(rec)
			for _, l := range lines {
				lw.WriteLine(l)
			}
			lw.Close()
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	stream(lines)()
	big := testing.AllocsPerRun(50, stream(lines))
	small := testing.AllocsPerRun(50, stream(lines[:4]))
	if big != 0 || small != 0 {
		t.Fatalf("warm writer allocates %v per 96-line stream and %v per 4-line stream, want 0", big, small)
	}
}

// TestStreamWriterWriteError: a failed downstream write is returned to
// the producer, which stops, and nothing is written after it.
func TestStreamWriterWriteError(t *testing.T) {
	rec := newRecordingWriter()
	rec.failAt = 2
	lw := NewLineWriter(rec)
	if err := lw.WriteLine([]byte("a")); err != nil {
		t.Fatal(err)
	}
	lw.WriteLine([]byte("b"))
	deadline := time.Now().Add(2 * time.Second)
	for lw.WriteLine([]byte("c")) == nil {
		if time.Now().After(deadline) {
			t.Fatal("a failed timer write never reached the producer")
		}
		time.Sleep(time.Millisecond)
	}
	lw.Close()
	if body, writes, _ := rec.snapshot(); writes != 2 || string(body) != "a\n" {
		t.Fatalf("after the failure: %d writes, body %q", writes, body)
	}
}

// TestStreamWriterConcurrentReuse races timer flushes against producer
// writes, Close and pool reuse: producers pause around the delay so
// both the timer and the size cap fire, and every stream must still
// arrive whole and in order on its own writer. Run under -race.
func TestStreamWriterConcurrentReuse(t *testing.T) {
	const producers, streams = 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for s := 0; s < streams; s++ {
				rec := newRecordingWriter()
				lw := NewLineWriter(rec)
				var want []byte
				for i, n := 0, rng.Intn(40); i < n; i++ {
					line := fmt.Appendf(nil, `{"p":%d,"s":%d,"i":%d,"pad":%q}`,
						p, s, i, bytes.Repeat([]byte("x"), rng.Intn(4096)))
					want = append(append(want, line...), '\n')
					if err := lw.WriteLine(line); err != nil {
						errs <- err
						return
					}
					if rng.Intn(8) == 0 {
						time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond)
					}
				}
				lw.Close()
				if body, _, _ := rec.snapshot(); !bytes.Equal(body, want) {
					errs <- fmt.Errorf("producer %d stream %d: body differs (%d vs %d bytes)", p, s, len(body), len(want))
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkStreamHandler runs the weblog_stream shape (96 lines, one
// query) through the stream handler into a recording writer and
// reports the downstream writes per request.
func BenchmarkStreamHandler(b *testing.B) {
	svc := service.New(service.Config{Workers: 2})
	h := New(svc, Options{})
	doc, _ := weblogStreamLines(b, svc)
	body, err := json.Marshal(map[string]any{"expr": weblogShape, "doc": doc})
	if err != nil {
		b.Fatal(err)
	}
	rec := newRecordingWriter()
	writes := 0
	b.ReportAllocs()
	for b.Loop() {
		rec.reset()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/extract/stream", bytes.NewReader(body)))
		writes += rec.writes
	}
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}
