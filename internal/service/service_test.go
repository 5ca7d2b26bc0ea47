package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"spanners"
)

const sellerExpr = `.*(Seller: x{[^,\n]*},[^\n]*\n).*`

const sellerDoc = "Seller: Anna, 12 Hill St\nSeller: Bob, 1 Main Rd\nBuyer: Carl\n"

// sequentialResults is the reference implementation: compile fresh,
// ExtractAll one document at a time.
func sequentialResults(t *testing.T, expr string, docs []string) [][]Result {
	t.Helper()
	sp, err := spanners.Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	out := make([][]Result, len(docs))
	for i, text := range docs {
		d := spanners.NewDocument(text)
		out[i] = []Result{}
		for _, m := range sp.ExtractAll(d) {
			out[i] = append(out[i], EncodeMapping(d, m))
		}
	}
	return out
}

func TestExtractBatchMatchesSequential(t *testing.T) {
	docs := []string{
		sellerDoc,
		"Seller: Zoe, 9 Elm Ct\n",
		"no sales here\n",
		"",
		strings.Repeat("Seller: Kim, 4 Oak Ln\n", 10),
	}
	want := sequentialResults(t, sellerExpr, docs)
	for _, workers := range []int{1, 2, 4, 16} {
		svc := New(Config{Workers: workers})
		got, err := svc.ExtractBatch(context.Background(), Query{Expr: sellerExpr}, docs)
		if err != nil {
			t.Fatalf("workers=%d: ExtractBatch: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch results differ from sequential ExtractAll\ngot:  %v\nwant: %v", workers, got, want)
		}
	}
}

func TestExtractBatchLimit(t *testing.T) {
	svc := New(Config{})
	got, err := svc.ExtractBatch(context.Background(), Query{Expr: sellerExpr, Limit: 1}, []string{sellerDoc})
	if err != nil {
		t.Fatalf("ExtractBatch: %v", err)
	}
	if len(got[0]) != 1 {
		t.Fatalf("limit 1: got %d results", len(got[0]))
	}
}

func TestExtractRule(t *testing.T) {
	svc := New(Config{})
	q := Query{Rule: `.*<x>.* && x.(ab*)`}
	got, err := svc.Extract(context.Background(), q, "abb")
	if err != nil {
		t.Fatalf("Extract(rule): %v", err)
	}
	if len(got) == 0 {
		t.Fatal("rule extraction returned no mappings")
	}
	for _, r := range got {
		sp, ok := decodeResult(t, r)["x"]
		if !ok {
			t.Fatalf("mapping %v missing x", r)
		}
		if !strings.HasPrefix(sp.Content, "a") {
			t.Fatalf("x content %q does not satisfy x.(ab*)", sp.Content)
		}
	}
}

func TestBadQuery(t *testing.T) {
	svc := New(Config{})
	for _, q := range []Query{{}, {Expr: "a", Rule: "a && x.(a)"}} {
		if _, err := svc.ExtractBatch(context.Background(), q, []string{"a"}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("query %+v: err = %v, want ErrBadQuery", q, err)
		}
	}
	if _, err := svc.Extract(context.Background(), Query{Expr: "x{["}, "a"); err == nil {
		t.Fatal("malformed expression: want compile error")
	}
}

func TestCompileCaching(t *testing.T) {
	svc := New(Config{})
	docs := []string{"Seller: A, 1\n"}
	for i := 0; i < 3; i++ {
		if _, err := svc.ExtractBatch(context.Background(), Query{Expr: sellerExpr}, docs); err != nil {
			t.Fatalf("ExtractBatch #%d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.Spanners.Misses != 1 || st.Spanners.Hits != 2 {
		t.Fatalf("spanner cache = %+v, want 1 miss then 2 hits", st.Spanners)
	}
	if st.Emitted == 0 {
		t.Fatal("mappings_emitted stayed 0")
	}
	// One compilation happened: the engine-selection counters must
	// record exactly one sequential, compiled program.
	if st.Engine.SequentialSpanners != 1 || st.Engine.CompiledPrograms != 1 {
		t.Fatalf("engine stats = %+v, want 1 sequential compiled spanner", st.Engine)
	}
	if st.Engine.CompileNanos <= 0 {
		t.Fatalf("compile_ns_total = %d, want > 0", st.Engine.CompileNanos)
	}
}

// TestStreamDelivers checks that ExtractStream yields every mapping
// ExtractAll produces, in the same order.
func TestStreamDelivers(t *testing.T) {
	svc := New(Config{})
	want := sequentialResults(t, sellerExpr, []string{sellerDoc})[0]
	got := []Result{}
	err := svc.ExtractStream(context.Background(), Query{Expr: sellerExpr}, sellerDoc, func(r Result) bool {
		got = append(got, slices.Clone(r)) // r is borrowed
		return true
	})
	if err != nil {
		t.Fatalf("ExtractStream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream results differ\ngot:  %v\nwant: %v", got, want)
	}
}

// bigDoc produces quadratically many mappings under x{a*}, enough
// that full enumeration takes macroscopic time.
func bigDoc() (Query, string) {
	return Query{Expr: `a*x{a*}a*`}, strings.Repeat("a", 250)
}

// TestStreamCancellationNoLeak cancels a stream mid-enumeration and
// verifies the producer goroutine exits.
func TestStreamCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	q, doc := bigDoc()
	svc := New(Config{})

	ctx, cancel := context.WithCancel(context.Background())
	out, errc := svc.StreamChan(ctx, q, doc)
	// Take a few results, then abandon the stream.
	for i := 0; i < 3; i++ {
		if _, ok := <-out; !ok {
			t.Fatal("stream closed before 3 results")
		}
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("terminal error = %v, want context.Canceled", err)
	}
	for range out {
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after cancellation", before, after)
	}
	if st := svc.Stats(); st.InFlight != 0 {
		t.Fatalf("in_flight = %d after stream ended", st.InFlight)
	}
}

// TestBatchCancellation cancels mid-batch and checks the call returns
// the context error rather than hanging or returning partial data.
func TestBatchCancellation(t *testing.T) {
	q, doc := bigDoc()
	docs := make([]string, 32)
	for i := range docs {
		docs[i] = doc
	}
	svc := New(Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := svc.ExtractBatch(ctx, q, docs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled batch must not return partial results")
	}
	if st := svc.Stats(); st.InFlight != 0 {
		t.Fatalf("in_flight = %d after cancelled batch", st.InFlight)
	}
}

// TestStreamFirstResultBeforeCompletion bounds the time to first
// streamed result: it must arrive while full enumeration is still far
// from done.
func TestStreamFirstResultBeforeCompletion(t *testing.T) {
	q, doc := bigDoc()
	svc := New(Config{})

	startTotal := time.Now()
	total := 0
	if err := svc.ExtractStream(context.Background(), q, doc, func(Result) bool { total++; return true }); err != nil {
		t.Fatalf("full stream: %v", err)
	}
	fullTime := time.Since(startTotal)

	startFirst := time.Now()
	err := svc.ExtractStream(context.Background(), q, doc, func(Result) bool { return false })
	firstTime := time.Since(startFirst)
	if err != nil {
		t.Fatalf("first-result stream: %v", err)
	}
	if total < 1000 {
		t.Fatalf("expected a large output set, got %d mappings", total)
	}
	if firstTime > fullTime/2 {
		t.Fatalf("first result took %v, full enumeration %v: streaming is not incremental", firstTime, fullTime)
	}
}
