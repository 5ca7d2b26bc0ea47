package service

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"spanners/internal/obs"
	"spanners/internal/span"
)

// TestPanicRecoveredAsErrInternal: an enumerator that panics after its
// first output fails a batch worker and a StreamChan producer with
// ErrInternal instead of killing the process, and every recovered panic
// is counted in spand_panics_total.
func TestPanicRecoveredAsErrInternal(t *testing.T) {
	svc := New(Config{Workers: 2})
	c := &Compiled{svc: svc, enum: func(_ context.Context, d *span.Document, _ *obs.StageObserver, yield func([]span.Var, []span.Span) bool) error {
		yield([]span.Var{"x"}, []span.Span{d.Whole()})
		panic("enumerator bug")
	}}
	ctx := context.Background()

	b := NewBatch()
	defer b.Release()
	err := c.batch(ctx, []string{"a", "b", "c"}, b)
	if !errors.Is(err, ErrInternal) || len(b.Docs) != 0 {
		t.Fatalf("batch: results %v, err %v; want no results and ErrInternal", b.Docs, err)
	}
	if !strings.Contains(err.Error(), "enumerator bug") {
		t.Fatalf("batch error %q does not name the panic", err)
	}

	out, errc := svc.streamChan(ctx, func(yield func(Result) bool) error {
		return c.Stream(ctx, "abc", yield)
	})
	var got []string
	for r := range out {
		got = append(got, string(r))
	}
	if err := <-errc; !errors.Is(err, ErrInternal) {
		t.Fatalf("stream: terminal error %v, want ErrInternal", err)
	}
	if len(got) != 1 || got[0] != `{"x":{"start":1,"end":4,"content":"abc"}}` {
		t.Fatalf("stream delivered %q before the panic", got)
	}
	if st := svc.Stats(); st.InFlight != 0 {
		t.Fatalf("in_flight = %d after recovered panics", st.InFlight)
	}

	// At least one batch worker and the producer panicked.
	var prom bytes.Buffer
	if err := svc.Observability().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "spand_panics_total "); ok {
			if n, _ := strconv.Atoi(v); n < 2 || uint64(n) != svc.panics.Load() {
				t.Fatalf("spand_panics_total = %s, counter %d; want the same value, at least 2", v, svc.panics.Load())
			}
			return
		}
	}
	t.Fatalf("exposition has no spand_panics_total series:\n%s", prom.String())
}
