package service

import (
	"context"
	"strings"
	"testing"
)

// TestDFAStatsSurface asserts the dfa.* aggregate moves with request
// traffic: after serving a letter-heavy document twice, the tracked
// cache reports resident states and hits, and a third request interns
// no new state.
func TestDFAStatsSurface(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	q := Query{Expr: sellerExpr}
	doc := strings.Repeat("padding line before the rows\n", 4) + "Seller: Ana, ID7\n"
	for i := 0; i < 2; i++ {
		if _, err := svc.Extract(ctx, q, doc); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats().DFA
	if st.Caches != 1 {
		t.Fatalf("tracked caches = %d, want 1: %+v", st.Caches, st)
	}
	if st.States == 0 || st.Hits == 0 {
		t.Fatalf("dfa stats did not move with traffic: %+v", st)
	}
	if st.Truncated {
		t.Fatalf("one cache cannot truncate the index: %+v", st)
	}

	// The warmed cache serves the same document without discovering
	// new states.
	if _, err := svc.Extract(ctx, q, doc); err != nil {
		t.Fatal(err)
	}
	if after := svc.Stats().DFA.States; after != st.States {
		t.Fatalf("warmed cache still discovered states: %d → %d", st.States, after)
	}
}
