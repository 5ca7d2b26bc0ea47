package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"sync"

	"spanners/client"
)

// Single-flight coalescing: identical (query, document) units from
// concurrent requests — or duplicates within one batch — execute
// upstream once. The first arrival leads and runs the extraction; the
// rest wait for its result. A leader that dies of its own request's
// cancellation does not poison the waiters: they re-elect and retry,
// because the work itself was never attempted to completion. The
// upstream call carries the leader's request context, so the shard
// sees (and traces) the leader's X-Request-ID; a waiter's own ID
// reaches no shard unless it re-elects.

// flightCall is one in-flight unit of extraction work.
type flightCall struct {
	done chan struct{}
	res  json.RawMessage
	err  error
}

// flightGroup is the in-flight unit map.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// lead returns the call for key and whether the caller is its leader.
// Leaders must finish with complete.
func (f *flightGroup) lead(key string) (*flightCall, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.m[key]; ok {
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	f.m[key] = c
	return c, true
}

// complete publishes the leader's result and removes the key, so the
// next identical unit starts fresh work instead of reading a stale
// memo — coalescing is about concurrent duplicates, not caching.
func (f *flightGroup) complete(key string, c *flightCall, res json.RawMessage, err error) {
	c.res, c.err = res, err
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	close(c.done)
}

// await blocks until the leader completes or ctx ends.
func (f *flightGroup) await(ctx context.Context, c *flightCall) (json.RawMessage, error) {
	select {
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-c.done:
		return c.res, c.err
	}
}

// unitKey identifies one (query, document) extraction unit. Inline
// text and store references can never collide (distinct prefixes),
// and the query is keyed by its canonical JSON — struct encoding
// order is fixed, so equal queries render equal keys.
func unitKey(q client.Query, u unit) string {
	qk, _ := json.Marshal(q)
	if u.docID != "" {
		return string(qk) + "\x00i\x00" + u.docID
	}
	return string(qk) + "\x00d\x00" + u.doc
}

// leaderCanceled reports whether a coalesced result died of the
// LEADER's context rather than the work itself, in which case a
// waiter should re-elect and run the unit.
func leaderCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
