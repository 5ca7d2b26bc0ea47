package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"spanners/client"
	"spanners/internal/httpapi"
)

// unit is one (query, document) extraction work item: exactly one of
// an inline document or a store reference.
type unit struct {
	doc   string
	docID string
}

// handleExtract is the batch scatter/gather. The request decomposes
// into per-document units; each unit is coalesced single-flight, the
// leaders scatter across the healthy shards (inline documents
// round-robin, doc_ids to their owner), failed calls retry on the
// surviving set, and the per-document result arrays are spliced back
// in input order — byte-identical to one spand answering the whole
// batch.
func (g *Gate) handleExtract(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req client.ExtractRequest
	if f := httpapi.ExtractFields(&req); !g.decodeBody(w, r, f[:]) {
		return
	}
	units := make([]unit, 0, len(req.Docs)+len(req.DocIDs))
	for _, d := range req.Docs {
		units = append(units, unit{doc: d})
	}
	for _, id := range req.DocIDs {
		units = append(units, unit{docID: id})
	}
	results, err := g.resolve(r.Context(), req.Query, units)
	g.fanout.Observe(time.Since(start))
	if err != nil {
		writeUpstream(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Results []json.RawMessage `json:"results"`
	}{Results: results})
}

// leaderUnit is one unit this request leads: its position in the
// batch plus its single-flight handle.
type leaderUnit struct {
	idx  int
	key  string
	call *flightCall
}

// resolve turns units into their raw per-document result arrays,
// preserving unit order. An empty batch still validates the query
// against one shard, like a single spand compiling before answering.
func (g *Gate) resolve(ctx context.Context, q client.Query, units []unit) ([]json.RawMessage, error) {
	if len(units) == 0 {
		return g.validateEmpty(ctx, q)
	}
	out := make([]json.RawMessage, len(units))
	errs := make([]error, len(units))

	// Phase 1: classify. The first arrival on a (query, document) key
	// leads and will run the work; the rest coalesce onto its result.
	var (
		inline  []leaderUnit
		byOwner = map[*shard][]leaderUnit{}
		waiters []leaderUnit
	)
	for i, u := range units {
		key := unitKey(q, u)
		call, lead := g.flights.lead(key)
		lu := leaderUnit{idx: i, key: key, call: call}
		switch {
		case !lead:
			g.counters.coalesced.Add(1)
			waiters = append(waiters, lu)
		case u.docID != "":
			own := g.owner(u.docID)
			byOwner[own] = append(byOwner[own], lu)
		default:
			inline = append(inline, lu)
		}
	}

	// Phase 2: scatter the led groups concurrently. Inline documents
	// interleave round-robin over the healthy shards; doc_ids go to
	// their owner. Group goroutines write disjoint slice indices.
	var wg sync.WaitGroup
	if len(inline) > 0 {
		if healthy := g.healthy(); len(healthy) == 0 {
			for _, lu := range inline {
				g.failUnit(lu, errNoShards, errs)
			}
		} else {
			groups := make([][]leaderUnit, len(healthy))
			for j, lu := range inline {
				groups[j%len(groups)] = append(groups[j%len(groups)], lu)
			}
			for gi, grp := range groups {
				if len(grp) == 0 {
					continue
				}
				wg.Add(1)
				go func(rotate int, grp []leaderUnit) {
					defer wg.Done()
					defer g.recoverGroup(grp, errs)
					g.runGroup(ctx, q, grp, units, nil, rotate, out, errs)
				}(gi, grp)
			}
		}
	}
	for own, grp := range byOwner {
		wg.Add(1)
		go func(own *shard, grp []leaderUnit) {
			defer wg.Done()
			defer g.recoverGroup(grp, errs)
			g.runGroup(ctx, q, grp, units, own, 0, out, errs)
		}(own, grp)
	}
	wg.Wait()

	// Phase 3: collect coalesced results. A waiter whose leader died
	// of the leader's own cancellation re-elects and runs the unit
	// itself — the work was never actually attempted to completion.
	for _, wt := range waiters {
		for {
			res, err := g.flights.await(ctx, wt.call)
			if err != nil && leaderCanceled(err) && ctx.Err() == nil {
				call, lead := g.flights.lead(wt.key)
				if !lead {
					wt.call = call
					continue
				}
				grp := []leaderUnit{{idx: wt.idx, key: wt.key, call: call}}
				if u := units[wt.idx]; u.docID != "" {
					g.runGroup(ctx, q, grp, units, g.owner(u.docID), 0, out, errs)
				} else {
					g.runGroup(ctx, q, grp, units, nil, 0, out, errs)
				}
				break
			}
			out[wt.idx], errs[wt.idx] = res, err
			break
		}
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// validateEmpty handles a batch with no documents: one shard still
// sees the query so a syntax error answers 400 exactly like a single
// spand, and a well-formed query answers an empty result set.
func (g *Gate) validateEmpty(ctx context.Context, q client.Query) ([]json.RawMessage, error) {
	_, err := g.call(ctx, q, nil, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	return []json.RawMessage{}, nil
}

// failUnit records one unit's failure and releases its waiters.
func (g *Gate) failUnit(lu leaderUnit, err error, errs []error) {
	errs[lu.idx] = err
	g.flights.complete(lu.key, lu.call, nil, err)
}

// recoverGroup is deferred by every scatter goroutine. A panic there
// would kill the gate and leave the group's coalesced waiters hanging;
// instead every unit of the group not completed yet fails with the
// typed 500 a spand answers for its own panics (client.ErrInternal,
// code "internal"), which also releases its waiters, and the panic is
// counted in spand_gate_panics_total.
func (g *Gate) recoverGroup(grp []leaderUnit, errs []error) {
	v := recover()
	if v == nil {
		return
	}
	g.counters.panics.Add(1)
	g.log.Error("scatter group panicked", "panic", v)
	err := &client.Error{Status: http.StatusInternalServerError, Code: client.CodeInternal,
		Message: fmt.Sprintf("gate: scatter panicked: %v", v)}
	for _, lu := range grp {
		select {
		case <-lu.call.done: // completed before the panic
		default:
			g.failUnit(lu, err, errs)
		}
	}
}

// runGroup executes one shard-bound group of led units — one upstream
// batch call with the group's documents in unit order — then
// publishes each unit's raw result (or the group's error) to its
// single-flight waiters.
func (g *Gate) runGroup(ctx context.Context, q client.Query, grp []leaderUnit, units []unit,
	owner *shard, rotate int, out []json.RawMessage, errs []error) {
	var docs, docIDs []string
	for _, lu := range grp {
		if u := units[lu.idx]; u.docID != "" {
			docIDs = append(docIDs, u.docID)
		} else {
			docs = append(docs, u.doc)
		}
	}
	res, err := g.call(ctx, q, docs, docIDs, owner, rotate)
	if err == nil && len(res) != len(grp) {
		err = fmt.Errorf("%w: shard answered %d results for %d documents",
			errShardProtocol, len(res), len(grp))
	}
	for j, lu := range grp {
		if err != nil {
			errs[lu.idx] = err
			g.flights.complete(lu.key, lu.call, nil, err)
			continue
		}
		out[lu.idx] = res[j]
		g.flights.complete(lu.key, lu.call, res[j], nil)
	}
}

// errShardProtocol flags a shard response that does not match the
// wire contract (result count != document count).
var errShardProtocol = errors.New("shard protocol error")

// call issues one upstream batch extraction with the retry policy:
// per-attempt timeout, jittered exponential backoff, and failover
// across the surviving shards (owner-bound calls retry the owner
// only — no other shard stores its documents). Typed HTTP answers
// below 500 are the caller's problem and never retried; transport
// failures feed the circuit breaker.
func (g *Gate) call(ctx context.Context, q client.Query, docs, docIDs []string,
	owner *shard, rotate int) ([]json.RawMessage, error) {
	req := client.ExtractRequest{Query: q, Docs: docs, DocIDs: docIDs}
	tried := map[*shard]bool{}
	var lastErr error
	for attempt := 0; ; attempt++ {
		target := owner
		if target == nil {
			target = g.pick(tried, rotate+attempt)
		} else if target.open.Load() && attempt == 0 {
			// The owner's circuit is already open: fail fast, the
			// documents exist nowhere else.
			return nil, fmt.Errorf("%w: document owner %s circuit open", errNoShards, target.name())
		}
		if target == nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last attempt: %v)", errNoShards, lastErr)
			}
			return nil, errNoShards
		}
		res, err := g.attempt(ctx, target, req)
		if err == nil {
			return res, nil
		}
		if !g.retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		tried[target] = true
		if attempt >= g.retries {
			if isTyped(err) {
				return nil, err
			}
			// Retry budget spent on transport-class failures: from the
			// caller's seat the shard set is unreachable, not one bad
			// gateway hop — answer 503 so they know to come back.
			return nil, fmt.Errorf("%w (retries exhausted: %v)", errNoShards, err)
		}
		g.counters.retries.Add(1)
		if err := g.backoff(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

// pick selects the next healthy, untried shard, rotating by pos so
// concurrent groups spread instead of piling onto the first survivor.
func (g *Gate) pick(tried map[*shard]bool, pos int) *shard {
	healthy := g.healthy()
	if len(healthy) == 0 {
		return nil
	}
	for i := range healthy {
		sh := healthy[(pos+i)%len(healthy)]
		if !tried[sh] {
			return sh
		}
	}
	return nil
}

// attempt issues one upstream call under the per-attempt deadline,
// classifying the outcome on the shard's counters and feeding the
// circuit breaker: transport-class failures count toward opening it,
// any answered request (2xx or typed error) closes it.
func (g *Gate) attempt(ctx context.Context, sh *shard, req client.ExtractRequest) ([]json.RawMessage, error) {
	actx, cancel := g.attemptCtx(ctx)
	defer cancel()
	res, err := sh.c.ExtractRaw(actx, req)
	switch {
	case err == nil:
		sh.note(outcomeOK)
		sh.recordSuccess()
		return res.Results, nil
	case isTyped(err):
		var ce *client.Error
		errors.As(err, &ce)
		if ce.Status < 500 {
			sh.note(outcomeClientError)
		} else {
			sh.note(outcomeError)
		}
		sh.recordSuccess() // the shard answered; the request was the problem
		return nil, err
	case actx.Err() != nil && ctx.Err() == nil:
		// The per-attempt deadline fired while the request context is
		// still alive: the shard is slow, not the caller gone.
		sh.note(outcomeTimeout)
		sh.recordFailure(g.failThreshold)
		return nil, fmt.Errorf("shard %s: attempt timeout after %v: %w", sh.name(), g.attemptTimeout, err)
	case ctx.Err() != nil:
		return nil, context.Cause(ctx)
	default:
		sh.note(outcomeError)
		sh.recordFailure(g.failThreshold)
		return nil, fmt.Errorf("shard %s: %w", sh.name(), err)
	}
}

// isTyped reports whether err is a decoded HTTP error envelope — the
// shard answered, so the shard is alive.
func isTyped(err error) bool {
	var ce *client.Error
	return errors.As(err, &ce)
}

// retryable reports whether a failed attempt should move to another
// shard: transport failures and attempt timeouts are; typed answers
// below 500 are the request's own fault and are not. A 5xx answer
// (shard-side deadline, artifact corruption) retries too — another
// shard may hold a healthy copy or more headroom.
func (g *Gate) retryable(err error) bool {
	var ce *client.Error
	if errors.As(err, &ce) {
		return ce.Status >= 500
	}
	return !errors.Is(err, context.Canceled)
}

// firstError picks the error to surface for a batch: the first
// non-cancellation failure in unit order, falling back to the first
// failure of any kind — a typed query error beats a bystander unit's
// cancellation noise.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return first
}
