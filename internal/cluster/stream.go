package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"spanners/client"
	"spanners/internal/httpapi"
)

// handleStream proxies one NDJSON streaming extraction to a shard,
// forwarding each mapping line verbatim under the same contract as
// spand itself: the first line is flushed at once and every later one
// is written within the httpapi.LineWriter delay bound (1 ms) of
// arriving — the gate adds a network hop, not an unbounded buffer, so
// the client still observes the enumerator's polynomial delay end to
// end.
//
// Failover happens only before the stream commits: a shard that
// cannot be reached, answers an error, or sits on its headers past
// the per-attempt timeout is abandoned for the next healthy shard
// with backoff (nothing has been written yet, so the retry is
// invisible). Once bytes flow, a dying shard aborts the downstream
// connection instead of ending the body cleanly — a truncated stream
// must never read as a complete result set.
func (g *Gate) handleStream(w http.ResponseWriter, r *http.Request) {
	var req client.StreamRequest
	if f := httpapi.StreamFields(&req); !g.decodeBody(w, r, f[:]) {
		return
	}
	ctx := r.Context()
	var owner *shard
	if req.DocID != "" {
		owner = g.owner(req.DocID)
		if owner.open.Load() {
			writeUpstream(w, fmt.Errorf("%w: document owner %s circuit open", errNoShards, owner.name()))
			return
		}
	}
	tried := map[*shard]bool{}
	var lastErr error
	for attempt := 0; ; attempt++ {
		target := owner
		if target == nil {
			target = g.pick(tried, attempt)
		}
		if target == nil {
			if lastErr != nil {
				writeUpstream(w, fmt.Errorf("%w (last attempt: %v)", errNoShards, lastErr))
			} else {
				writeUpstream(w, errNoShards)
			}
			return
		}
		err := g.streamFrom(ctx, w, target, req)
		switch {
		case err == nil:
			return
		case errors.Is(err, errStreamCommitted):
			// Bytes already reached the client: sever the connection so
			// truncation is visible, exactly like a single spand whose
			// enumeration died mid-stream.
			g.log.Warn("stream died after commit", "shard", target.name(), "error", errors.Unwrap(err))
			panic(http.ErrAbortHandler)
		case !g.retryable(err) || ctx.Err() != nil:
			writeUpstream(w, err)
			return
		}
		lastErr = err
		tried[target] = true
		if attempt >= g.retries {
			if !isTyped(err) {
				err = fmt.Errorf("%w (retries exhausted: %v)", errNoShards, err)
			}
			writeUpstream(w, err)
			return
		}
		g.counters.retries.Add(1)
		if err := g.backoff(ctx, attempt); err != nil {
			writeUpstream(w, err)
			return
		}
	}
}

// errStreamCommitted wraps a failure that happened after response
// bytes were already written downstream — past the failover horizon.
var errStreamCommitted = errors.New("stream failed after commit")

// streamFrom runs one streaming attempt against sh. The per-attempt
// timeout covers connecting and receiving response headers; once the
// upstream stream exists the only deadline left is the caller's. The
// first forwarded line is flushed before the next read, so time to
// first byte is the shard's, not a buffer's; later lines reach the
// client within the LineWriter's delay bound.
func (g *Gate) streamFrom(ctx context.Context, w http.ResponseWriter, sh *shard, req client.StreamRequest) error {
	// The stream must outlive the per-attempt window, but a shard
	// sitting on its headers must not stall failover: cancel manually
	// on a headers timer instead of a context deadline.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var timedOut atomic.Bool
	var headerTimer *time.Timer
	if g.attemptTimeout > 0 {
		headerTimer = time.AfterFunc(g.attemptTimeout, func() {
			timedOut.Store(true)
			cancel()
		})
	}
	st, err := sh.c.ExtractStream(sctx, req)
	if headerTimer != nil {
		headerTimer.Stop()
	}
	if err == nil && timedOut.Load() {
		// The timer fired in the instant the headers landed: sctx is
		// canceled and the stream is doomed — treat the attempt as the
		// timeout it effectively was, before committing anything.
		st.Close()
		err = fmt.Errorf("shard %s: no response headers within %v: %w",
			sh.name(), g.attemptTimeout, context.DeadlineExceeded)
	}
	if err != nil {
		switch {
		case isTyped(err):
			var ce *client.Error
			errors.As(err, &ce)
			if ce.Status < 500 {
				sh.note(outcomeClientError)
			} else {
				sh.note(outcomeError)
			}
			sh.recordSuccess()
		case ctx.Err() != nil:
			return context.Cause(ctx)
		case timedOut.Load():
			sh.note(outcomeTimeout)
			sh.recordFailure(g.failThreshold)
			err = fmt.Errorf("shard %s: no response headers within %v: %w",
				sh.name(), g.attemptTimeout, context.DeadlineExceeded)
		default:
			sh.note(outcomeError)
			sh.recordFailure(g.failThreshold)
		}
		return err
	}
	defer st.Close()
	sh.recordSuccess()

	// Headers are in hand: commit the NDJSON response and forward
	// line by line through a LineWriter, which flushes the first line
	// at once and coalesces the rest under its delay bound. The
	// deferred Close writes what is buffered before any abort.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
	lw := httpapi.NewLineWriter(w)
	defer lw.Close()
	first := true
	start := time.Now()
	for {
		line, err := st.NextRaw()
		if err != nil {
			if errors.Is(err, io.EOF) {
				sh.note(outcomeOK)
				return nil
			}
			sh.note(outcomeError)
			sh.recordFailure(g.failThreshold)
			return fmt.Errorf("%w: shard %s: %v", errStreamCommitted, sh.name(), err)
		}
		if first {
			g.ttfb.Observe(time.Since(start))
			first = false
		}
		if err := lw.WriteLine(line); err != nil {
			return fmt.Errorf("%w: downstream write: %v", errStreamCommitted, err)
		}
		g.counters.streamedLines.Add(1)
	}
}
