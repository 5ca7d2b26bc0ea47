package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"spanners/client"
	"spanners/internal/httpapi"
)

// Document CRUD routes to the owner shard — the one the document ID
// hashes to — and is never retried: PATCH is not idempotent, and no
// other shard stores the document anyway. Registry writes broadcast
// to every configured shard so the artifact set stays identical
// everywhere (that identity is what makes query routing stateless);
// registry reads fail over across the healthy shards.

// handleDocument proxies one document operation to its owner.
func (g *Gate) handleDocument(w http.ResponseWriter, r *http.Request) {
	own := g.owner(r.PathValue("id"))
	if own.open.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(DefaultRetryAfter))
		httpapi.WriteError(w, http.StatusServiceUnavailable, client.CodeUnavailable,
			fmt.Sprintf("document owner %s circuit open", own.name()))
		return
	}
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	resp, err := g.proxy(r.Context(), own, r, body)
	if err != nil {
		writeUpstream(w, err)
		return
	}
	defer resp.Body.Close()
	writeProxied(w, resp)
}

// handleRegistryWrite broadcasts a registry mutation (PUT or DELETE)
// to every configured shard — health notwithstanding, because a shard
// that silently misses an artifact would break routing statelessness.
// All shards must answer: the first 4xx answer passes through (the
// request is equally wrong everywhere), and any transport failure is
// a 502 naming the shard, so the operator knows the cluster would
// have diverged.
func (g *Gate) handleRegistryWrite(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var first *http.Response
	for _, sh := range g.shards {
		resp, err := g.proxy(r.Context(), sh, r, body)
		if err != nil {
			if first != nil {
				first.Body.Close()
			}
			writeUpstream(w, fmt.Errorf("registry write to shard %s: %w", sh.name(), err))
			return
		}
		if resp.StatusCode/100 != 2 {
			if first != nil {
				first.Body.Close()
			}
			defer resp.Body.Close()
			writeProxied(w, resp)
			return
		}
		if first == nil {
			first = resp
		} else {
			resp.Body.Close()
		}
	}
	defer first.Body.Close()
	// Registration is content-addressed, so every shard's 2xx body is
	// identical; relay the first.
	writeProxied(w, first)
}

// handleRegistryRead serves manifests and listings from any healthy
// shard, failing over on transport errors.
func (g *Gate) handleRegistryRead(w http.ResponseWriter, r *http.Request) {
	tried := map[*shard]bool{}
	var lastErr error
	for attempt := 0; ; attempt++ {
		sh := g.pick(tried, attempt)
		if sh == nil {
			if lastErr != nil {
				writeUpstream(w, fmt.Errorf("%w (last attempt: %v)", errNoShards, lastErr))
			} else {
				writeUpstream(w, errNoShards)
			}
			return
		}
		resp, err := g.proxy(r.Context(), sh, r, nil)
		if err == nil {
			defer resp.Body.Close()
			writeProxied(w, resp)
			return
		}
		if r.Context().Err() != nil {
			writeUpstream(w, err)
			return
		}
		lastErr = err
		tried[sh] = true
		if attempt >= g.retries {
			writeUpstream(w, err)
			return
		}
		g.counters.retries.Add(1)
		if err := g.backoff(r.Context(), attempt); err != nil {
			writeUpstream(w, err)
			return
		}
	}
}

// readBody drains the request body under the gate's cap so it can be
// replayed per shard.
func (g *Gate) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.maxBody))
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpapi.WriteError(w, http.StatusRequestEntityTooLarge, client.CodeTooLarge, err.Error())
	} else {
		httpapi.WriteError(w, http.StatusBadRequest, client.CodeBadRequest, "read request: "+err.Error())
	}
	return nil, false
}

// proxy replays the inbound request — same method, path, query and
// body — against one shard under the per-attempt deadline, counting
// the outcome and feeding the circuit breaker. The response body is
// NOT consumed; callers own it.
func (g *Gate) proxy(ctx context.Context, sh *shard, r *http.Request, body []byte) (*http.Response, error) {
	actx, cancel := g.attemptCtx(ctx)
	url := sh.c.BaseURL() + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, r.Method, url, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if id := client.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		defer cancel()
		switch {
		case ctx.Err() != nil:
			return nil, context.Cause(ctx)
		case actx.Err() != nil:
			sh.note(outcomeTimeout)
			sh.recordFailure(g.failThreshold)
			return nil, fmt.Errorf("shard %s: attempt timeout after %v: %w", sh.name(), g.attemptTimeout, err)
		default:
			sh.note(outcomeError)
			sh.recordFailure(g.failThreshold)
			return nil, fmt.Errorf("shard %s: %w", sh.name(), err)
		}
	}
	// Tie the attempt context's lifetime to the body: proxied
	// responses are small (manifests, document metadata), so reading
	// them out stays within the attempt window.
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	sh.recordSuccess()
	if resp.StatusCode/100 == 2 {
		sh.note(outcomeOK)
	} else if resp.StatusCode < 500 {
		sh.note(outcomeClientError)
	} else {
		sh.note(outcomeError)
	}
	return resp, nil
}

// cancelOnClose releases a proxied response's attempt context when
// its body is closed.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	defer c.cancel()
	return c.ReadCloser.Close()
}

// writeProxied relays a shard response downstream: status, the
// content headers that matter, and the body verbatim.
func writeProxied(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
