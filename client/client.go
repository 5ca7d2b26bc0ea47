// Package client is the official Go client for the spand /v1 API —
// the one typed wrapper every in-repo consumer (spangate's fan-out,
// spanreg's remote mode, the examples, the tests) drives the HTTP
// surface through instead of ad-hoc net/http calls.
//
// It covers the full surface: Extract (batch), ExtractStream (an
// NDJSON iterator), the documents CRUD+Patch API, the registry
// (register / manifest / list / delete) and Healthz. Every non-2xx
// response is decoded from the unified error envelope into a typed
// *Error that matches the package's per-code sentinels:
//
//	res, err := c.Extract(ctx, client.ExtractRequest{
//	    Query: client.Query{Expr: `x{[a-z]+}`},
//	    Docs:  []string{"one doc", "another"},
//	})
//	if errors.Is(err, client.ErrSyntax) { ... }
//
// The client adds no retry or routing policy of its own — it is the
// verbatim wire contract. Cluster-level policy (health checking,
// retries, scatter/gather) lives in internal/cluster on top of it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Query selects the spanner to run: exactly one of Expr (an RGX
// compiled on the fly), Rule (a spanner-rule program), Spanner (a
// pinned registry reference "name" or "name@version") or Algebra (a
// composition over registered names). Limit, when positive, caps the
// number of mappings per document.
type Query struct {
	Expr    string `json:"expr,omitempty"`
	Rule    string `json:"rule,omitempty"`
	Spanner string `json:"spanner,omitempty"`
	Algebra string `json:"algebra,omitempty"`
	Limit   int    `json:"limit,omitempty"`
}

// Span is one extracted span: 1-based rune positions in the paper's
// convention plus the span's content.
type Span struct {
	Start   int    `json:"start"`
	End     int    `json:"end"`
	Content string `json:"content"`
}

// Result is one output mapping: assigned variables only — a variable
// absent from the map was not extracted (the incomplete-information
// semantics), not an error.
type Result map[string]Span

// ExtractRequest is the body of POST /v1/extract: one query over a
// batch of documents, inline (Docs) and/or by store reference
// (DocIDs). Results follow input order: docs first, then doc_ids.
type ExtractRequest struct {
	Query
	Docs   []string `json:"docs,omitempty"`
	DocIDs []string `json:"doc_ids,omitempty"`
}

// ExtractResponse holds the per-document results, in input order.
// The server's counters are on Healthz, not on each answer.
type ExtractResponse struct {
	Results [][]Result `json:"results"`
}

// RawExtractResponse is ExtractResponse with each document's result
// array kept as raw bytes. Proxies (spangate) splice these verbatim
// into their merged response, so the fan-out is byte-identical to a
// single server answering the whole batch.
type RawExtractResponse struct {
	Results []json.RawMessage `json:"results"`
}

// ExtractRaw runs one query over a batch of documents like Extract,
// but keeps each document's result array as the server's raw bytes.
func (c *Client) ExtractRaw(ctx context.Context, req ExtractRequest) (*RawExtractResponse, error) {
	var out RawExtractResponse
	if err := c.do(ctx, http.MethodPost, "/v1/extract", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamRequest is the body of POST /v1/extract/stream: one query and
// one document, inline (Doc) or by store reference (DocID).
type StreamRequest struct {
	Query
	Doc   string `json:"doc,omitempty"`
	DocID string `json:"doc_id,omitempty"`
}

// Document is a stored document, text included (GET /v1/documents).
type Document struct {
	ID      string `json:"id"`
	Version int64  `json:"version"`
	Text    string `json:"text"`
}

// DocumentInfo describes a stored document without echoing its text —
// what the mutation endpoints return.
type DocumentInfo struct {
	ID      string `json:"id"`
	Version int64  `json:"version"`
	Bytes   int    `json:"bytes"`
}

// Splice is one document patch: delete DeleteLen bytes at Offset,
// then insert Insert there. Offsets are bytes on UTF-8 rune
// boundaries; a pure append is {Offset: <len>, Insert: "..."}.
type Splice struct {
	Offset    int    `json:"offset"`
	DeleteLen int    `json:"delete_len"`
	Insert    string `json:"insert"`
}

// Manifest describes one stored registry artifact: the
// content-addressed version, the source it was compiled from and the
// compiled program's shape. Program stats stay raw so the client
// does not chase the server's counter schema.
type Manifest struct {
	Name       string          `json:"name"`
	Version    string          `json:"version"`
	Kind       string          `json:"kind,omitempty"`
	Source     string          `json:"source"`
	Sequential bool            `json:"sequential"`
	Vars       []string        `json:"vars"`
	Program    json.RawMessage `json:"program"`
	SizeBytes  int             `json:"size_bytes"`
	CreatedAt  time.Time       `json:"created_at"`
}

// Ref renders the manifest's pinnable "name@version" reference.
func (m Manifest) Ref() string { return m.Name + "@" + m.Version }

// Healthz is the /v1/healthz body: the liveness status plus the
// server's counters, kept raw.
type Healthz struct {
	Status string `json:"status"`
	// Raw is the full response body, for callers that want the
	// cache/engine/DFA/registry/algebra/documents detail.
	Raw json.RawMessage `json:"-"`
}

// Client talks to one spand (or spangate) base URL. It is safe for
// concurrent use; the zero value is not usable — construct with New.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the spand instance at baseURL (scheme and
// host, e.g. "http://localhost:8080"). A path prefix is kept, so a
// gateway mounting spand under a subpath works too; the /v1 segment
// is appended per request and must not be part of baseURL.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parse base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q must be absolute (scheme and host)", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL returns the normalized base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// do issues one JSON request and decodes the response into out (when
// non-nil). Non-2xx responses are decoded into a typed *Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// send issues the request without consuming the response body.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encode %s %s request: %w", method, path, err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("client: build %s %s request: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	return c.hc.Do(req)
}

type requestIDKey struct{}

// WithRequestID returns a context carrying id: every request the
// client sends under it carries the header X-Request-ID: id, which
// spand and spangate echo and key their traces on, so one ID follows a
// request from caller to gate to shard.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the request ID ctx carries (see WithRequestID), or
// "" when it carries none.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Extract runs one query over a batch of documents, returning results
// in input order (docs first, then doc_ids).
func (c *Client) Extract(ctx context.Context, req ExtractRequest) (*ExtractResponse, error) {
	var out ExtractResponse
	if err := c.do(ctx, http.MethodPost, "/v1/extract", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PutDocument creates or fully replaces a stored document; created
// reports whether this call created it (version 1).
func (c *Client) PutDocument(ctx context.Context, id, text string) (DocumentInfo, bool, error) {
	resp, err := c.send(ctx, http.MethodPut, "/v1/documents/"+url.PathEscape(id),
		struct {
			Text string `json:"text"`
		}{text})
	if err != nil {
		return DocumentInfo{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return DocumentInfo{}, false, decodeError(resp)
	}
	var info DocumentInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return DocumentInfo{}, false, fmt.Errorf("client: decode put document response: %w", err)
	}
	return info, resp.StatusCode == http.StatusCreated, nil
}

// GetDocument returns a stored document, text included.
func (c *Client) GetDocument(ctx context.Context, id string) (Document, error) {
	var doc Document
	err := c.do(ctx, http.MethodGet, "/v1/documents/"+url.PathEscape(id), nil, &doc)
	return doc, err
}

// PatchDocument applies one splice and returns the new version.
func (c *Client) PatchDocument(ctx context.Context, id string, sp Splice) (DocumentInfo, error) {
	var info DocumentInfo
	err := c.do(ctx, http.MethodPatch, "/v1/documents/"+url.PathEscape(id), sp, &info)
	return info, err
}

// DeleteDocument removes a stored document and its sessions.
func (c *Client) DeleteDocument(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/documents/"+url.PathEscape(id), nil, nil)
}

// registerResponse is the wire shape of PUT /v1/registry/{name}.
type registerResponse struct {
	Manifest
	Created bool `json:"created"`
}

// RegisterSpanner compiles and stores an RGX under name, returning
// the manifest and whether this call created the version (false =
// idempotent re-registration of identical content).
func (c *Client) RegisterSpanner(ctx context.Context, name, expr string) (Manifest, bool, error) {
	return c.register(ctx, name, struct {
		Expr string `json:"expr"`
	}{expr})
}

// RegisterAlgebra composes an algebra expression over already
// registered names and stores the composition with its leaves pinned.
func (c *Client) RegisterAlgebra(ctx context.Context, name, expr string) (Manifest, bool, error) {
	return c.register(ctx, name, struct {
		Algebra string `json:"algebra"`
	}{expr})
}

func (c *Client) register(ctx context.Context, name string, body any) (Manifest, bool, error) {
	var out registerResponse
	if err := c.do(ctx, http.MethodPut, "/v1/registry/"+url.PathEscape(name), body, &out); err != nil {
		return Manifest{}, false, err
	}
	return out.Manifest, out.Created, nil
}

// GetManifest returns the manifest for name at version ("" = latest).
func (c *Client) GetManifest(ctx context.Context, name, version string) (Manifest, error) {
	var man Manifest
	err := c.do(ctx, http.MethodGet, "/v1/registry/"+url.PathEscape(name)+versionQuery(version), nil, &man)
	return man, err
}

// ListManifests returns every registered name at its latest version.
func (c *Client) ListManifests(ctx context.Context) ([]Manifest, error) {
	var mans []Manifest
	err := c.do(ctx, http.MethodGet, "/v1/registry", nil, &mans)
	return mans, err
}

// DeleteSpanner removes name at version ("" = every version).
func (c *Client) DeleteSpanner(ctx context.Context, name, version string) error {
	return c.do(ctx, http.MethodDelete, "/v1/registry/"+url.PathEscape(name)+versionQuery(version), nil, nil)
}

func versionQuery(version string) string {
	if version == "" {
		return ""
	}
	return "?version=" + url.QueryEscape(version)
}

// Healthz probes /v1/healthz, returning the status plus the raw body.
func (c *Client) Healthz(ctx context.Context) (Healthz, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return Healthz{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return Healthz{}, decodeError(resp)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	if err != nil {
		return Healthz{}, fmt.Errorf("client: read healthz body: %w", err)
	}
	var h Healthz
	if err := json.Unmarshal(raw, &h); err != nil {
		return Healthz{}, fmt.Errorf("client: decode healthz body: %w", err)
	}
	h.Raw = raw
	return h, nil
}
