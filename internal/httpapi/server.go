// Package httpapi serves the spand /v1 HTTP surface over a
// service.Service: extraction (batch and NDJSON stream), the
// documents CRUD+Patch API, the registry, health, metrics and trace
// debugging. cmd/spand mounts it on a listener; tests, spangate and
// spanbench boot it in-process over httptest.
//
// The wire contract — request/response shapes and the unified error
// envelope with its stable code table — is shared with the public
// client package: the codes written here are the client.Code*
// constants, so a client.Error decoded from any response matches the
// corresponding client sentinel.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"spanners/client"
	"spanners/internal/algebra"
	"spanners/internal/docstore"
	"spanners/internal/obs"
	"spanners/internal/registry"
	"spanners/internal/rgx"
	"spanners/internal/service"
)

// putDocumentRequest is the body of PUT /v1/documents/{id}.
type putDocumentRequest struct {
	Text string `json:"text"`
}

func (req *putDocumentRequest) fields() [1]Field {
	return [1]Field{stringField("text", &req.Text)}
}

// spliceFields returns the fields of a PATCH /v1/documents/{id} body,
// a docstore.Splice.
func spliceFields(sp *docstore.Splice) [3]Field {
	return [3]Field{
		intField("offset", &sp.Offset),
		intField("delete_len", &sp.DeleteLen),
		stringField("insert", &sp.Insert),
	}
}

// documentResponse describes a stored document without echoing its
// text (GET returns the text; mutations return the metadata).
type documentResponse struct {
	ID      string `json:"id"`
	Version int64  `json:"version"`
	Bytes   int    `json:"bytes"`
}

// registerRequest is the body of PUT /registry/{name}: exactly one of
// Expr (an RGX to compile) or Algebra (a spanner-algebra expression
// composed over already-registered names, persisted with its leaves
// pinned).
type registerRequest struct {
	Expr    string `json:"expr"`
	Algebra string `json:"algebra"`
}

func (req *registerRequest) fields() [2]Field {
	return [2]Field{stringField("expr", &req.Expr), stringField("algebra", &req.Algebra)}
}

// registerResponse wraps the stored manifest with whether this call
// created the version (false = idempotent re-registration).
type registerResponse struct {
	registry.Manifest
	Created bool `json:"created"`
}

// DefaultMaxBody caps request bodies when no explicit limit is given.
const DefaultMaxBody = 8 << 20 // 8 MiB

// DefaultRequestTimeout bounds one extraction request end to end, so
// a pathological expression (enumeration is output-exponential in the
// worst case) cannot pin a worker forever. The body-size cap bounds
// input; this bounds compute.
const DefaultRequestTimeout = 60 * time.Second

// Options configures New. The zero value selects the production
// defaults: DefaultMaxBody, DefaultRequestTimeout, no slow-request
// dumping, no request logs.
type Options struct {
	// MaxBody caps request body size in bytes (0 selects
	// DefaultMaxBody) so an oversized batch cannot exhaust memory
	// before extraction starts.
	MaxBody int64
	// RequestTimeout caps one extraction's wall time (0 selects
	// DefaultRequestTimeout, negative disables the deadline).
	RequestTimeout time.Duration
	// SlowRequest, when positive, logs the full span tree of any
	// request slower than the threshold.
	SlowRequest time.Duration
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
}

type server struct {
	svc        *service.Service
	mux        *http.ServeMux
	maxBody    int64
	reqTimeout time.Duration
	slowReq    time.Duration
	log        *slog.Logger
}

// New wires the service into an http.Handler exposing /v1/extract,
// /v1/extract/stream, /v1/documents, /v1/registry, /v1/healthz,
// /v1/metrics and /v1/debug/trace. Every endpoint has that one route;
// no other path is served.
func New(svc *service.Service, opt Options) http.Handler {
	if opt.MaxBody <= 0 {
		opt.MaxBody = DefaultMaxBody
	}
	if opt.RequestTimeout == 0 {
		opt.RequestTimeout = DefaultRequestTimeout
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.DiscardHandler)
	}
	s := &server{
		svc:        svc,
		mux:        http.NewServeMux(),
		maxBody:    opt.MaxBody,
		reqTimeout: opt.RequestTimeout,
		slowReq:    opt.SlowRequest,
		log:        opt.Logger,
	}
	s.mux.HandleFunc("POST /v1/extract", s.handleExtract)
	s.mux.HandleFunc("POST /v1/extract/stream", s.handleStream)
	s.mux.HandleFunc("PUT /v1/documents/{id}", s.handleDocumentPut)
	s.mux.HandleFunc("GET /v1/documents/{id}", s.handleDocumentGet)
	s.mux.HandleFunc("PATCH /v1/documents/{id}", s.handleDocumentPatch)
	s.mux.HandleFunc("DELETE /v1/documents/{id}", s.handleDocumentDelete)
	s.mux.HandleFunc("PUT /v1/registry/{name}", s.handleRegistryPut)
	s.mux.HandleFunc("GET /v1/registry/{name}", s.handleRegistryGet)
	s.mux.HandleFunc("DELETE /v1/registry/{name}", s.handleRegistryDelete)
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistryList)
	s.mux.HandleFunc("GET /v1/registry/{$}", s.handleRegistryList)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/debug/trace", s.handleTraceList)
	s.mux.HandleFunc("GET /v1/debug/trace/{id}", s.handleTraceGet)
	return s
}

// ServeHTTP is the request middleware: assign (or honor) the request
// ID, begin a trace for extraction routes, and emit one structured
// log line per request — plus the full span tree when the request
// exceeded the slow-request threshold. The deferred tail runs even
// when a handler aborts the connection (http.ErrAbortHandler), so
// aborted streams are still logged and their traces finished.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", id)

	var trace *obs.Trace
	if o := s.svc.Observability(); o != nil && tracedRoute(r) {
		trace = o.Tracer.Begin(id)
		r = r.WithContext(obs.WithTrace(r.Context(), trace))
	}
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		trace.Finish(d)
		s.log.Info("request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.Status()),
			slog.Duration("duration", d),
		)
		if s.slowReq > 0 && d >= s.slowReq && trace != nil {
			if tree, err := json.Marshal(trace.Snapshot()); err == nil {
				s.log.Warn("slow request",
					slog.String("id", id),
					slog.Duration("duration", d),
					slog.String("spans", string(tree)),
				)
			}
		}
	}()
	s.mux.ServeHTTP(sw, r)
}

// tracedRoute reports whether a request should carry a trace: only
// the extraction endpoints — tracing probe traffic (/v1/healthz,
// scrape hits on /v1/metrics) would churn the retention ring with
// empty traces.
func tracedRoute(r *http.Request) bool {
	return r.Method == http.MethodPost &&
		(r.URL.Path == "/v1/extract" || r.URL.Path == "/v1/extract/stream")
}

// statusWriter records the response status for the request log. It
// implements http.Flusher unconditionally (delegating when the
// underlying writer supports it) so wrapping never hides streaming
// capability from the NDJSON handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the recorded status, defaulting to 200 for handlers
// that never called WriteHeader explicitly.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// errDeadline is the cause attached to the server-imposed extraction
// deadline, so handlers can distinguish "the server cut this off"
// (typed 503 with Retry-After) from a client-supplied deadline or
// disconnect.
var errDeadline = errors.New("request exceeded the server extraction deadline; back off or simplify the query")

// requestCtx derives the extraction deadline for one request.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeoutCause(r.Context(), s.reqTimeout, errDeadline)
}

// deadlineExpired reports whether err is the server-imposed deadline
// firing on ctx (as opposed to a client disconnect or any other
// failure).
func deadlineExpired(ctx context.Context, err error) bool {
	return errors.Is(err, context.DeadlineExceeded) && errors.Is(context.Cause(ctx), errDeadline)
}

// extractError maps one extraction failure to a response. The
// server-imposed deadline gets the typed treatment: 503 with a
// Retry-After hint and a tick of spand_deadline_expiries_total;
// everything else goes through extractErrCode.
func (s *server) extractError(ctx context.Context, w http.ResponseWriter, err error) {
	if deadlineExpired(ctx, err) {
		s.svc.Observability().NoteDeadlineExpiry()
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusServiceUnavailable, errDeadline)
		return
	}
	httpError(w, extractErrCode(err), err)
}

// retryAfter renders the Retry-After hint for deadline 503s: the
// deadline itself in whole seconds (minimum 1) — retrying sooner than
// one deadline window would just pin another worker.
func (s *server) retryAfter() string {
	secs := int(s.reqTimeout / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// The error envelope every handler writes is the wire shape shared
// with the public client package: {"error": {"code", "message"}},
// where the code is a stable machine-readable client.Code* string
// from the table in errorCode and the message is the human-readable
// error chain.

// httpError writes the error envelope with an explicit status,
// deriving the stable code from the error's type (falling back to a
// status-based default when the error carries no recognized type).
func httpError(w http.ResponseWriter, status int, err error) {
	_, code := errorCode(err)
	if code == client.CodeBadRequest {
		// Untyped error: let the explicit status pick a better default.
		switch status {
		case http.StatusRequestEntityTooLarge:
			code = client.CodeTooLarge
		case http.StatusNotFound:
			code = client.CodeNotFound
		case http.StatusServiceUnavailable:
			code = client.CodeUnavailable
		}
	}
	writeError(w, status, code, err)
}

// apiError writes the error envelope with the status and code the
// error's type dictates.
func apiError(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	writeError(w, status, code, err)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	WriteError(w, status, code, err.Error())
}

// WriteError writes the unified error envelope — the one the public
// client package decodes — with an explicit status, code and message.
// Exported for front ends (spangate) that speak the same contract.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(client.ErrorEnvelope{Err: client.ErrorDetail{Code: code, Message: message}})
}

// errorCode maps a typed failure to its status and stable error code.
// The server-imposed -request-timeout deadline is a compute limit, not
// a slow client, so it surfaces as 503 (retrying the same request
// verbatim will pin another worker — clients should back off or
// simplify the query); a disconnecting client's cancellation keeps 408
// (the response is unread anyway); a query referencing a registry name
// or version that does not exist — directly or as an algebra leaf —
// is 404; malformed queries (RGX or algebra syntax, unbound projection
// variables, bad splices) are the client's fault, 400; an RGX whose
// tree has more than rgx.MaxSize nodes, or a query served uncompiled
// over a document its reach cannot afford, is 413 too_large; a difference
// whose determinization blows the configured state budget is a
// well-formed but unprocessable query, 422. Only storage-level
// corruption and a recovered extraction panic map to a 500.
func errorCode(err error) (int, string) {
	var parseErr *rgx.ParseError
	switch {
	case errors.Is(err, errDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, client.CodeDeadline
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, client.CodeCanceled
	case errors.Is(err, docstore.ErrNotFound):
		return http.StatusNotFound, client.CodeDocumentNotFound
	case errors.Is(err, docstore.ErrBadSplice):
		return http.StatusBadRequest, client.CodeBadSplice
	case errors.Is(err, docstore.ErrTooLarge):
		return http.StatusRequestEntityTooLarge, client.CodeTooLarge
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound, client.CodeNotFound
	case errors.Is(err, service.ErrNoRegistry):
		return http.StatusServiceUnavailable, client.CodeRegistryUnavailable
	case errors.Is(err, registry.ErrBadName), errors.Is(err, registry.ErrBadVersion):
		return http.StatusBadRequest, client.CodeBadName
	case errors.Is(err, registry.ErrBadArtifact):
		return http.StatusInternalServerError, client.CodeBadArtifact
	case errors.Is(err, service.ErrInternal):
		return http.StatusInternalServerError, client.CodeInternal
	case errors.Is(err, service.ErrBadQuery):
		return http.StatusBadRequest, client.CodeBadQuery
	case errors.Is(err, rgx.ErrTooLarge), errors.Is(err, service.ErrUnaffordable):
		return http.StatusRequestEntityTooLarge, client.CodeTooLarge
	case errors.As(err, &parseErr), errors.Is(err, algebra.ErrSyntax):
		return http.StatusBadRequest, client.CodeSyntax
	case errors.Is(err, algebra.ErrUnbound):
		return http.StatusBadRequest, client.CodeUnbound
	case errors.Is(err, algebra.ErrBudget):
		// A difference whose determinization exceeds the configured
		// state budget: the query is well-formed but too expensive to
		// compose safely — 422, never an OOM or a 500. Raising
		// -difference-budget or simplifying the right operand are the
		// remedies.
		return http.StatusUnprocessableEntity, client.CodeDifferenceBudget
	default:
		return http.StatusBadRequest, client.CodeBadRequest
	}
}

// extractErrCode maps an extraction failure to its status; see
// errorCode for the taxonomy.
func extractErrCode(err error) int {
	status, _ := errorCode(err)
	return status
}

// registryErrCode maps registry failures; see errorCode.
func registryErrCode(err error) int {
	status, _ := errorCode(err)
	return status
}

// decodeBody decodes the request body into fields under the server's
// size cap (DecodeBody).
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, fields []Field) bool {
	return DecodeBody(w, r, s.maxBody, fields)
}

func (s *server) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req client.ExtractRequest
	if f := ExtractFields(&req); !s.decodeBody(w, r, f[:]) {
		return
	}
	q := service.Query(req.Query)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	// The results stay in the Batch's pooled buffers until the response
	// is written, which copies each of them once.
	b := service.NewBatch()
	defer b.Release()
	if len(req.Docs) > 0 || len(req.DocIDs) == 0 {
		if err := s.svc.ExtractBatchInto(ctx, q, req.Docs, b); err != nil {
			s.extractError(ctx, w, err)
			return
		}
	}
	// Referenced documents are served from their incremental sessions,
	// one at a time: an unchanged document costs a cache read, not an
	// extraction.
	for _, id := range req.DocIDs {
		if err := s.svc.ExtractDocumentInto(ctx, q, id, b); err != nil {
			s.extractError(ctx, w, err)
			return
		}
	}
	writeExtractResponse(w, b.Docs)
}

// respBufPool recycles the response buffers of /v1/extract.
var respBufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRespBytes keeps huge response buffers out of the pool.
const maxPooledRespBytes = 4 << 20

// writeExtractResponse writes the /v1/extract body with one Write:
// {"results": …}, the per-document results in input order. The
// already-encoded results are copied into one buffer. The service
// counters live on /v1/healthz and /v1/metrics, not on each answer.
func writeExtractResponse(w http.ResponseWriter, results [][]service.Result) {
	bp := respBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, r := range res {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, r...)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
	if cap(buf) <= maxPooledRespBytes {
		*bp = buf
		respBufPool.Put(bp)
	}
}

// handleStream emits one JSON object per output mapping, one per
// line, through a LineWriter: the first mapping is flushed at once and
// every later one is on the wire within lineFlushDelay of being
// produced, so the client sees mappings with the enumerator's
// polynomial delay instead of waiting for the full output set, without
// one write per mapping. Client disconnect or the request deadline
// cancels the context, which stops enumeration between outputs.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req client.StreamRequest
	if f := StreamFields(&req); !s.decodeBody(w, r, f[:]) {
		return
	}
	// Compile (one cache lookup) before committing to the NDJSON
	// format, so a bad query still gets a JSON 400 and an empty
	// result set still gets the right Content-Type. Compilation runs
	// under the request context so its stage lands on the trace.
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.DocID != "" {
		if req.Doc != "" {
			httpError(w, http.StatusBadRequest,
				errors.New("stream request must set at most one of doc and doc_id"))
			return
		}
		doc, ok := s.svc.Documents().Get(req.DocID)
		if !ok {
			apiError(w, fmt.Errorf("%w: %q", docstore.ErrNotFound, req.DocID))
			return
		}
		req.Doc = doc.Text
	}
	compiled, err := s.svc.CompileQueryCtx(ctx, service.Query(req.Query))
	if err == nil {
		err = compiled.Affordable(req.Doc)
	}
	if err != nil {
		s.extractError(ctx, w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Deferred, so the buffered lines go out (and the writer's timer
	// stops) on every exit, the abort below included.
	lw := NewLineWriter(w)
	defer lw.Close()
	err = compiled.Stream(ctx, req.Doc, func(res service.Result) bool {
		return lw.WriteLine(res) == nil
	})
	if err != nil {
		// The stream was cut short (cancellation or deadline
		// mid-enumeration). Abort the connection instead of
		// terminating the chunked body cleanly, so clients can
		// distinguish a truncated stream from a complete one. The
		// status is already committed, so a server-deadline expiry
		// can only be counted, not turned into a 503.
		if deadlineExpired(ctx, err) {
			s.svc.Observability().NoteDeadlineExpiry()
		}
		panic(http.ErrAbortHandler)
	}
}

// handleDocumentPut creates or fully replaces a stored document: 201
// on first creation, 200 on replacement. Replacement invalidates any
// incremental sessions attached to the document.
func (s *server) handleDocumentPut(w http.ResponseWriter, r *http.Request) {
	var req putDocumentRequest
	if f := req.fields(); !s.decodeBody(w, r, f[:]) {
		return
	}
	doc, err := s.svc.Documents().Put(r.PathValue("id"), req.Text)
	if err != nil {
		apiError(w, err)
		return
	}
	code := http.StatusOK
	if doc.Version == 1 {
		code = http.StatusCreated
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(documentResponse{ID: doc.ID, Version: doc.Version, Bytes: len(doc.Text)})
}

// handleDocumentGet returns the stored document, text included.
func (s *server) handleDocumentGet(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.svc.Documents().Get(r.PathValue("id"))
	if !ok {
		apiError(w, fmt.Errorf("%w: %q", docstore.ErrNotFound, r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// handleDocumentPatch applies one splice — delete delete_len bytes at
// offset, insert insert — and returns the new version. A pure append
// is {"offset": <current length>, "insert": "..."}. Offsets are bytes
// and must fall on UTF-8 rune boundaries; an edit past EOF is a 400.
func (s *server) handleDocumentPatch(w http.ResponseWriter, r *http.Request) {
	var sp docstore.Splice
	if f := spliceFields(&sp); !s.decodeBody(w, r, f[:]) {
		return
	}
	doc, err := s.svc.Documents().ApplySplice(r.PathValue("id"), sp)
	if err != nil {
		apiError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(documentResponse{ID: doc.ID, Version: doc.Version, Bytes: len(doc.Text)})
}

// handleDocumentDelete removes the document and its attached sessions.
func (s *server) handleDocumentDelete(w http.ResponseWriter, r *http.Request) {
	if !s.svc.Documents().Delete(r.PathValue("id")) {
		apiError(w, fmt.Errorf("%w: %q", docstore.ErrNotFound, r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleRegistryPut(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if f := req.fields(); !s.decodeBody(w, r, f[:]) {
		return
	}
	if (req.Expr == "") == (req.Algebra == "") {
		httpError(w, http.StatusBadRequest,
			errors.New("registration must set exactly one of expr or algebra"))
		return
	}
	var (
		man     registry.Manifest
		created bool
		err     error
	)
	if req.Algebra != "" {
		man, created, err = s.svc.RegisterAlgebra(r.PathValue("name"), req.Algebra)
	} else {
		man, created, err = s.svc.RegisterSpanner(r.PathValue("name"), req.Expr)
	}
	if err != nil {
		httpError(w, registryErrCode(err), err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(registerResponse{Manifest: man, Created: created})
}

func (s *server) handleRegistryGet(w http.ResponseWriter, r *http.Request) {
	reg := s.svc.Registry()
	if reg == nil {
		httpError(w, http.StatusServiceUnavailable, service.ErrNoRegistry)
		return
	}
	man, err := reg.Manifest(r.PathValue("name"), r.URL.Query().Get("version"))
	if err != nil {
		httpError(w, registryErrCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(man)
}

func (s *server) handleRegistryDelete(w http.ResponseWriter, r *http.Request) {
	err := s.svc.DeleteSpanner(r.PathValue("name"), r.URL.Query().Get("version"))
	if err != nil {
		httpError(w, registryErrCode(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleRegistryList(w http.ResponseWriter, _ *http.Request) {
	reg := s.svc.Registry()
	if reg == nil {
		httpError(w, http.StatusServiceUnavailable, service.ErrNoRegistry)
		return
	}
	mans, err := reg.List()
	if err != nil {
		httpError(w, registryErrCode(err), err)
		return
	}
	if mans == nil {
		mans = []registry.Manifest{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(mans)
}

// healthzResponse is the /v1/healthz body: liveness plus the whole
// service snapshot — compile caches, engine selection, lazy DFA,
// registry, algebra, documents, in-flight extractions and mappings
// emitted — so probes (and operators) read every counter in one JSON
// document, the way the gate's /v1/healthz embeds its Stats.
type healthzResponse struct {
	Status string `json:"status"`
	service.Stats
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthzResponse{Status: "ok", Stats: s.svc.Stats()})
}

// handleMetrics serves the Prometheus text exposition, whatever the
// query or Accept header asks for. With observability disabled the
// body is empty (a valid exposition of zero families).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.svc.Observability().WritePrometheus(w); err != nil {
		s.log.Error("metrics exposition", slog.Any("error", err))
	}
}

// handleTraceList serves the retained request traces, most recent
// first. ?n= caps how many (default: the full retention ring).
func (s *server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	o := s.svc.Observability()
	if o == nil {
		httpError(w, http.StatusNotFound, errors.New("tracing disabled"))
		return
	}
	n := math.MaxInt // Tracer.Last caps it at the retained count
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", q))
			return
		}
		n = v
	}
	traces := o.Tracer.Last(n)
	if traces == nil {
		traces = []obs.TraceSnapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(traces)
}

// handleTraceGet serves one retained trace by request ID — the span
// tree plus the emission-delay digest for a streamed extraction.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	o := s.svc.Observability()
	if o == nil {
		httpError(w, http.StatusNotFound, errors.New("tracing disabled"))
		return
	}
	snap, ok := o.Tracer.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no retained trace %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}
