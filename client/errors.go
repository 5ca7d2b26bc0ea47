package client

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The stable error-code table. Every non-2xx spand (and spangate)
// response carries the unified envelope {"error": {"code", "message"}}
// whose code is one of these strings; the client decodes it into an
// *Error and the Err* sentinels below make each code matchable with
// errors.Is without string comparison at call sites.
const (
	// CodeSyntax: the RGX or algebra expression failed to parse.
	CodeSyntax = "syntax"
	// CodeUnbound: an algebra projection names a variable its input
	// cannot bind.
	CodeUnbound = "unbound"
	// CodeDifferenceBudget: a difference's determinization exceeded
	// the server's configured state budget (well-formed, 422).
	CodeDifferenceBudget = "difference_budget"
	// CodeBadQuery: the query did not set exactly one of
	// expr/rule/spanner/algebra.
	CodeBadQuery = "bad_query"
	// CodeBadSplice: a document patch whose offset or delete length
	// does not fit the stored text.
	CodeBadSplice = "bad_splice"
	// CodeBadName: a registry name or version that fails validation.
	CodeBadName = "bad_name"
	// CodeDocumentNotFound: a doc_id referencing no stored document.
	CodeDocumentNotFound = "document_not_found"
	// CodeNotFound: a registry name/version (or other resource) that
	// does not exist.
	CodeNotFound = "not_found"
	// CodeTooLarge: the request body exceeded the server's cap, a
	// document would exceed the store budget, an expression's parse
	// tree has more nodes than the parser accepts, or a query the
	// server runs uncompiled would need more memory for a document than
	// one request may take (the message names the document).
	CodeTooLarge = "too_large"
	// CodeDeadline: the server-imposed extraction deadline expired;
	// back off or simplify the query.
	CodeDeadline = "deadline"
	// CodeCanceled: the client went away mid-request.
	CodeCanceled = "canceled"
	// CodeRegistryUnavailable: the server runs without a registry.
	CodeRegistryUnavailable = "registry_unavailable"
	// CodeBadArtifact: storage-level artifact corruption (500).
	CodeBadArtifact = "bad_artifact"
	// CodeInternal: extraction panicked inside the server, which
	// recovered and counted it (500).
	CodeInternal = "internal"
	// CodeBadRequest: malformed request body or parameters.
	CodeBadRequest = "bad_request"
	// CodeUnavailable: the service cannot serve the request right now
	// (spangate: every shard's circuit is open). Retry after the
	// Retry-After hint.
	CodeUnavailable = "unavailable"
	// CodeOverloaded: spangate shed the request because its in-flight
	// gauge saturated; retry after the Retry-After hint.
	CodeOverloaded = "overloaded"
	// CodeUpstream: spangate could not get a usable response from any
	// shard for a reason other than load or health (unexpected
	// upstream failure).
	CodeUpstream = "upstream_error"
)

// Error is a decoded spand error envelope: the HTTP status, the
// stable machine-readable code and the human-readable message. It
// matches the per-code sentinels (ErrNotFound, ErrDeadline, ...)
// through errors.Is.
type Error struct {
	// Status is the HTTP status the server answered with.
	Status int
	// Code is the stable error code from the envelope ("syntax",
	// "document_not_found", ...). Empty when the response body was
	// not a recognizable envelope.
	Code string
	// Message is the human-readable error chain from the envelope
	// (or a body snippet when no envelope was present).
	Message string
	// RetryAfter is the parsed Retry-After hint on 503s, zero when
	// the server sent none.
	RetryAfter time.Duration
}

// Error renders the code, status and message on one line.
func (e *Error) Error() string {
	code := e.Code
	if code == "" {
		code = "http_" + strconv.Itoa(e.Status)
	}
	return fmt.Sprintf("%s (HTTP %d): %s", code, e.Status, e.Message)
}

// Is matches e against the package's code sentinels, so callers can
// write errors.Is(err, client.ErrNotFound) regardless of which typed
// server error produced the code.
func (e *Error) Is(target error) bool {
	cs, ok := target.(codeSentinel)
	return ok && string(cs) == e.Code
}

// codeSentinel is the sentinel form of one stable error code.
type codeSentinel string

func (c codeSentinel) Error() string { return "spand error code " + strconv.Quote(string(c)) }

// Sentinels for every stable error code, matchable against a decoded
// *Error with errors.Is.
var (
	ErrSyntax              = codeSentinel(CodeSyntax)
	ErrUnbound             = codeSentinel(CodeUnbound)
	ErrDifferenceBudget    = codeSentinel(CodeDifferenceBudget)
	ErrBadQuery            = codeSentinel(CodeBadQuery)
	ErrBadSplice           = codeSentinel(CodeBadSplice)
	ErrBadName             = codeSentinel(CodeBadName)
	ErrDocumentNotFound    = codeSentinel(CodeDocumentNotFound)
	ErrNotFound            = codeSentinel(CodeNotFound)
	ErrTooLarge            = codeSentinel(CodeTooLarge)
	ErrDeadline            = codeSentinel(CodeDeadline)
	ErrCanceled            = codeSentinel(CodeCanceled)
	ErrRegistryUnavailable = codeSentinel(CodeRegistryUnavailable)
	ErrBadArtifact         = codeSentinel(CodeBadArtifact)
	ErrInternal            = codeSentinel(CodeInternal)
	ErrBadRequest          = codeSentinel(CodeBadRequest)
	ErrUnavailable         = codeSentinel(CodeUnavailable)
	ErrOverloaded          = codeSentinel(CodeOverloaded)
	ErrUpstream            = codeSentinel(CodeUpstream)
)

// ErrorEnvelope is the wire form of every spand error response. The
// server packages (internal/httpapi, internal/cluster) encode it; the
// client decodes it back into an *Error.
type ErrorEnvelope struct {
	Err ErrorDetail `json:"error"`
}

// ErrorDetail carries the stable code and human-readable message
// inside the envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// maxErrorBody caps how much of an error response body the client
// reads while decoding the envelope.
const maxErrorBody = 1 << 20

// decodeError turns a non-2xx response into an *Error, tolerating
// bodies that are not the unified envelope (proxies, panics) by
// keeping a snippet of the raw body as the message.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	e := &Error{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Err.Code != "" {
		e.Code = env.Err.Code
		e.Message = env.Err.Message
		return e
	}
	snippet := strings.TrimSpace(string(body))
	if len(snippet) > 200 {
		snippet = snippet[:200]
	}
	if snippet == "" {
		snippet = http.StatusText(resp.StatusCode)
	}
	e.Message = snippet
	return e
}
