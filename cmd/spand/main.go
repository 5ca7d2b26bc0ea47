// Command spand serves document-spanner extraction over HTTP, keeping
// compiled spanners hot across requests and, with -registry, across
// restarts.
//
// Usage:
//
//	spand [-addr :8080] [-spanner-cache 256] [-rule-cache 64] [-workers 4]
//	      [-max-body 8388608] [-request-timeout 60s] [-registry DIR]
//	      [-doc-store-bytes 67108864]
//	      [-trace-retain 128] [-slow-request 0] [-pprof-addr ADDR]
//
// Endpoints (each has one route, under /v1; no unprefixed path is
// served):
//
//	POST /v1/extract       {"expr"|"rule"|"spanner"|"algebra": …,
//	                        "docs": [...], "doc_ids": [...], "limit": n}
//	                       → JSON batch: one result array per document
//	                         (inline docs first, then referenced
//	                         doc_ids).
//	POST /v1/extract/stream {"expr"|…: …, "doc": …|"doc_id": …, "limit": n}
//	                       → NDJSON: one mapping per line with the
//	                         enumerator's polynomial delay (Theorem
//	                         5.7): the first line is flushed at once,
//	                         later ones within 1 ms of being produced,
//	                         so results arrive before enumeration
//	                         completes.
//	PUT    /v1/documents/{id}  {"text": …} create or replace a stored
//	                           document (201 on create, 200 on replace).
//	GET    /v1/documents/{id}  the stored document: id, version, text.
//	PATCH  /v1/documents/{id}  {"offset": b, "delete_len": n, "insert": …}
//	                           splice the document in place (byte
//	                           offsets on UTF-8 boundaries; a pure
//	                           append sets offset = current length).
//	                           Extractions referencing the document via
//	                           "doc_ids" are then served incrementally:
//	                           the engine resweeps only the edit's
//	                           neighbourhood instead of re-extracting.
//	DELETE /v1/documents/{id}  drop the document and its sessions.
//	PUT    /v1/registry/{name}  {"expr": …} or {"algebra": …} → compile
//	                         (or compose), persist, and name a spanner;
//	                         the response manifest carries the
//	                         content-addressed version to pin.
//	GET    /v1/registry         list stored spanners (latest versions).
//	GET    /v1/registry/{name}  manifest of the latest (?version= pins).
//	DELETE /v1/registry/{name}  drop a name (?version= drops one).
//	GET  /v1/healthz       the counters as JSON: liveness plus compile
//	                       cache hit/miss/eviction, engine, DFA,
//	                       registry pre-warm/hit/fallback, algebra and
//	                       document store summaries, in-flight
//	                       requests, mappings emitted.
//	GET  /v1/metrics       the counters as Prometheus text exposition —
//	                       per-stage latency and stream emission-delay
//	                       histograms plus the counter families (see
//	                       docs/OBSERVABILITY.md).
//	GET  /v1/debug/trace   last-N retained request traces (?n= caps);
//	                       /v1/debug/trace/{id} one trace by request ID
//	                       — the per-stage span tree and, for streams,
//	                       the emission-delay digest.
//
// Every handler reports failures in one envelope, {"error": {"code":
// …, "message": …}}, where code is a stable machine-readable string
// (syntax, unbound, difference_budget, bad_query, bad_splice,
// document_not_found, not_found, too_large, deadline, canceled,
// registry_unavailable, bad_artifact, internal, bad_request). The public
// spanners/client package decodes the envelope into typed errors;
// the code constants live there as the single source of truth.
//
// Stored documents live in a byte-budgeted in-memory store
// (-doc-store-bytes, default 64 MiB) with LRU eviction; documents,
// their splice journals and their attached incremental extraction
// sessions all count against the budget.
//
// Every request carries an ID (inbound X-Request-ID is honored,
// otherwise one is generated) that is echoed in the response header,
// keys the retained trace, and tags the structured request log line.
// -slow-request dumps the full span tree of any request slower than
// the threshold; -pprof-addr serves net/http/pprof on a separate
// listener so profiling is never exposed on the service port.
//
// Compilation (parse → decompose → VA construction) is amortized
// through an LRU cache keyed by source expression, so repeated
// queries skip straight to evaluation. With -registry the compiled
// programs are also persisted as serialized artifacts: on startup the
// cache is pre-warmed from the registry, so queries that pin
// "name@version" never compile at all — the stored instruction tables
// are decoded and executed directly. The lazy-DFA transition caches
// are rebuilt by traffic after every start (dfa.* counters on
// /v1/healthz, spand_dfa_* families on /v1/metrics).
//
// An "algebra" query composes registered spanners on the server with
// the closure operators of Theorem 4.5 — e.g. "join(project(invoices,
// buyer), union(sellers, sellers-eu))". Compositions are cached under
// the expression with every leaf pinned to its resolved
// content-addressed version, and can themselves be registered (PUT
// with "algebra") as first-class named artifacts.
//
// Every extraction carries a deadline (-request-timeout, negative to
// disable): enumeration can be output-exponential on pathological
// expressions, and the deadline keeps such a request from pinning a
// worker forever.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spanners"
	"spanners/internal/httpapi"
	"spanners/internal/obs"
	"spanners/internal/registry"
	"spanners/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		spannerCache = flag.Int("spanner-cache", service.DefaultConfig().SpannerCacheSize, "compiled-spanner LRU capacity")
		ruleCache    = flag.Int("rule-cache", service.DefaultConfig().RuleCacheSize, "compiled-rule LRU capacity")
		workers      = flag.Int("workers", service.DefaultConfig().Workers, "batch extraction worker count")
		maxBody      = flag.Int64("max-body", httpapi.DefaultMaxBody, "request body size cap in bytes")
		reqTimeout   = flag.Duration("request-timeout", httpapi.DefaultRequestTimeout, "per-request extraction deadline (negative disables)")
		registryDir  = flag.String("registry", "", "persistent spanner registry directory (empty disables)")
		precompose   = flag.Bool("precompose", false, "with -registry: re-plan every registered algebra artifact at startup so its composition is cache-warm")
		diffBudget   = flag.Int("difference-budget", spanners.DefaultDifferenceBudget, "determinization state budget per algebra difference; exhaustion is a typed client error")
		docStoreB    = flag.Int64("doc-store-bytes", service.DefaultConfig().DocStoreBytes, "byte budget of the /v1/documents store (LRU-evicted)")
		traceRetain  = flag.Int("trace-retain", obs.DefaultTraceRetention, "request traces retained for /v1/debug/trace")
		slowRequest  = flag.Duration("slow-request", 0, "log the full span tree of requests slower than this (0 disables)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	cfg := service.Config{
		SpannerCacheSize: *spannerCache,
		RuleCacheSize:    *ruleCache,
		Workers:          *workers,
		DocStoreBytes:    *docStoreB,
		DifferenceBudget: *diffBudget,
		TraceRetention:   *traceRetain,
	}
	if *registryDir != "" {
		reg, err := registry.Open(*registryDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spand:", err)
			os.Exit(1)
		}
		cfg.Registry = reg
	}
	svc := service.New(cfg)
	if cfg.Registry != nil {
		n, err := svc.Prewarm()
		if err != nil {
			log.Printf("spand: registry pre-warm: %v", err)
		}
		log.Printf("spand: pre-warmed %d spanner(s) from %s", n, *registryDir)
		if *precompose {
			n, err := svc.Precompose()
			if err != nil {
				log.Printf("spand: algebra pre-compose: %v", err)
			}
			log.Printf("spand: pre-composed %d algebra artifact(s)", n)
		}
	}
	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: profiling never
		// rides the service port.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("spand: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("spand: pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: httpapi.New(svc, httpapi.Options{
			MaxBody:        *maxBody,
			RequestTimeout: *reqTimeout,
			SlowRequest:    *slowRequest,
			Logger:         logger,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("spand: listening on %s (workers=%d, spanner cache=%d, rule cache=%d, request timeout=%v)",
		*addr, *workers, *spannerCache, *ruleCache, *reqTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "spand:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Drain in-flight requests before exiting; streams that
		// outlive the window are severed by Close.
		log.Print("spand: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("spand: drain window expired: %v", err)
			srv.Close()
		}
	}
}
