// Command spangate fronts a sharded spand cluster: one /v1 endpoint
// that scatters batch documents across N spand shards, merges their
// responses in input order, and keeps serving through shard failures.
//
// Usage:
//
//	spangate -shards http://h1:8080,http://h2:8080,http://h3:8080
//	         [-addr :8090] [-probe-interval 2s] [-fail-threshold 3]
//	         [-attempt-timeout 15s] [-retries 2] [-backoff 50ms]
//	         [-max-in-flight 256] [-max-body 8388608]
//
// The gate speaks the same /v1 wire contract as a single spand — the
// spanners/client package works against either — with these routing
// rules:
//
//   - POST /v1/extract: inline docs scatter round-robin over the
//     healthy shards; doc_ids route to their owner (FNV hash of the
//     ID over the configured shard list). Per-document result arrays
//     merge back in input order, byte-identical to one spand
//     answering the whole batch. Identical in-flight (query,
//     document) units coalesce single-flight.
//   - POST /v1/extract/stream: proxied to one shard, the first
//     NDJSON line flushed as it arrives and later ones within 1 ms;
//     failover happens only
//     before the first byte, and a shard dying mid-stream severs the
//     downstream connection so truncation stays visible.
//   - /v1/documents/{id}: routed to the owner shard, never retried.
//   - PUT/DELETE /v1/registry/{name}: broadcast to every shard, so
//     the content-addressed artifact set — the thing that makes any
//     shard able to serve any pinned spanner — stays identical
//     everywhere. GETs fail over across healthy shards.
//   - GET /v1/healthz: the gate's counters as JSON — its own shard
//     map (ok | degraded | down) and gate stats. GET /v1/metrics:
//     the same counters as the spand_gate_* Prometheus families.
//
// Shards are probed every -probe-interval; -fail-threshold
// consecutive failures open a shard's circuit (requests route around
// it) and the next successful probe closes it. Failed scatter calls
// retry on the surviving shards up to -retries times with jittered
// exponential backoff from -backoff, each attempt bounded by
// -attempt-timeout. When every shard is down the gate answers 503
// {"error":{"code":"unavailable"}} with Retry-After; when more than
// -max-in-flight extractions are already in flight it sheds with 503
// {"error":{"code":"overloaded"}} and Retry-After instead of queueing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spanners/internal/cluster"
	"spanners/internal/httpapi"
)

func main() {
	var (
		addr           = flag.String("addr", ":8090", "listen address")
		shards         = flag.String("shards", "", "comma-separated spand base URLs (required)")
		probeInterval  = flag.Duration("probe-interval", cluster.DefaultProbeInterval, "health-check period per shard")
		failThreshold  = flag.Int("fail-threshold", cluster.DefaultFailThreshold, "consecutive failures that open a shard's circuit")
		attemptTimeout = flag.Duration("attempt-timeout", cluster.DefaultAttemptTimeout, "per-attempt upstream deadline (negative disables)")
		retries        = flag.Int("retries", cluster.DefaultRetries, "retry attempts per failed scatter call (negative disables)")
		backoff        = flag.Duration("backoff", cluster.DefaultBackoffBase, "jittered exponential backoff base between retries")
		maxInFlight    = flag.Int("max-in-flight", cluster.DefaultMaxInFlight, "admitted extraction requests before shedding (negative disables)")
		maxBody        = flag.Int64("max-body", httpapi.DefaultMaxBody, "request body size cap in bytes")
	)
	flag.Parse()
	if *shards == "" {
		fmt.Fprintln(os.Stderr, "spangate: -shards is required (comma-separated spand base URLs)")
		os.Exit(2)
	}
	var urls []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, s)
		}
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	gate, err := cluster.New(cluster.Options{
		Shards:         urls,
		ProbeInterval:  *probeInterval,
		FailThreshold:  *failThreshold,
		AttemptTimeout: *attemptTimeout,
		Retries:        *retries,
		BackoffBase:    *backoff,
		MaxInFlight:    *maxInFlight,
		MaxBody:        *maxBody,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spangate:", err)
		os.Exit(1)
	}
	defer gate.Close()

	srv := &http.Server{Addr: *addr, Handler: gate, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("spangate: listening on %s over %d shard(s): %s", *addr, len(urls), strings.Join(urls, ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "spangate:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Print("spangate: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("spangate: drain window expired: %v", err)
			srv.Close()
		}
	}
}
