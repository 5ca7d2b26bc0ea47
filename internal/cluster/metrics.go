package cluster

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	"spanners/internal/obs"
)

// gateCounters are the gate-level atomic counters behind the
// spand_gate_* families and the Stats snapshot.
type gateCounters struct {
	inFlight      atomic.Int64
	shed          atomic.Uint64
	coalesced     atomic.Uint64
	retries       atomic.Uint64
	streamedLines atomic.Uint64
	panics        atomic.Uint64
}

// registerMetrics wires the cluster-level Prometheus families into
// the gate's registry, served by /v1/metrics. Counters
// collect from the live atomics at scrape time; the histograms are
// registered directly.
func (g *Gate) registerMetrics() {
	r := obs.NewRegistry()
	g.prom = r
	r.RegisterCounterFunc("spand_gate_shard_requests_total",
		"Upstream requests by shard and outcome (ok, client_error, error, timeout).",
		func() []obs.Sample {
			var out []obs.Sample
			for _, sh := range g.shards {
				for o, name := range outcomeNames {
					out = append(out, obs.Sample{
						Labels: []string{obs.L("shard", sh.name()), obs.L("outcome", name)},
						Value:  float64(sh.outcomes[o].Load()),
					})
				}
			}
			return out
		})
	r.RegisterHistogram("spand_gate_fanout_duration_seconds",
		"Batch extract latency through the gate: decode, scatter, retries, merge.",
		g.fanout)
	r.RegisterHistogram("spand_gate_stream_ttfb_seconds",
		"Time from stream commit to the first proxied mapping line.",
		g.ttfb)
	r.RegisterCounterFunc("spand_gate_coalesced_total",
		"Extraction units served by another in-flight identical unit (single-flight).",
		func() []obs.Sample { return []obs.Sample{{Value: float64(g.counters.coalesced.Load())}} })
	r.RegisterCounterFunc("spand_gate_shed_total",
		"Extraction requests shed by admission control (503 overloaded).",
		func() []obs.Sample { return []obs.Sample{{Value: float64(g.counters.shed.Load())}} })
	r.RegisterCounterFunc("spand_gate_retries_total",
		"Upstream attempts beyond the first, across batch, stream and registry-read calls.",
		func() []obs.Sample { return []obs.Sample{{Value: float64(g.counters.retries.Load())}} })
	r.RegisterCounterFunc("spand_gate_streamed_lines_total",
		"NDJSON mapping lines proxied through (the first flushed at once, later ones within 1 ms).",
		func() []obs.Sample { return []obs.Sample{{Value: float64(g.counters.streamedLines.Load())}} })
	r.RegisterCounterFunc("spand_gate_panics_total",
		"Scatter goroutines that panicked; their units failed with 500 internal.",
		func() []obs.Sample { return []obs.Sample{{Value: float64(g.counters.panics.Load())}} })
	r.RegisterCounterFunc("spand_gate_circuit_opens_total",
		"Circuit-breaker open transitions by shard.",
		func() []obs.Sample {
			var out []obs.Sample
			for _, sh := range g.shards {
				out = append(out, obs.Sample{
					Labels: []string{obs.L("shard", sh.name())},
					Value:  float64(sh.opened.Load()),
				})
			}
			return out
		})
	r.RegisterGaugeFunc("spand_gate_in_flight",
		"Admitted extraction requests currently in flight.",
		func() []obs.Sample { return []obs.Sample{{Value: float64(g.counters.inFlight.Load())}} })
	r.RegisterGaugeFunc("spand_gate_healthy_shards",
		"Shards whose circuit is currently closed.",
		func() []obs.Sample { return []obs.Sample{{Value: float64(len(g.healthy()))}} })
}

// ShardStats is one shard's health and traffic summary.
type ShardStats struct {
	URL                 string            `json:"url"`
	Healthy             bool              `json:"healthy"`
	ConsecutiveFailures int               `json:"consecutive_failures"`
	CircuitOpens        uint64            `json:"circuit_opens"`
	Requests            map[string]uint64 `json:"requests"`
}

// Stats is the gate's own snapshot: per-shard health and outcome
// counters plus the cluster-level gauges, embedded whole in the
// gate's /v1/healthz body.
type Stats struct {
	Shards        []ShardStats `json:"shards"`
	Healthy       int          `json:"healthy"`
	InFlight      int64        `json:"in_flight"`
	Coalesced     uint64       `json:"coalesced"`
	Shed          uint64       `json:"shed"`
	Retries       uint64       `json:"retries"`
	StreamedLines uint64       `json:"streamed_lines"`
}

// Stats snapshots the gate.
func (g *Gate) Stats() Stats {
	st := Stats{
		InFlight:      g.counters.inFlight.Load(),
		Coalesced:     g.counters.coalesced.Load(),
		Shed:          g.counters.shed.Load(),
		Retries:       g.counters.retries.Load(),
		StreamedLines: g.counters.streamedLines.Load(),
	}
	for _, sh := range g.shards {
		healthy := !sh.open.Load()
		if healthy {
			st.Healthy++
		}
		reqs := map[string]uint64{}
		for o, name := range outcomeNames {
			reqs[name] = sh.outcomes[o].Load()
		}
		st.Shards = append(st.Shards, ShardStats{
			URL:                 sh.name(),
			Healthy:             healthy,
			ConsecutiveFailures: int(sh.fails.Load()),
			CircuitOpens:        sh.opened.Load(),
			Requests:            reqs,
		})
	}
	return st
}

// healthzResponse is the gate's /v1/healthz body.
type healthzResponse struct {
	Status string `json:"status"`
	Stats
}

// handleHealthz reports the gate's own liveness plus the shard map:
// "ok" when every circuit is closed, "degraded" when some are open,
// "down" when all are. The response is always 200 — the gate itself
// is alive; shard capacity is the payload, not the status code.
func (g *Gate) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := g.Stats()
	status := "ok"
	switch {
	case st.Healthy == 0:
		status = "down"
	case st.Healthy < len(g.shards):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthzResponse{Status: status, Stats: st})
}

// handleMetrics serves the spand_gate_* Prometheus exposition,
// whatever the query or Accept header asks for.
func (g *Gate) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	g.prom.WritePrometheus(w)
}
