package main

import (
	"math"
	"slices"
	"time"
)

// percentile is the nearest-rank percentile of ds: the smallest sample
// with at least p of the samples at or below it. ds need not be sorted.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(ds))
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9)) // 0.9 × 120 is a hair above 108 in floating point
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle of v, the mean of the middle two when even.
func median[T time.Duration | float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// passStats is what one timed pass over the request list measured.
type passStats struct {
	busy      time.Duration   // Σ request latency: the time the client waited on the server
	lat, ttfm []time.Duration // by request index; failedLatency where the request failed
	cpu, sys  time.Duration   // server user+system and system CPU over the pass
	clientCPU time.Duration   // the harness's own CPU over the pass
}

// failedLatency stands in for the latency of a request that failed, so
// that it is never the best sample of its index.
const failedLatency = time.Duration(math.MaxInt64)

// bestOf reduces identical passes to one: sample i is the least that
// request i took in any pass. Every pass sends the same requests, and
// noise on a shared machine only ever slows a request, so the least of
// several tries is the steadiest estimate of what the code costs. It is
// the fastest-pass rule applied per request: a burst of noise spoils
// the requests it hits, not the whole pass it falls in.
func bestOf(passes [][]time.Duration) []time.Duration {
	best := append([]time.Duration(nil), passes[0]...)
	for _, p := range passes[1:] {
		for i, d := range p {
			best[i] = min(best[i], d)
		}
	}
	return best
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// passSpreadPct is (slowest − fastest)/fastest over the passes, in
// percent: how much the machine disturbed the run.
func passSpreadPct(passes []passStats) float64 {
	lo, hi := passes[0].busy, passes[0].busy
	for _, p := range passes {
		lo, hi = min(lo, p.busy), max(hi, p.busy)
	}
	return 100 * float64(hi-lo) / float64(lo)
}

// rung is one step of the layer ladder: the same requests pushed
// through one entry point, deeper than the rung before it.
type rung struct {
	layer string
	per   time.Duration // mean over requests of the best repetition
}

// selfTimes turns a ladder into per-layer self times: each rung minus
// the rung below it, the first rung minus nothing. By construction they
// sum to the top rung.
func selfTimes(ladder []rung) map[string]time.Duration {
	self := map[string]time.Duration{}
	var below time.Duration
	for _, r := range ladder {
		self[r.layer] = r.per - below
		below = r.per
	}
	return self
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
