package main

import (
	"testing"
	"time"
)

func durs(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	ten := durs(10, 1, 9, 2, 8, 3, 7, 4, 6, 5)
	cases := []struct {
		p    float64
		want int
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0, 1}, {0.1, 1}, {0.11, 2}}
	for _, c := range cases {
		if got := percentile(ten, c.p); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("percentile(1..10 ms, %v) = %v, want %d ms", c.p, got, c.want)
		}
	}
	// 0.9 × 120 is 108.00000000000001 in floating point; the rank is
	// still 108, which leaves twelve samples beyond it.
	big := make([]time.Duration, 120)
	for i := range big {
		big[i] = time.Duration(i + 1)
	}
	if got := percentile(big, 0.9); got != 108 {
		t.Errorf("percentile(1..120, 0.9) = %d, want 108", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if ten[0] != 10*time.Millisecond {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median(durs(3, 1, 2)); got != 2*time.Millisecond {
		t.Errorf("median of three = %v, want 2ms", got)
	}
	if got := median(durs(4, 1, 3, 2)); got != 2500*time.Microsecond {
		t.Errorf("median of four = %v, want 2.5ms", got)
	}
}

func TestBestOfTakesEachRequestsLeast(t *testing.T) {
	passes := [][]time.Duration{
		durs(5, 9, 7),
		append(durs(6, 4), failedLatency), // request 2 failed in this pass
		durs(8, 6, 3),
	}
	got := bestOf(passes)
	want := durs(5, 4, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bestOf request %d = %v, want %v", i, got[i], want[i])
		}
	}
	if sum(got) != 12*time.Millisecond {
		t.Errorf("busy time of the best pass = %v, want 12ms", sum(got))
	}
	if passes[0][1] != 9*time.Millisecond {
		t.Error("bestOf changed its first pass")
	}
}

func TestPassSpread(t *testing.T) {
	passes := []passStats{{busy: 2 * time.Second}, {busy: 2500 * time.Millisecond}, {busy: 2200 * time.Millisecond}}
	if got := passSpreadPct(passes); got != 25 {
		t.Errorf("spread = %v%%, want 25%%", got)
	}
}

func TestSelfTimesSumToTopRung(t *testing.T) {
	ladder := []rung{
		{"span", 10 * time.Microsecond},
		{"program", 40 * time.Microsecond},
		{"eval", 6 * time.Millisecond},
		{"service", 6500 * time.Microsecond},
		{"httpapi", 6400 * time.Microsecond}, // noise can put a rung below the one under it
		{"http", 8 * time.Millisecond},
	}
	self := selfTimes(ladder)
	if self["span"] != 10*time.Microsecond || self["program"] != 30*time.Microsecond {
		t.Errorf("span %v program %v, want 10µs and 30µs", self["span"], self["program"])
	}
	if self["httpapi"] != -100*time.Microsecond {
		t.Errorf("httpapi self = %v, want -100µs (not clamped)", self["httpapi"])
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total != 8*time.Millisecond {
		t.Errorf("self times sum to %v, want the top rung, 8ms", total)
	}
}

func TestGCPauseWindow(t *testing.T) {
	var ring [256]uint64
	// Collection number g (1-based) sits at ring[(g+255)%256].
	for g := uint64(1); g <= 300; g++ {
		ring[(g+255)%256] = g
	}
	if got := gcPause(&ring, 297, 300); got != 298+299+300 {
		t.Errorf("pauses of collections 298..300 = %d, want %d", got, 298+299+300)
	}
	if got := gcPause(&ring, 300, 300); got != 0 {
		t.Errorf("no collections, pause %d", got)
	}
	// More collections than the ring holds: the ring's sum scaled up.
	var all uint64
	for g := uint64(45); g <= 300; g++ {
		all += g
	}
	if got, want := gcPause(&ring, 0, 300), time.Duration(float64(all)*300/256); got != want {
		t.Errorf("scaled pause = %d, want %d", got, want)
	}
}
