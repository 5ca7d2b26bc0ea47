package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spand is one separately started server process. Its counters are read
// from surfaces that outlive the serving code's planned clean-ups:
// /proc for CPU and peak memory, and the runtime.MemStats footer of
// /debug/pprof/heap?debug=1 on -pprof-addr for allocations and GC. The
// expvar JSON behind /v1/metrics and the legacy routes are slated for
// deletion, so nothing here touches them.
type spand struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	pprof string
	logf  *os.File
}

// startSpand executes bin with a fresh registry under dir and returns
// once /v1/healthz answers. The server is pinned to GOMAXPROCS=2,
// GOGC=100 and -workers 2 whatever the caller's environment says, and
// to the CPUs place gives it.
func startSpand(ctx context.Context, bin, dir string, place *placement) (*spand, error) {
	reg := filepath.Join(dir, "registry")
	if err := os.RemoveAll(reg); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(reg, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "spand.log"))
	if err != nil {
		return nil, err
	}
	s := &spand{
		base:  "http://" + ports[0],
		pprof: "http://" + ports[1],
		logf:  logf,
	}
	s.cmd = exec.Command(bin, "-addr", ports[0], "-pprof-addr", ports[1],
		"-workers", "2", "-registry", reg)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=2", "GOGC=100")
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := place.startOn(s.cmd.Start); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("spand did not become healthy on %s (see %s): %v", s.base, logf.Name(), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to shut down, waits for it to exit and kills it
// if it does not.
func (s *spand) stop() {
	defer s.logf.Close()
	if s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// freePorts reserves n loopback ports by listening on port 0 and
// closing again; the server binds them a moment later.
func freePorts(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// procSample is what the harness reads about the server between passes.
type procSample struct {
	user, sys time.Duration // process CPU, from /proc/<pid>/stat
	mallocs   uint64        // runtime.MemStats.Mallocs
	allocated uint64        // runtime.MemStats.TotalAlloc
	numGC     uint64
	pauseNS   [256]uint64 // MemStats.PauseNs, the ring of recent pauses
	gcCPU     float64     // MemStats.GCCPUFraction, since process start
}

// clockTick is the kernel's USER_HZ, 100 on every Linux port Go runs
// on; /proc/<pid>/stat counts CPU time in these ticks.
const clockTick = 10 * time.Millisecond

// cpuTimes reads the process's user and system CPU time.
func cpuTimes(pid int) (user, sys time.Duration, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis, after which utime and stime are the
	// 12th and 13th.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// sample reads the server's CPU and memory counters.
func (s *spand) sample(ctx context.Context) (procSample, error) {
	var ps procSample
	var err error
	if ps.user, ps.sys, err = cpuTimes(s.cmd.Process.Pid); err != nil {
		return ps, err
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.pprof+"/debug/pprof/heap?debug=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ps, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ps, fmt.Errorf("GET %s: %s", req.URL, resp.Status)
	}
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "# ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		switch name {
		case "Mallocs":
			ps.mallocs, err = strconv.ParseUint(val, 10, 64)
		case "TotalAlloc":
			ps.allocated, err = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			ps.numGC, err = strconv.ParseUint(val, 10, 64)
		case "GCCPUFraction":
			ps.gcCPU, err = strconv.ParseFloat(val, 64)
		case "PauseNs":
			for i, f := range strings.Fields(strings.Trim(val, "[]")) {
				if i < len(ps.pauseNS) && err == nil {
					ps.pauseNS[i], err = strconv.ParseUint(f, 10, 64)
				}
			}
		default:
			continue
		}
		if err != nil {
			return ps, fmt.Errorf("heap profile footer: %s = %q: %w", name, val, err)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return ps, err
	}
	if seen != 5 {
		return ps, fmt.Errorf("heap profile footer: found %d of 5 MemStats fields", seen)
	}
	return ps, nil
}

// gcPause sums the pauses of the collections numbered (from, to] out of
// the 256-entry ring; when more than 256 ran, the ring's sum is scaled
// up to the count.
func gcPause(ring *[256]uint64, from, to uint64) time.Duration {
	n := to - from
	if n == 0 {
		return 0
	}
	var sum uint64
	k := min(n, 256)
	for i := uint64(0); i < k; i++ {
		sum += ring[(to-i+255)%256]
	}
	return time.Duration(float64(sum) * float64(n) / float64(k))
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func (s *spand) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", s.cmd.Process.Pid)
}

// selfCPU is the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadAvg1 is the 1-minute load average.
func loadAvg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _ := strconv.ParseFloat(strings.Fields(string(raw))[0], 64)
	return f
}
