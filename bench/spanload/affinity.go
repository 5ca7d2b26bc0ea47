package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// A closed loop of two processes is placed anew by the kernel on every
// wake-up, and which of them shares a core with the server's collector
// changes from run to run; in a probe on the two-core box that alone
// doubled the range of throughput between identical runs. So the
// harness keeps to the first CPU it is allowed and gives the server the
// rest. With a single allowed CPU there is nothing to split.

// cpuSet is a Linux CPU affinity mask (1024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }
func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }

func (s *cpuSet) list() []int {
	var cpus []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// setAffinity binds thread tid (0: the calling thread) to set.
func setAffinity(tid int, set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// placement is which CPUs the harness and the server run on; the sets
// are empty when the allowed CPUs cannot be split.
type placement struct{ client, server cpuSet }

func (p *placement) split() bool { return len(p.server.list()) > 0 }

// placeSelf splits the CPUs this process may use, binds every thread of
// the harness to the first and returns the placement.
func placeSelf() (placement, error) {
	var allowed cpuSet
	var p placement
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return p, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpus := allowed.list()
	if len(cpus) < 2 {
		return p, nil
	}
	p.client.add(cpus[0])
	for _, cpu := range cpus[1:] {
		p.server.add(cpu)
	}
	// Threads started later inherit the mask of the thread that starts
	// them, so binding the ones that exist binds the process.
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, &p.client); err != nil {
			return p, err
		}
	}
	return p, nil
}

// startOn starts cmd bound to the server's CPUs: a child inherits the
// mask of the thread that forks it, so the calling thread borrows the
// server's mask for the fork.
func (p *placement) startOn(start func() error) error {
	if !p.split() {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.server); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, &p.client); err == nil {
		err = rerr
	}
	return err
}
