package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) first() cpuMask {
	var one cpuMask
	for i, word := range m {
		if word != 0 {
			one[i] = word & -word
			break
		}
	}
	return one
}

func affinity(tid int, call uintptr, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// confine sets the CPU mask of every thread of this process, twice over
// so that a thread started during the first pass is caught by the second.
// Threads and child processes started afterwards inherit it.
func confine(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread may exit between the listing and the call.
			if err := affinity(tid, syscall.SYS_SCHED_SETAFFINITY, &m); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// oneCPU confines this process, and the server it is about to start, to
// the first CPU it is allowed on, and returns the function that lifts
// the confinement again.
//
// Why: in the 2-vCPU sandbox this benchmark is measured in, a reply that
// crosses CPUs costs a wake-up through the hypervisor, and what that
// costs depends on what else the host is running. Over four minutes the
// same serve-hot traffic read 146 to 440 µs p50 with server and generator
// free on both CPUs, and 108 to 128 µs — at a third more throughput —
// with both on one. Two connections on one core is a smaller machine
// than an operator would give the server, but it is one whose numbers
// repeat, so a change to the program shows. Builds stay on every CPU:
// they are bound by computing, and confining them only made them slower.
//
// Where the kernel refuses, the run goes on unconfined and only noisier.
func oneCPU() (release func()) {
	var allowed cpuMask
	err := affinity(0, syscall.SYS_SCHED_GETAFFINITY, &allowed)
	if err == nil {
		err = confine(allowed.first())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf: cannot confine the serve workload to one CPU:", err)
		return func() {}
	}
	return func() { confine(allowed) }
}
