package main

import (
	"syscall"
	"unsafe"
)

// Linux CPU-time clocks (clock_gettime(2)): nanosecond resolution, unlike
// getrusage, which counts scheduler ticks.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// processCPU returns the CPU time all of the process's threads have used,
// in seconds. Unlike wall time it excludes the time the hypervisor gives
// this machine's CPUs to other guests (steal).
func processCPU() float64 { return cpuClock(clockProcessCPUTime) }

// threadCPU returns the calling OS thread's CPU time in seconds; the
// caller must be locked to its thread.
func threadCPU() float64 { return cpuClock(clockThreadCPUTime) }

func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}
