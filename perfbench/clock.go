package main

import (
	"syscall"
	"time"
)

// cpuNow reads the process CPU clock: user plus system time of all its
// threads. Every host time the benchmark reports is read from it. On a
// shared virtual machine the hypervisor takes the CPU away for long
// stretches (steal time, which reached 40% on a 2-vCPU VM and doubled
// wall-clock pass times); the CPU clock stops while that happens, and
// otherwise runs with the wall clock, since the process keeps its one P
// busy (run).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
