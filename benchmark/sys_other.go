//go:build !linux

package main

import (
	"runtime"
	"time"
)

// preciseSleep falls back to the runtime's timers where nanosleep(2) is not
// in package syscall; expect gen.late_p95_us near 1 ms there.
func preciseSleep(d time.Duration) { time.Sleep(d) }

// canPin is false: there is no portable way to bind threads to processors,
// so the server and the generator share the machine.
const canPin = false

func setAffinity(tid int, cpus []int) error { return nil }

func pinProcess(cpus []int) error { return nil }

func allowedCPUs() ([]int, error) {
	cpus := make([]int, runtime.NumCPU())
	for i := range cpus {
		cpus[i] = i
	}
	return cpus, nil
}
