package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// preciseSleep blocks the calling thread in nanosleep(2). Go's own timers
// are rounded up to a whole millisecond once the process uses the network
// poller (a 50 us time.Sleep takes 1.09 ms here), which would be added to
// every latency measured from a due time; nanosleep overshoots by 0.1 to
// 0.3 ms.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is handled by the caller's loop
}

// canPin says whether this platform can bind threads to processors.
const canPin = true

// setAffinity binds one thread (0 = the calling thread) to the given
// processors. Threads and processes it creates afterwards inherit the
// binding.
func setAffinity(tid int, cpus []int) error {
	var mask [16]uint64 // room for 1024 processors
	for _, c := range cpus {
		if c < 0 || c >= 64*len(mask) {
			return fmt.Errorf("benchmark: cpu %d is out of range", c)
		}
		mask[c/64] |= 1 << (c % 64)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("benchmark: sched_setaffinity: %w", errno)
	}
	return nil
}

// pinProcess binds every thread this process has now to the given
// processors; threads the runtime starts later inherit it from the thread
// that starts them.
func pinProcess(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing needs no binding.
		if err := setAffinity(tid, cpus); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() ([]int, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		var cpus []int
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			first, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("benchmark: Cpus_allowed_list %q: %w", list, err)
			}
			last := first
			if isRange {
				if last, err = strconv.Atoi(hi); err != nil {
					return nil, fmt.Errorf("benchmark: Cpus_allowed_list %q: %w", list, err)
				}
			}
			for c := first; c <= last; c++ {
				cpus = append(cpus, c)
			}
		}
		return cpus, nil
	}
	return nil, fmt.Errorf("benchmark: /proc/self/status has no Cpus_allowed_list")
}
