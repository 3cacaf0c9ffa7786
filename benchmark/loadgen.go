package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// arrival is one scheduled request: when it is due, counted from the start
// of the run (warm-up included), which of the workload's request classes it
// belongs to, and which case it sends.
type arrival struct {
	due     time.Duration
	class   int
	caseIdx int
}

// poissonSchedule lays out open-loop arrivals at the given rate. The number
// of arrivals in the warm-up and in the measured window is fixed at
// rate×length; given their number, the arrival times of a Poisson process
// are independent uniform draws, which is what this samples. A fixed count
// keeps the offered load identical across seeds while gaps and bursts still
// vary. The schedule is a pure function of its arguments.
func poissonSchedule(seed int64, rate float64, warm, window time.Duration, ncases int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	fill := func(from, length time.Duration) {
		n := int(rate*length.Seconds() + 0.5)
		dues := make([]time.Duration, n)
		for i := range dues {
			dues[i] = from + time.Duration(rng.Float64()*float64(length))
		}
		sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
		for _, d := range dues {
			out = append(out, arrival{due: d, caseIdx: rng.Intn(ncases)})
		}
	}
	fill(0, warm)
	fill(warm, window)
	return out
}

// burstSchedule lays out bursts every period: perClass[k] requests of class
// k, all due at the same instant, class k's burst stagger after class k-1's.
// Each burst is of one kind: when both kinds arrived together, which of
// them reached the shared session pool first was a coin toss per burst, and
// the tail percentiles flipped between two values from run to run. The seed
// picks the cases.
func burstSchedule(seed int64, period, stagger, warm, window time.Duration, perClass, ncases []int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	for beat := time.Duration(0); beat < warm+window; beat += period {
		for class, n := range perClass {
			due := beat + time.Duration(class)*stagger
			for i := 0; i < n; i++ {
				out = append(out, arrival{due: due, class: class, caseIdx: rng.Intn(ncases[class])})
			}
		}
	}
	return out
}

// waitUntil returns at t, or earlier if ctx is done. It sleeps, in slices
// so that cancellation is noticed within 50 ms, until spin before t and
// polls the clock for the rest. After an idle gap of 100 ms the reference
// host wakes a sleeping thread up to 3 ms late (both virtual processors have
// been halted and the hypervisor has to bring one back); a generator with
// such gaps asks for a few milliseconds of polling, which keeps a processor
// awake when nothing else wants it. One whose gaps are short passes 0.
func waitUntil(ctx context.Context, t time.Time, spin time.Duration) {
	for ctx.Err() == nil {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d <= spin:
			runtime.Gosched()
		default:
			preciseSleep(min(d-spin, 50*time.Millisecond))
		}
	}
}

// sample is one request's outcome. Times are offsets from the start of the
// run, so latency is end-due: a request that waited in the generator for a
// free connection, or behind a stalled predecessor, is charged for it.
type sample struct {
	arrival
	late              time.Duration // how long after due the generator released it
	start, first, end time.Duration
	err               error // transport or program error, or a wrong output
}

// runOpenLoop releases every arrival at its due time and returns one sample
// per arrival, in schedule order. With workers > 0 that many goroutines
// carry the requests, each handling one at a time (a keep-alive connection
// each, for HTTP); a request whose turn comes while all are busy waits in
// the generator. With workers == 0 every request gets its own goroutine.
// spin is passed to waitUntil.
//
// call sends the request; the generator then checks the output, so a wrong
// answer is a failed sample.
func runOpenLoop(ctx context.Context, sched []arrival, workers int, spin time.Duration, call func(a arrival) (callResult, *testCase), rec *recorder) []sample {
	samples := make([]sample, len(sched))
	t0 := time.Now()
	do := func(i int, late time.Duration) {
		a := sched[i]
		res, c := call(a)
		if res.err == nil {
			res.err = check(c, res.reply)
		}
		samples[i] = sample{
			arrival: a, late: late,
			start: res.start.Sub(t0), first: res.first.Sub(t0), end: res.end.Sub(t0),
			err: res.err,
		}
		if rec != nil {
			due := t0.Add(a.due)
			root := rec.reserve()
			rec.add(root, i+1, "gen.wait", due, res.start)
			rec.add(root, i+1, "call.first", res.start, res.first)
			rec.add(root, i+1, "call.rest", res.first, res.end)
			rec.finish(root, 0, i+1, "request", due, res.end)
		}
	}

	type job struct {
		i    int
		late time.Duration
	}
	var wg sync.WaitGroup
	// Buffered to the whole schedule so the dispatcher never blocks on a
	// busy worker: a full pipe would delay later due times.
	jobs := make(chan job, len(sched))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				do(j.i, j.late)
			}
		}()
	}
	for i, a := range sched {
		waitUntil(ctx, t0.Add(a.due), spin)
		if ctx.Err() != nil {
			break
		}
		late := time.Since(t0.Add(a.due))
		if workers > 0 {
			jobs <- job{i, late}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, late)
		}()
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// Cancelled part-way: whatever was never sent is a failure, not a
		// zero-latency success.
		for i := range samples {
			if samples[i].end == 0 {
				samples[i] = sample{arrival: sched[i], err: err}
			}
		}
	}
	return samples
}
