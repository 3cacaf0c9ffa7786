package runtime

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	p := NewPool(4)
	for _, n := range []int{0, 1, 7, 64, 1000, 4097} {
		hits := make([]int32, n)
		p.ParallelFor(n, 13, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestParallelForSerialFallback(t *testing.T) {
	p := NewPool(1)
	calls := 0
	p.ParallelFor(100, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Errorf("single-worker pool should run one chunk, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("expected exactly one inline call, got %d", calls)
	}
}

// Concurrent ParallelFor callers must all complete even when they exceed the
// pool's submission queue: the caller-participates design guarantees
// progress without worker availability.
func TestParallelForConcurrentCallers(t *testing.T) {
	p := NewPool(2)
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ParallelFor(1000, 7, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 16*1000 {
		t.Errorf("iterations = %d, want %d", got, 16*1000)
	}
}

func TestDefaultPoolSingleton(t *testing.T) {
	if Default() != Default() {
		t.Error("Default() must return the same pool")
	}
	if Default().Workers() < 1 {
		t.Error("default pool must have at least one worker")
	}
}

// A panic inside a ParallelFor body must re-surface on the calling
// goroutine as a *ChunkPanic — never kill a shared worker (which would
// crash the process) — and must leave the pool serviceable.
func TestParallelForPanicTransfersToCaller(t *testing.T) {
	p := NewPool(4)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.ParallelFor(1000, 1, func(lo, hi int) {
			if lo >= 500 {
				panic("kernel died")
			}
		})
	}()
	cp, ok := recovered.(*ChunkPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *ChunkPanic", recovered, recovered)
	}
	if cp.Value != "kernel died" {
		t.Errorf("ChunkPanic.Value = %v, want the original payload", cp.Value)
	}
	if len(cp.Stack) == 0 {
		t.Error("ChunkPanic.Stack is empty; the worker stack was not captured")
	}
	// Workers survived: the pool still runs full sweeps.
	var total atomic.Int64
	for i := 0; i < 4; i++ {
		p.ParallelFor(1000, 7, func(lo, hi int) { total.Add(int64(hi - lo)) })
	}
	if got := total.Load(); got != 4*1000 {
		t.Errorf("post-panic iterations = %d, want %d (a worker died?)", got, 4*1000)
	}
}

// A panic on the single-shard fast path (no workers involved) propagates
// directly — the capture machinery must not swallow it.
func TestParallelForPanicSingleShard(t *testing.T) {
	p := NewPool(1)
	defer func() {
		if recover() == nil {
			t.Error("single-shard panic did not propagate")
		}
	}()
	p.ParallelFor(10, 100, func(lo, hi int) { panic("boom") })
}

// ParallelFor takes its per-call state from a pool and hands helpers a
// pointer, so with a body bound once it allocates nothing.
func TestParallelForZeroAlloc(t *testing.T) {
	p := NewPool(2)
	var total atomic.Int64
	body := func(lo, hi int) { total.Add(int64(hi - lo)) }
	if n := testing.AllocsPerRun(100, func() { p.ParallelFor(1000, 10, body) }); n != 0 {
		t.Errorf("ParallelFor: %v allocs/op, want 0", n)
	}
	if got := total.Load(); got != 101*1000 {
		t.Errorf("iterations = %d, want %d", got, 101*1000)
	}
}

// After a task a helper spins, and after the spin window every helper is
// parked again, so an idle pool costs no CPU. A pool of one worker has no
// helper goroutine at all: it never spins and runs every loop as one
// inline chunk.
func TestPoolHelpersPark(t *testing.T) {
	p := NewPool(4)
	deadline := time.Now().Add(5 * time.Second)
	for stdruntime.GOMAXPROCS(0) > 1 && p.spinning.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no helper entered its spin window in 5s of ParallelFor calls")
		}
		p.ParallelFor(2, 1, func(lo, hi int) { time.Sleep(50 * time.Microsecond) })
	}
	for p.spinning.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still spinning 5s on (window %v)", p.spinning.Load(), spinWindow)
		}
		time.Sleep(spinWindow)
	}

	before := stdruntime.NumGoroutine()
	one := NewPool(1)
	if g := stdruntime.NumGoroutine(); g > before {
		t.Errorf("NewPool(1) started %d goroutines, want 0", g-before)
	}
	calls := 0
	one.ParallelFor(100, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Errorf("one-worker pool ran chunk [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 || one.spinning.Load() != 0 {
		t.Errorf("one-worker pool: %d chunks, %d spinning; want 1 inline chunk, 0 spinning", calls, one.spinning.Load())
	}
}

// A caller that has run every chunk itself returns without waiting for a
// helper that never joined: here the pool's only helper is held inside
// another caller's loop, and its task for the second caller sits queued.
func TestParallelForDoesNotWaitForBusyHelper(t *testing.T) {
	if stdruntime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps for the first loop to occupy the helper")
	}
	p := NewPool(2)
	entered, release := make(chan struct{}), make(chan struct{})
	go p.ParallelFor(2, 1, func(lo, hi int) {
		entered <- struct{}{}
		<-release
	})
	<-entered
	<-entered // the caller and the helper are both inside the first loop
	defer close(release)

	done := make(chan int64)
	go func() {
		var total atomic.Int64
		p.ParallelFor(100, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
		done <- total.Load()
	}()
	select {
	case got := <-done:
		if got != 100 {
			t.Errorf("iterations = %d, want 100", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ParallelFor waited for a helper busy in another loop")
	}
}
