// Package runtime provides the persistent execution substrate shared by the
// kernel library: a process-wide worker pool executing chunked parallel-for
// loops, used by the large element-wise kernels and by the dense kernels'
// column panels. Spawning goroutines per kernel call would instead pay
// scheduler and stack-setup cost on every dispatch, which is exactly the
// per-invocation overhead Nimble's ahead-of-time design eliminates. Workers
// are started once (GOMAXPROCS of them) and live for the life of the process.
//
// After each task a helper keeps polling for the next one for a bounded
// window (spinWindow), yielding its P with runtime.Gosched on every poll,
// and only then parks on the task channel: back-to-back kernel calls find
// it awake instead of paying a wake-up, and an idle pool costs no CPU once
// the window has passed.
package runtime

import (
	"fmt"
	stdruntime "runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long a helper polls for the next task before parking.
const spinWindow = 100 * time.Microsecond

// ChunkPanic is a panic captured on a pool worker goroutine and re-raised
// on the goroutine that called ParallelFor. Without this transfer a kernel
// panic on a shared worker would crash the whole process with no recover in
// sight; with it, the panic surfaces where the request-level isolation
// (internal/serve's session recovery) can catch it. Value is the original
// panic payload; Stack is the worker's stack at capture time.
type ChunkPanic struct {
	Value any
	Stack []byte
}

func (c *ChunkPanic) String() string {
	return fmt.Sprintf("parallel-for chunk panicked: %v", c.Value)
}

// Pool is a fixed set of persistent worker goroutines serving parallel-for
// shards. The zero value is not usable; construct with NewPool or use the
// process-wide Default pool.
type Pool struct {
	workers  int
	tasks    chan task
	spinning atomic.Int32 // helpers inside their post-task spin window
}

// NewPool starts a pool with the given number of workers (<= 0 selects
// GOMAXPROCS). The helpers spin for at most spinWindow after each task and
// are otherwise parked on the task channel, so a pool left idle for longer
// than the window costs no CPU. A pool of one worker has no helpers: it
// never spins and runs every loop on the caller.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	// A few tasks per helper let overlapping callers queue theirs; a caller
	// that finds the queue full runs its loop alone.
	p := &Pool{workers: workers, tasks: make(chan task, workers*4)}
	// The calling goroutine always participates in ParallelFor, so
	// workers-1 helpers saturate the pool's advertised width.
	for i := 0; i < workers-1; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for t := range p.tasks {
		for ok := true; ok; t, ok = p.spin() {
			t.s.help(t.gen)
		}
	}
}

// spin polls for the next task for up to spinWindow.
func (p *Pool) spin() (task, bool) {
	p.spinning.Add(1)
	defer p.spinning.Add(-1)
	return poll(p.tasks)
}

// poll receives from ch, polling for up to spinWindow and yielding the P
// between polls, and reports false once the window passes empty.
func poll[T any](ch chan T) (T, bool) {
	for start := time.Now(); time.Since(start) < spinWindow; stdruntime.Gosched() {
		select {
		case v := <-ch:
			return v, true
		default:
		}
	}
	var zero T
	return zero, false
}

// Workers returns the pool's parallelism.
func (p *Pool) Workers() int { return p.workers }

// forState is one ParallelFor call's shared state. States are recycled
// through forStates and handed to helpers as pointers, so a call allocates
// nothing beyond what the caller's body does.
type forState struct {
	n, grain, chunks int
	body             func(lo, hi int)
	cursor           atomic.Int64
	panicked         atomic.Pointer[ChunkPanic]
	// state is the call's generation in the high 32 bits and the number of
	// helpers inside it in the low 32. The caller closes a call by bumping
	// the generation; a helper holding an older one stays out.
	state atomic.Uint64
	done  chan struct{} // the last helper out of a closed call signals here
}

// task asks a helper to join generation gen of s.
type task struct {
	s   *forState
	gen uint32
}

var forStates = sync.Pool{New: func() any { return &forState{done: make(chan struct{}, 1)} }}

// help joins call gen unless its caller has already closed it: a helper
// that wakes late never holds up the caller, which has run the chunks
// itself by then.
func (s *forState) help(gen uint32) {
	for {
		st := s.state.Load()
		if uint32(st>>32) != gen {
			return
		}
		if s.state.CompareAndSwap(st, st+1) {
			break
		}
	}
	s.run()
	if st := s.state.Add(^uint64(0)); uint32(st>>32) != gen && uint32(st) == 0 {
		s.done <- struct{}{}
	}
}

// run claims chunks off the shared cursor until none are left. A panicking
// body must not take down a shared worker goroutine (the process would die
// with it): the first panic is captured here, the cursor is exhausted so
// remaining shards stop early, and ParallelFor re-raises it on the calling
// goroutine after every shard has stopped.
func (s *forState) run() {
	defer func() {
		if r := recover(); r != nil {
			if cp, ok := r.(*ChunkPanic); ok {
				// Nested ParallelFor: pass the original capture through.
				s.panicked.CompareAndSwap(nil, cp)
			} else {
				s.panicked.CompareAndSwap(nil, &ChunkPanic{Value: r, Stack: debug.Stack()})
			}
			s.cursor.Store(int64(s.chunks))
		}
	}()
	for {
		c := int(s.cursor.Add(1)) - 1
		if c >= s.chunks {
			return
		}
		lo := c * s.grain
		s.body(lo, min(lo+s.grain, s.n))
	}
}

// ParallelFor runs body over [0, n) split into chunks of at most `grain`
// iterations, load-balanced across the pool by an atomic cursor. At most
// GOMAXPROCS shards run, so a pool wider than the Ps it may use hands no
// work to helpers that could not run alongside the caller. The caller
// participates, so progress never depends on worker availability: once it
// has claimed the last chunk it waits only for helpers already running one,
// and if the submission queue is full it simply processes every chunk.
// body must be safe to call concurrently on disjoint ranges; a body bound
// once and reused (a method value kept in a struct) keeps the call free of
// heap allocations.
func (p *Pool) ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	grain = max(grain, 1)
	chunks := (n + grain - 1) / grain
	shards := min(p.workers, chunks, stdruntime.GOMAXPROCS(0))
	if shards <= 1 {
		body(0, n)
		return
	}
	s := forStates.Get().(*forState)
	s.n, s.grain, s.chunks, s.body = n, grain, chunks, body
	gen := uint32(s.state.Load() >> 32)
	for i := 0; i < shards-1; i++ {
		select {
		case p.tasks <- task{s, gen}:
		default:
			// Queue full (pool saturated by other callers): skip the helper
			// rather than block — the caller's run loop covers the chunks.
		}
	}
	s.run()
	// Close the call. Helpers still inside are each finishing one chunk, so
	// poll for the last one's signal before parking on it.
	if st := s.state.Add(1 << 32); uint32(st) != 0 {
		if _, ok := poll(s.done); !ok {
			<-s.done
		}
	}
	cp := s.panicked.Swap(nil)
	s.body = nil
	s.cursor.Store(0)
	forStates.Put(s)
	if cp != nil {
		panic(cp)
	}
}

var (
	defaultPool *Pool
	defaultOnce sync.Once
)

// Default returns the process-wide pool, started on first use with
// GOMAXPROCS workers.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}
