// Package runtime provides the persistent execution substrate shared by the
// kernel library: a process-wide worker pool executing chunked parallel-for
// loops, used by the large element-wise kernels. Spawning goroutines per
// kernel call would instead pay scheduler and stack-setup cost on every
// dispatch, which is exactly the per-invocation overhead Nimble's ahead-of-
// time design eliminates. Workers are started once (GOMAXPROCS of them) and
// live for the life of the process.
package runtime

import (
	"fmt"
	stdruntime "runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

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
	workers int
	tasks   chan func()
}

// NewPool starts a pool with the given number of workers (<= 0 selects
// GOMAXPROCS). The workers are goroutines blocked on an idle channel; an
// idle pool costs no CPU.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan func(), workers*4)}
	// The calling goroutine always participates in ParallelFor, so
	// workers-1 helpers saturate the pool's advertised width.
	for i := 0; i < workers-1; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for fn := range p.tasks {
		fn()
	}
}

// Workers returns the pool's parallelism.
func (p *Pool) Workers() int { return p.workers }

// ParallelFor runs body over [0, n) split into chunks of at most `grain`
// iterations, load-balanced across the pool by an atomic cursor. The caller
// participates, so progress never depends on worker availability: if the
// submission queue is full the caller simply processes every chunk itself.
// body must be safe to call concurrently on disjoint ranges.
func (p *Pool) ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	shards := p.workers
	if shards > chunks {
		shards = chunks
	}
	if shards <= 1 {
		body(0, n)
		return
	}
	var cursor atomic.Int64
	// A panicking body must not take down a shared worker goroutine (the
	// process would die with it): the first panic is captured here, the
	// cursor is exhausted so remaining shards stop early, and the panic is
	// re-raised on the calling goroutine after every shard has stopped.
	var panicked atomic.Pointer[ChunkPanic]
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				if cp, ok := r.(*ChunkPanic); ok {
					// Nested ParallelFor: pass the original capture through.
					panicked.CompareAndSwap(nil, cp)
				} else {
					panicked.CompareAndSwap(nil, &ChunkPanic{Value: r, Stack: debug.Stack()})
				}
				cursor.Store(int64(chunks))
			}
		}()
		for {
			c := int(cursor.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	var wg sync.WaitGroup
	helper := func() {
		defer wg.Done()
		run()
	}
	for i := 0; i < shards-1; i++ {
		wg.Add(1)
		select {
		case p.tasks <- helper:
		default:
			// Queue full (pool saturated by other callers): skip the helper
			// rather than block — the caller's run loop covers the chunks.
			wg.Done()
		}
	}
	run()
	wg.Wait()
	if cp := panicked.Load(); cp != nil {
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
