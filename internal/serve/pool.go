// Package serve is Nimble's concurrent serving runtime. The paper's
// compile-once VM makes dynamic models servable; this package makes them
// serve concurrent traffic: one frozen vm.Executable (weights, bytecode,
// kernel table — all immutable) is shared by a pool of vm.VM sessions, each
// owning the mutable per-execution state (storage pool, frames, scratch,
// profiler). Every request takes one path: past its entry's admission Gate,
// into the Scheduler's run queue, and onto a session one of the scheduler's
// workers holds — alone, coalesced with compatible rows, or interleaved
// with other decode streams.
//
// Every blocking path accepts a context.Context: a queued request is
// withdrawn when its context is canceled, a running one stops at its next
// step. Cancellation errors wrap both ErrCanceled and the underlying
// context error.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// Session is one checked-out execution context over the pool's shared
// executable. A session must be used by at most one goroutine between
// Acquire and Release; its storage pool and frame recycler carry over
// between runs, so repeated requests on one session reuse memory exactly
// like the single-VM hot path.
type Session struct {
	machine *vm.VM
	id      int
	// invocations counts runs begun on this session. Atomic: increments
	// happen on the goroutine holding the session while Stats may read
	// concurrently from another.
	invocations atomic.Int64
	// poisoned marks a session whose VM panicked mid-execution. Its storage
	// pool, frames, and scratch may be inconsistent (a kernel died halfway
	// through writing a planner buffer), so Release quarantines it: the
	// session is discarded and a fresh VM minted in its place. Written and
	// read on the goroutine that holds the session.
	poisoned bool
}

// BeginStream prepares a step-resumable streaming run on this session: the
// vm.StreamRun executes one compiled-loop iteration per StepStream call
// instead of pinning the session for the whole decode. Many StreamRuns may
// be parked on one session at once — that is the point — but their Begin
// and Step calls must all happen on the goroutine that holds the session.
// A VM or kernel panic is recovered here — the isolation boundary between
// one request and the process — converted into an *InternalError, and the
// session is poisoned so the pool replaces it instead of reusing its state.
func (s *Session) BeginStream(sink func(*tensor.Tensor) error, name string, args ...vm.Object) (r *vm.StreamRun, err error) {
	s.invocations.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			s.poisoned = true
			r, err = nil, Internal(name, rec, debug.Stack())
		}
	}()
	return s.machine.BeginStream(sink, name, args...)
}

// StepStream advances a run begun with BeginStream by one compiled-loop
// iteration (or to completion for loop-free entries). The context is
// checked at VM call boundaries, so a deep recursion (an LSTM stepping a
// long sequence) notices cancellation mid-step. A panic poisons the session
// and surfaces as *InternalError — also after part of a token stream has
// been delivered, which is why streaming consumers must treat the run's
// final error, not the tokens, as the request's outcome. The caller must
// then treat every other run parked on this session as lost too, since
// they share the poisoned VM's storage pool.
func (s *Session) StepStream(ctx context.Context, name string, r *vm.StreamRun) (done bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.poisoned = true
			done, err = true, Internal(name, rec, debug.Stack())
		}
	}()
	done, err = r.Step(ctx)
	return done, WrapCtxErr(err)
}

// Poisoned reports whether this session's VM panicked mid-execution. Valid
// on the goroutine holding the session.
func (s *Session) Poisoned() bool { return s.poisoned }

// ID returns the session's index within its pool.
func (s *Session) ID() int { return s.id }

// waiter is one goroutine parked in Acquire with no free session. Release
// hands a session directly to the oldest live waiter (ownership transfers
// without touching the free stack); Close delivers nil, which the waiter
// reads as ErrClosed. The channel is buffered so the handoff never blocks
// the releasing goroutine.
type waiter struct {
	ch chan *Session
	id uint64
}

// Pool shares one immutable executable across nWorkers VM sessions with
// LIFO checkout: the most recently released session is handed out first,
// so under light load a few hot sessions serve everything and their
// storage pools and frame recyclers stay cache-resident; cold sessions
// are only touched when concurrency actually demands them. The Scheduler's
// workers are its only production callers.
type Pool struct {
	exe *vm.Executable
	// shared is the cross-VM storage tier every session (including the
	// fresh VMs minted by quarantine) attaches to; nil means each session
	// keeps a purely private storage pool.
	shared *vm.SharedStoragePool

	mu       sync.Mutex
	free     []*Session // LIFO stack
	all      []*Session
	waiters  []*waiter          // FIFO queue of parked Acquires
	waiterID map[uint64]*waiter // live waiters, for O(1) cancel removal
	nextWait uint64
	closed   bool

	// stats. inFlight/peakInUse/waits/waitTime piggyback on the checkout
	// lock; invocations/errors are atomic so the result path does not take
	// the pool mutex a third time per request.
	invocations atomic.Int64
	errors      atomic.Int64
	inFlight    int
	peakInUse   int
	waits       int64 // acquires that found the stack empty and blocked
	waitTime    time.Duration
	quarantined int64 // poisoned sessions replaced by fresh VMs
}

// NewPool freezes exe and builds nWorkers sessions over it. The executable
// must be fully constructed (compiled, or deserialized and linked) before
// pooling; Freeze makes any later mutation a panic instead of a data race.
func NewPool(exe *vm.Executable, nWorkers int) (*Pool, error) {
	return NewPoolShared(exe, nWorkers, nil)
}

// NewPoolShared is NewPool with a cross-VM storage tier: every session —
// including the fresh VMs quarantine mints over poisoned ones — attaches
// to shared, so local storage misses draw from the common stock and local
// overflow migrates there instead of dying. Passing the same shared pool
// to the pools of several executables is the point: a multi-model server's
// resident buffer memory then tracks the concurrent working set, not the
// model count. A nil shared pool degrades to NewPool.
func NewPoolShared(exe *vm.Executable, nWorkers int, shared *vm.SharedStoragePool) (*Pool, error) {
	if nWorkers <= 0 {
		return nil, fmt.Errorf("serve: pool needs at least 1 worker, got %d", nWorkers)
	}
	if len(exe.KernelNames) > 0 {
		// Surface unlinked kernels at pool construction, not first request.
		if _, err := exe.Kernel(0); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	exe.Freeze()
	p := &Pool{exe: exe, shared: shared, waiterID: map[uint64]*waiter{}}
	for i := 0; i < nWorkers; i++ {
		s := p.newSession(i)
		p.all = append(p.all, s)
		p.free = append(p.free, s)
	}
	return p, nil
}

// newSession mints session i's VM with the pool's storage configuration
// applied; construction and the quarantine replacement path share it so a
// fresh VM can never silently lose the shared-tier attachment.
func (p *Pool) newSession(i int) *Session {
	m := vm.New(p.exe)
	if p.shared != nil {
		m.AttachSharedPool(p.shared)
	}
	m.MarkPooled()
	return &Session{machine: m, id: i}
}

// Executable returns the shared (frozen) executable.
func (p *Pool) Executable() *vm.Executable { return p.exe }

// Size returns the number of sessions the pool owns.
func (p *Pool) Size() int { return len(p.all) }

// Acquire checks out a session, blocking until one is free, the context is
// canceled, or the pool is closed. A canceled context returns an error
// wrapping ErrCanceled and ctx.Err() without consuming a session — a
// pre-canceled context never joins the wait queue at all. A closed pool
// returns ErrClosed.
func (p *Pool) Acquire(ctx context.Context) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, Canceled(err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("serve: pool: %w", ErrClosed)
	}
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.checkoutLocked()
		p.mu.Unlock()
		return s, nil
	}
	// No session free: park. Release hands a session straight to the oldest
	// live waiter; cancellation removes the waiter from the live set so the
	// handoff skips it.
	w := &waiter{ch: make(chan *Session, 1), id: p.nextWait}
	p.nextWait++
	p.waiters = append(p.waiters, w)
	p.waiterID[w.id] = w
	p.waits++
	start := time.Now()
	p.mu.Unlock()

	select {
	case s := <-w.ch:
		if s == nil {
			return nil, fmt.Errorf("serve: pool: %w", ErrClosed)
		}
		p.mu.Lock()
		p.waitTime += time.Since(start)
		p.mu.Unlock()
		return s, nil
	case <-ctx.Done():
		p.mu.Lock()
		if _, live := p.waiterID[w.id]; live {
			delete(p.waiterID, w.id)
			// Dead waiters normally drain when a Release walks the queue;
			// under retry storms with no Release in sight (one long run
			// holding every session), compact eagerly so the queue stays
			// proportional to the live waiters.
			if len(p.waiters) > 16 && len(p.waiters) > 2*len(p.waiterID) {
				kept := p.waiters[:0]
				for _, lw := range p.waiters {
					if _, ok := p.waiterID[lw.id]; ok {
						kept = append(kept, lw)
					}
				}
				clear(p.waiters[len(kept):])
				p.waiters = kept
			}
			p.mu.Unlock()
			return nil, Canceled(ctx.Err())
		}
		p.mu.Unlock()
		// A session (or the close marker) was handed off concurrently with
		// the cancellation; the session must not leak out of the pool.
		if s := <-w.ch; s != nil {
			p.Release(s)
		}
		return nil, Canceled(ctx.Err())
	}
}

// checkoutLocked updates checkout stats; the caller holds p.mu.
func (p *Pool) checkoutLocked() {
	p.inFlight++
	if p.inFlight > p.peakInUse {
		p.peakInUse = p.inFlight
	}
}

// Release returns a session to the pool. If an Acquire is parked, the
// session transfers directly (it stays in flight, just under a new owner);
// otherwise it joins the LIFO free stack. A poisoned session (its VM
// panicked mid-execution) never re-enters circulation: it is quarantined —
// dropped on the floor for the GC, with a fresh VM over the same frozen
// executable minted in its place — so pool size is conserved and no state
// touched by the faulting request can resurface in a later one.
//
// vet:no-ctx — the only channel operation is the direct handoff to a parked
// Acquire, whose single-slot buffer the waiter owns; the send can never
// block.
func (p *Pool) Release(s *Session) {
	if s.poisoned {
		fresh := p.newSession(s.id)
		fresh.invocations.Store(s.invocations.Load())
		p.mu.Lock()
		p.quarantined++
		for i, old := range p.all {
			if old == s {
				p.all[i] = fresh
				break
			}
		}
		p.mu.Unlock()
		s = fresh
	}
	p.mu.Lock()
	if w := p.popWaiterLocked(); w != nil {
		p.mu.Unlock()
		w.ch <- s
		return
	}
	p.free = append(p.free, s)
	p.inFlight--
	p.mu.Unlock()
}

// popWaiterLocked dequeues the oldest live waiter, or nil.
func (p *Pool) popWaiterLocked() *waiter {
	for len(p.waiters) > 0 {
		w := p.waiters[0]
		p.waiters = p.waiters[1:]
		if _, live := p.waiterID[w.id]; live {
			delete(p.waiterID, w.id)
			return w
		}
	}
	return nil
}

// Note counts one served request and, unless it was canceled, its failure.
func (p *Pool) Note(err error) {
	p.invocations.Add(1)
	// Client-initiated cancellations are not execution failures; counting
	// them would let request deadlines inflate the pool's error rate.
	if err != nil && !errors.Is(err, ErrCanceled) {
		p.errors.Add(1)
	}
}

// Close marks the pool closed; blocked and future Acquires fail with
// ErrClosed. Sessions already checked out may finish and Release normally.
//
// vet:no-ctx — the only channel operations are the wake-ups of parked
// waiters, each a send into a single-slot buffer the waiter owns; none can
// block.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var parked []*waiter
	for {
		w := p.popWaiterLocked()
		if w == nil {
			break
		}
		parked = append(parked, w)
	}
	p.mu.Unlock()
	for _, w := range parked {
		w.ch <- nil // read as ErrClosed by the waiter
	}
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Workers     int           `json:"workers"`
	Invocations int64         `json:"invocations"`
	Errors      int64         `json:"errors"`
	InFlight    int           `json:"in_flight"`
	PeakInUse   int           `json:"peak_in_use"`
	Waits       int64         `json:"waits"`
	WaitTime    time.Duration `json:"wait_time_ns"`
	// Quarantined counts poisoned sessions (VM/kernel panics) replaced by
	// fresh VMs; the pool's size never changes when this rises.
	Quarantined int64 `json:"quarantined"`
	// PerSession lists invocation counts by session id; a steep skew
	// toward low ids is the LIFO policy working as intended.
	PerSession []int64 `json:"per_session"`
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Workers:     len(p.all),
		Invocations: p.invocations.Load(),
		Errors:      p.errors.Load(),
		InFlight:    p.inFlight,
		PeakInUse:   p.peakInUse,
		Waits:       p.waits,
		WaitTime:    p.waitTime,
		Quarantined: p.quarantined,
	}
	for _, s := range p.all {
		st.PerSession = append(st.PerSession, s.invocations.Load())
	}
	return st
}
