// Package serve is Nimble's concurrent serving runtime. The paper's
// compile-once VM makes dynamic models servable; this package makes them
// serve concurrent traffic: one frozen vm.Executable (weights, bytecode,
// kernel table — all immutable) is shared by a fixed set of vm.VM
// sessions, each owning the mutable per-execution state (storage pool,
// frames, scratch, profiler). The Scheduler builds and owns the sessions.
// Every request takes one path: past its entry's admission Gate, into the
// Scheduler's run queue, and onto a session one of the scheduler's workers
// holds — alone, coalesced with compatible rows, or interleaved with other
// decode streams. The run queue is the only place a request waits for a
// session.
//
// Every blocking path accepts a context.Context: a queued request is
// withdrawn when its context is canceled, a running one stops at its next
// step. Cancellation errors wrap both ErrCanceled and the underlying
// context error.
package serve

import (
	"context"
	"runtime/debug"
	"sync/atomic"
	"time"

	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// Session is one execution context over the scheduler's shared
// executable. Exactly one worker holds it at a time, from taking it off
// the scheduler's free stack to pushing it back; its storage pool and
// frame recycler carry over between runs, so repeated requests on one
// session reuse memory exactly like the single-VM hot path.
type Session struct {
	machine *vm.VM
	id      int
	// invocations counts runs begun on this session. Atomic: increments
	// happen on the goroutine holding the session while Stats may read
	// concurrently from another.
	invocations atomic.Int64
	// poisoned marks a session whose VM panicked mid-execution. Its storage
	// pool, frames, and scratch may be inconsistent (a kernel died halfway
	// through writing a planner buffer), so its worker quarantines it: the
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
// session is poisoned so the scheduler replaces it instead of reusing its
// state.
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

// Stats is a snapshot of the scheduler's session counters.
type Stats struct {
	Workers     int   `json:"workers"`
	Invocations int64 `json:"invocations"`
	Errors      int64 `json:"errors"`
	// InFlight counts the sessions workers hold right now; PeakInUse the
	// most they ever held at once.
	InFlight  int `json:"in_flight"`
	PeakInUse int `json:"peak_in_use"`
	// Waits counts requests that found every session busy when they were
	// submitted; WaitTime sums their time in the run queue until a worker
	// took them.
	Waits    int64         `json:"waits"`
	WaitTime time.Duration `json:"wait_time_ns"`
	// Quarantined counts poisoned sessions (VM/kernel panics) replaced by
	// fresh VMs; the number of sessions never changes when this rises.
	Quarantined int64 `json:"quarantined"`
	// PerSession lists invocation counts by session id; a steep skew
	// toward one session is the LIFO policy working as intended.
	PerSession []int64 `json:"per_session"`
}
