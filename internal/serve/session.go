// Package serve is Nimble's concurrent serving runtime. The paper's
// compile-once VM makes dynamic models servable; this package makes them
// serve concurrent traffic: one frozen vm.Executable (weights, bytecode,
// kernel table — all immutable) is shared by a fixed set of vm.VM
// sessions, each owning the mutable per-execution state (storage pool,
// frames, scratch, profiler). The Scheduler builds and owns the sessions.
// Every request takes one path: into the Scheduler's run queue, which
// admits it by its entry's policy — a bound on the entry's runs waiting
// there, deadline-aware shedding and a circuit breaker, all decided under
// the queue's own lock — and onto a session one of the scheduler's workers
// holds — alone, coalesced with compatible rows, or interleaved with other
// decode streams. The run queue is the only place a request waits for a
// session, and the only count of waiting requests admission reads. A request is a Run that its caller reads in place: Next takes
// each emitted tensor straight from the worker that stepped it, and Wait
// takes the outcome; no goroutine stands between the two.
//
// Every blocking path accepts a context.Context: a queued request is
// withdrawn when its context is canceled, a running one stops at its next
// step. Cancellation errors wrap both ErrCanceled and the underlying
// context error.
package serve

import (
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

// step advances r by one compiled-loop iteration, or to its end, beginning
// its vm.StreamRun at the first step. Many runs may be parked on one
// session at once, but every step happens on the goroutine that holds it.
// A VM or kernel panic is recovered here — the isolation boundary between
// one request and the process — into an *InternalError, and the session is
// poisoned so the scheduler replaces it. Every run parked on it is lost
// too, since they share the poisoned VM's storage pool; the tokens a stream
// already delivered do not make its outcome a success.
func (s *Session) step(r *Run) (done bool, err error) {
	name := r.entry.sched.Entry
	defer func() {
		if rec := recover(); rec != nil {
			s.poisoned = true
			done, err = true, Internal(name, rec, debug.Stack())
		}
	}()
	if r.run == nil {
		s.invocations.Add(1)
		var sink func(*tensor.Tensor) error
		if r.tokens != nil {
			sink = vmSink(r)
		}
		if r.run, err = s.machine.BeginStream(sink, name, r.args...); err != nil {
			return true, err
		}
	}
	done, err = r.run.Step(r.ctx)
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
