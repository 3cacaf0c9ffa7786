package vm

import (
	"context"
	"errors"

	"nimble/internal/tensor"
)

// ErrAborted reports a StreamRun abandoned by Abort before it finished.
var ErrAborted = errors.New("vm: stream run aborted")

// StreamRun is the VM's one unit of execution: an invocation that parks
// at every compiled-loop back edge until the next Step resumes it.
// InvokeContext steps one to its end; a holder of one steps it at its own
// pace. Between steps the run holds no VM-global state — only its frame
// stack, whose parameter registers carry the next iteration's arguments
// and whose alloc lists track the planner-owned buffers (the decode
// KV-cache) threaded through the loop — so one session can hold many
// StreamRuns at once and interleave their Step calls, admitting new runs
// mid-flight and retiring finished ones without draining the rest. That
// is iteration-level continuous batching at the VM boundary;
// internal/serve's Scheduler drives it, and a nimble Session stream is
// one stepped by its reader.
//
// A StreamRun is owned by its VM's goroutine discipline: like every other
// VM entry point, Step/Abort must not race other invocations on the same
// VM. An entry with no compiled loop simply completes in its first Step.
type StreamRun struct {
	vm    *VM
	stack []*frame
	// sink receives each stream.emit tensor during Step.
	sink     func(*tensor.Tensor) error
	result   Object
	err      error
	finished bool
}

// BeginStream prepares a step-resumable run of the named entry. No
// bytecode executes yet: the first Step runs the entry up to its first
// loop back edge (or completion). The sink receives a deep copy of every
// stream.emit value, in program order, from inside the Step that produced
// it; a sink error aborts that Step and finishes the run.
func (vm *VM) BeginStream(sink func(*tensor.Tensor) error, name string, args ...Object) (*StreamRun, error) {
	idx, err := vm.exe.EntryFunc(name)
	if err != nil {
		return nil, err
	}
	f, err := vm.newFrame(idx, args)
	if err != nil {
		return nil, err
	}
	return &StreamRun{vm: vm, stack: []*frame{f}, sink: sink}, nil
}

// Step resumes the run until its next compiled-loop back edge, returning
// done=false with the state parked for the next Step; or until the entry
// returns or fails, returning done=true with Result holding the outcome.
// A ctx cancellation observed before or during the step finishes the run
// with the context's error (further Steps keep returning it). Step is
// idempotent after completion.
func (r *StreamRun) Step(ctx context.Context) (done bool, err error) {
	if r.finished {
		return true, r.err
	}
	if err := ctx.Err(); err != nil {
		r.finish(nil, err)
		return true, r.err
	}
	m := r.vm
	// Re-arm the per-invocation VM state each step: the session may have
	// run other invocations (or other StreamRuns) since the last one.
	m.kernels = m.exe.kernels
	m.sink = r.sink
	stack, parked, out, err := m.exec(ctx, r.stack)
	m.sink = nil
	r.stack = stack
	if parked {
		return false, nil
	}
	r.finish(out, err)
	return true, r.err
}

// Result returns the entry's final value and error; valid once Step has
// reported done (before that both are zero).
func (r *StreamRun) Result() (Object, error) { return r.result, r.err }

// Abort abandons a parked run: every storage its frames still hold goes
// back to the session's pool and further Steps report ErrAborted.
// Idempotent; a no-op after the run finished on its own.
func (r *StreamRun) Abort() {
	if r.finished {
		return
	}
	r.finish(nil, ErrAborted)
}

// finish seals the outcome and releases whatever the stack still holds. On
// a clean return the stack is already empty (OpRet released each frame);
// on error or abort the parked frames still pin their loop-carried
// buffers, which must go back to the pool before the session serves the
// next request.
func (r *StreamRun) finish(out Object, err error) {
	r.finished = true
	r.result, r.err = out, err
	r.releaseFrames()
}

// releaseFrames returns the parked frames' storages to the VM pool and the
// frames themselves to the recycle list. Each storage sits in exactly one
// frame's alloc list (its owner's), so releasing every list releases each
// storage once.
func (r *StreamRun) releaseFrames() {
	m := r.vm
	for _, fr := range r.stack {
		if m.pool != nil {
			for _, st := range fr.allocs {
				m.pool.release(st)
			}
		}
		m.freeFrame(fr)
	}
	clear(r.stack)
	r.stack = r.stack[:0]
}
