package nimble

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"nimble/internal/serve"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// Session is a single-threaded execution context over a Program: it owns
// the mutable per-execution state (runtime storage pool, recycled frames,
// scratch) that makes repeated invocations allocation-free, and is NOT
// safe for concurrent use — one goroutine at a time. For concurrent
// traffic use Program.Serve.
type Session struct {
	p      *Program
	m      *vm.VM
	prof   *vm.Profiler
	closed bool
	// streaming is set while a run is open. It is atomic because a stream
	// may be read, and end, on another goroutine than the session's;
	// everything else keeps the single-goroutine discipline.
	streaming atomic.Bool
}

// NewSession creates an execution session over the program. Sessions are
// cheap: any number may exist over one Program, each on its own goroutine.
// The first session (or service, or Save) freezes the executable: from
// here on the shared artifact is immutable.
func (p *Program) NewSession() *Session {
	p.exe.Freeze()
	return &Session{p: p, m: vm.New(p.exe)}
}

// Invoke runs the named entry function. The context is honored at VM call
// boundaries, so canceling mid-run stops a long dynamic execution; the
// returned error then wraps ErrCanceled and ctx.Err(). Unknown entries,
// arity mismatches, and signature-violating arguments fail fast with
// ErrUnknownEntry / ErrBadArity / ErrBadInput. A VM or kernel panic is
// recovered into ErrInternal, and the session — whose reusable state may
// be inconsistent — refuses further use with ErrClosed.
func (s *Session) Invoke(ctx context.Context, entry string, args ...Value) (v Value, err error) {
	st, err := s.open(ctx, entry, args, false)
	if err != nil {
		return Value{}, err
	}
	return st.Result()
}

// InvokeStream runs the named entry like Invoke, but returns a Stream over
// the values the program emits through the IR's stream.emit operator (a
// decoder's per-token output). Validation is synchronous: unknown entries,
// arity mismatches, and signature violations fail here, before any stream
// exists. No bytecode runs yet: each Stream.Next steps the run on the
// reader's goroutine until it emits or ends, so the program never runs
// ahead of its reader. Until the stream ends or is closed, further
// Invoke/InvokeStream calls fail fast with ErrBusy rather than racing the
// open run. A panic mid-stream poisons the session (ErrClosed thereafter)
// and surfaces as ErrInternal from the stream's Err.
func (s *Session) InvokeStream(ctx context.Context, entry string, args ...Value) (*Stream, error) {
	return s.open(ctx, entry, args, true)
}

// open validates a call and begins its run on the session's VM, to be
// stepped by the returned Stream's reader. With emit set the stream keeps
// the tensors the run emits; without, Invoke reads it to its end.
func (s *Session) open(ctx context.Context, entry string, args []Value, emit bool) (*Stream, error) {
	if s.streaming.Load() {
		return nil, fmt.Errorf("nimble: session: %w", ErrBusy)
	}
	if s.closed {
		return nil, fmt.Errorf("nimble: session: %w", ErrClosed)
	}
	objs, err := s.p.validate(entry, args)
	if err != nil {
		return nil, err
	}
	sr := &sessionRun{s: s, ctx: ctx, entry: entry}
	var sink func(*tensor.Tensor) error
	if emit {
		sink = func(t *tensor.Tensor) error {
			sr.emitted = append(sr.emitted, t)
			return nil
		}
	}
	if sr.r, err = s.m.BeginStream(sink, entry, objs...); err != nil {
		return nil, err
	}
	s.streaming.Store(true)
	return &Stream{src: sr}, nil
}

// sessionRun is a Session stream's source: its VM run, stepped on the
// reader's goroutine whenever every tensor it emitted has been read.
type sessionRun struct {
	s       *Session
	ctx     context.Context
	entry   string
	r       *vm.StreamRun
	emitted []*tensor.Tensor
	done    bool
	err     error
}

// step advances the run one compiled-loop iteration, or to its end. It is
// the session's one recovery point: a VM or kernel panic becomes
// ErrInternal, and the session, which has no scheduler to mint a
// replacement, is poisoned outright. The caller opens a fresh one; the
// Program is immutable and unharmed.
func (sr *sessionRun) step() {
	defer func() {
		if rec := recover(); rec != nil {
			sr.s.closed = true
			sr.done, sr.err = true, serve.Internal(sr.entry, rec, debug.Stack())
		}
	}()
	sr.done, sr.err = sr.r.Step(sr.ctx)
}

func (sr *sessionRun) Next() (*tensor.Tensor, bool) {
	for len(sr.emitted) == 0 {
		if sr.done {
			return nil, false
		}
		sr.step()
	}
	t := sr.emitted[0]
	sr.emitted = append(sr.emitted[:0], sr.emitted[1:]...)
	return t, true
}

// Wait ends the run. An unfinished one runs no further step: it is
// aborted, its buffers back in the session's pool, and reports a
// cancellation. The busy mark is cleared last, so an Invoke that finds the
// session free happens after all the run did, a poisoning panic included.
func (sr *sessionRun) Wait() (out vm.Object, err error) {
	if sr.done {
		out, _ = sr.r.Result()
		err = sr.err
	} else {
		sr.r.Abort()
		err = serve.Canceled(nil)
	}
	sr.s.streaming.Store(false)
	return out, err
}

// Close marks the session unusable; later Invokes return ErrClosed.
// Idempotent. (Sessions hold no OS resources — Close exists so lifecycle
// bugs surface as typed errors instead of silent reuse.)
func (s *Session) Close() error {
	s.closed = true
	return nil
}

// EnableProfiling attaches an instruction/kernel profiler to the session.
// Must be called before the first Invoke being measured.
func (s *Session) EnableProfiling() {
	s.prof = vm.NewProfiler()
	s.m.SetProfiler(s.prof)
}

// Profile renders the profiler summary (instruction counts, per-kernel
// time); empty until EnableProfiling is called.
func (s *Session) Profile() string {
	if s.prof == nil {
		return ""
	}
	return s.prof.Summary()
}
