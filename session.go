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
	// streaming is set while an InvokeStream is open. It is the one field
	// touched from another goroutine (the stream's producer clears it when
	// the run unwinds), hence atomic; everything else keeps the session's
	// single-goroutine discipline.
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
	if s.streaming.Load() {
		return Value{}, fmt.Errorf("nimble: session: %w", ErrBusy)
	}
	if s.closed {
		return Value{}, fmt.Errorf("nimble: session: %w", ErrClosed)
	}
	objs, err := s.p.validate(entry, args)
	if err != nil {
		return Value{}, err
	}
	defer func() {
		if rec := recover(); rec != nil {
			// A session has no scheduler to mint a replacement: poison it
			// outright. The caller opens a fresh one; the Program is immutable
			// and unharmed.
			s.closed = true
			v, err = Value{}, serve.Internal(entry, rec, debug.Stack())
		}
	}()
	out, err := s.m.InvokeContext(ctx, entry, objs...)
	if err != nil {
		return Value{}, canceled(err)
	}
	return fromObject(out)
}

// InvokeStream runs the named entry like Invoke, but returns immediately
// with a Stream over the values the program emits through the IR's
// stream.emit operator (a decoder's per-token output) while the run
// continues on a background goroutine. Validation is synchronous: unknown
// entries, arity mismatches, and signature violations fail here, before any
// stream exists. The run itself is still single-threaded on this session's
// VM — until the stream is drained or closed, further Invoke/InvokeStream
// calls fail fast with ErrBusy rather than racing the open run. A panic
// mid-stream poisons the session (ErrClosed thereafter) and surfaces as
// ErrInternal from the stream's Err.
func (s *Session) InvokeStream(ctx context.Context, entry string, args ...Value) (*Stream, error) {
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
	s.streaming.Store(true)
	st := runStream(ctx, func(runCtx context.Context, sink func(*tensor.Tensor) error) (out vm.Object, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				s.closed = true
				out, err = nil, serve.Internal(entry, rec, debug.Stack())
			}
		}()
		return s.m.InvokeStreamContext(runCtx, sink, entry, objs...)
	}, func(error) {
		// Clearing the flag is the release point: an Invoke that observes
		// streaming == false happens-after everything the stream's run did,
		// including a poisoning panic's closed = true.
		s.streaming.Store(false)
	})
	return st, nil
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
