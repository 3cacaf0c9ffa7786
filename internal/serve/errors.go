package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"nimble/internal/runtime"
)

// ErrClosed reports an operation on a closed scheduler, session, or
// service. The public nimble package re-exports this sentinel, so
// errors.Is(err, ErrClosed) holds across every layer of the stack.
var ErrClosed = errors.New("nimble: closed")

// ErrCanceled reports an invocation abandoned because its context was
// canceled or timed out. Errors returned from cancelable paths wrap BOTH
// this sentinel and the underlying context error, so callers may test with
// errors.Is against ErrCanceled, context.Canceled, or
// context.DeadlineExceeded interchangeably.
var ErrCanceled = errors.New("nimble: canceled")

// canceledError wraps a context error so it matches ErrCanceled too.
type canceledError struct{ cause error }

func (e *canceledError) Error() string { return "nimble: canceled: " + e.cause.Error() }

// Is makes errors.Is(err, ErrCanceled) true; the cause (context.Canceled or
// context.DeadlineExceeded) is matched through Unwrap.
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

func (e *canceledError) Unwrap() error { return e.cause }

// Canceled wraps a context error (ctx.Err()) into the canceled form. A nil
// cause degrades to context.Canceled so double-faulted paths still produce
// a well-formed error.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &canceledError{cause: cause}
}

// ErrInternal reports an execution fault — a VM or kernel panic recovered
// at the session boundary. The session that hit it is quarantined (the
// scheduler discards it and mints a fresh one), so poisoned per-session state can
// never leak into a later request. Errors in this family are *InternalError
// values carrying the entry name and a sanitized stack.
var ErrInternal = errors.New("nimble: internal execution fault")

// ErrOverloaded reports a request shed by admission control: the entry's
// queue is full, the expected wait exceeds the request's deadline, or the
// entry's circuit breaker is open. Errors in this family are
// *OverloadError values carrying a Retry-After hint.
var ErrOverloaded = errors.New("nimble: overloaded")

// ErrBadInput reports a request rejected at the Invoke boundary before
// reaching the VM: wrong arity, wrong value kind, or a tensor whose
// dtype/rank/static dims contradict the entry's compiled signature.
var ErrBadInput = errors.New("nimble: bad input")

// InternalError is the concrete ErrInternal: one recovered panic.
type InternalError struct {
	// Entry is the entry function that was executing.
	Entry string
	// Panic renders the recovered value.
	Panic string
	// Stack is a sanitized capture: frame addresses and goroutine headers
	// stripped, truncated to the frames nearest the fault.
	Stack string
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("nimble: internal: entry %q panicked: %s", e.Entry, e.Panic)
}

// Is makes errors.Is(err, ErrInternal) true.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// Internal converts a recovered panic into its typed error. When the panic
// crossed a ParallelFor worker (runtime.ChunkPanic) the worker's stack — the
// one that names the faulting kernel — is preferred over ours.
func Internal(entry string, rec any, stack []byte) *InternalError {
	if cp, ok := rec.(*runtime.ChunkPanic); ok {
		return &InternalError{Entry: entry, Panic: fmt.Sprint(cp.Value), Stack: SanitizeStack(cp.Stack, 12)}
	}
	return &InternalError{Entry: entry, Panic: fmt.Sprint(rec), Stack: SanitizeStack(stack, 12)}
}

// SanitizeStack reduces a debug.Stack capture to at most maxFrames
// function/location pairs with goroutine headers, argument values, and
// frame offsets removed — enough to localize a fault in a log or HTTP
// error body without leaking addresses or stack contents.
func SanitizeStack(stack []byte, maxFrames int) string {
	lines := strings.Split(string(stack), "\n")
	var out []string
	frames := 0
	for i := 0; i < len(lines) && frames < maxFrames; i++ {
		l := lines[i]
		if strings.HasPrefix(l, "goroutine ") || strings.TrimSpace(l) == "" {
			continue
		}
		if strings.HasPrefix(l, "\t") {
			// "\t/path/file.go:123 +0x1a4" -> "file.go:123" appended to the
			// preceding function line.
			loc := strings.TrimSpace(l)
			if i := strings.LastIndexByte(loc, ' '); i >= 0 && strings.HasPrefix(loc[i+1:], "+0x") {
				loc = loc[:i]
			}
			if i := strings.LastIndexByte(loc, '/'); i >= 0 {
				loc = loc[i+1:]
			}
			if n := len(out); n > 0 {
				out[n-1] += " (" + loc + ")"
			}
			continue
		}
		// "nimble/internal/kernels.MatMulInto(0xc0000b2000, ...)" -> drop args.
		fn := l
		if i := strings.IndexByte(fn, '('); i > 0 {
			fn = fn[:i]
		}
		// Skip the capture/recovery machinery above the interesting frames.
		if strings.Contains(fn, "runtime/debug.Stack") || strings.Contains(fn, "sanitize") ||
			strings.Contains(fn, "runtime.gopanic") || strings.Contains(fn, "panic.go") {
			continue
		}
		out = append(out, fn)
		frames++
	}
	return strings.Join(out, "; ")
}

// OverloadError is the concrete ErrOverloaded: one shed request.
type OverloadError struct {
	// Entry is the entry function the request targeted.
	Entry string
	// Reason distinguishes the shed: "queue full", "deadline unmeetable",
	// or "circuit open".
	Reason string
	// RetryAfter estimates when capacity should exist again; servers
	// surface it as a Retry-After header.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("nimble: overloaded: entry %q: %s (retry after %v)", e.Entry, e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// WrapCtxErr lifts a bare context error (what the VM dispatch loop returns
// when a deadline fires mid-run) into the ErrCanceled family; every other
// error — including ones already wrapped — passes through unchanged. The
// public nimble package shares this classification so both layers agree on
// what counts as a cancellation.
func WrapCtxErr(err error) error {
	if err == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &canceledError{cause: err}
	}
	return err
}
