package nimble

import (
	"context"

	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// Stream is the handle returned by Session.InvokeStream and
// Service.InvokeStream: a pull iterator over the values the entry emits
// through the IR's stream.emit operator while the invocation is still
// running, followed by the entry's final result. The canonical producer is
// the decoder model, whose generate loop emits each sampled token the
// moment it exists — callers render tokens live instead of waiting for the
// full sequence.
//
// Usage:
//
//	st, err := sess.InvokeStream(ctx, "generate", start)
//	if err != nil { ... }         // open errors: ErrUnknownEntry, ErrBadInput, ErrOverloaded
//	defer st.Close()
//	for st.Next() {
//	    emit(st.Value())
//	}
//	out, err := st.Result()       // final result; err is the run's outcome
//
// The emitting program does not run ahead of the consumer: each emission
// blocks until Next receives it (or the context is canceled), so a slow
// consumer exerts backpressure all the way into the VM loop and an
// abandoned stream stops computing instead of generating into the void.
//
// A Stream is single-consumer: Next/Value must stay on one goroutine.
// Close and the producer side are synchronized internally.
type Stream struct {
	cancel context.CancelFunc
	ch     chan Value
	done   chan struct{}
	cur    Value
	result Value
	err    error
	closed bool
}

// runStream launches the producer goroutine: run executes the entry with a
// sink that hands each emitted tensor to the consumer, and cleanup (which
// may be nil) releases whatever resources the invocation pinned —
// admission slot, in-flight count, deadline timer — strictly after the
// run has returned. The final error is classified (context errors gain the
// ErrCanceled wrap) before it becomes visible through Err/Result.
func runStream(ctx context.Context, run func(context.Context, func(*tensor.Tensor) error) (vm.Object, error), cleanup func(error)) *Stream {
	runCtx, cancel := context.WithCancel(ctx)
	st := &Stream{cancel: cancel, ch: make(chan Value), done: make(chan struct{})}
	go func() {
		out, err := run(runCtx, func(t *tensor.Tensor) error {
			// Cancellation must win deterministically: Close's drain loop
			// keeps receiving from ch, so after cancel the select below is a
			// coin flip between the send and the done channel — a stream
			// closed before its first Next could keep "winning" the send and
			// generate its entire sequence into the drain. Checking the
			// context first bounds a canceled run to at most one more emit.
			if err := runCtx.Err(); err != nil {
				return err
			}
			select {
			case st.ch <- TensorValue(t):
				return nil
			case <-runCtx.Done():
				return runCtx.Err()
			}
		})
		var res Value
		if err == nil {
			res, err = fromObject(out)
		}
		st.result, st.err = res, canceled(err)
		// Result/err are published before ch closes: a consumer that sees
		// Next return false may read them without further synchronization.
		close(st.ch)
		if cleanup != nil {
			cleanup(err)
		}
		cancel()
		close(st.done)
	}()
	return st
}

// Next advances to the next emitted value, blocking until the program emits
// one. It returns false when the run has finished — successfully, with an
// error, or by cancellation; Err distinguishes which.
//
// vet:no-ctx — the wait is bounded by the context the stream was created
// with (InvokeStream's ctx): cancellation unwinds the producer, which
// closes the channel.
func (st *Stream) Next() bool {
	v, ok := <-st.ch
	if !ok {
		return false
	}
	st.cur = v
	return true
}

// Value returns the value Next advanced to.
func (st *Stream) Value() Value { return st.cur }

// Err returns the invocation's final error, blocking until the run
// finishes. Nil means the entry returned normally; otherwise the error is
// from the same families Invoke returns (ErrCanceled, ErrInternal, ...).
// Tokens received before a mid-stream error are partial output — the
// stream's outcome is this error, not the token count.
//
// vet:no-ctx — bounded by the stream's creation context, like Next.
func (st *Stream) Err() error {
	<-st.done
	return st.err
}

// Result returns the entry's final return value, blocking until the run
// finishes (draining is the caller's job — Result does not consume pending
// tokens, so call it after Next returns false, or from a goroutine that is
// not the consumer only if the consumer keeps draining).
//
// vet:no-ctx — bounded by the stream's creation context, like Next.
func (st *Stream) Result() (Value, error) {
	<-st.done
	return st.result, st.err
}

// Close abandons the stream: the run's context is canceled, pending and
// future emissions are discarded, and Close blocks until the producer has
// fully unwound (its admission slot released, in-flight accounting
// decremented). It returns the run's final error — ErrCanceled when Close
// itself stopped an unfinished run, nil or the run's own error when the
// stream was already drained. Idempotent; safe after Next returned false.
//
// vet:no-ctx — Close cancels the run's own context first, so the drain and
// the wait for the producer to unwind are both bounded by that
// cancellation.
func (st *Stream) Close() error {
	if !st.closed {
		st.closed = true
		st.cancel()
		for range st.ch { // discard pending emissions so the producer unblocks
		}
	}
	<-st.done
	return st.err
}
