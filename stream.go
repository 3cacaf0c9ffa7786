package nimble

import (
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
// The emitting program does not run ahead of its reader. A Session stream
// runs one loop iteration inside Next whenever no emitted value is left to
// return; a Service stream's run parks at its next iteration boundary
// while its last value is unread, and its batch-mates keep stepping. So a
// slow reader exerts backpressure all the way into the VM loop, and an
// abandoned stream stops computing instead of generating into the void.
//
// Every method runs on the reader's goroutine, and no goroutine runs
// between the VM and the reader. To stop a stream from elsewhere, cancel
// the context given to InvokeStream.
type Stream struct {
	src    streamSource
	cur    Value
	result Value
	err    error
	ended  bool // src was waited for; result and err hold the outcome
}

// streamSource is the run a Stream reads: the *serve.Run a Service's
// scheduler admitted, read in place, or a Session's VM run stepped by the
// reader. Next returns the next emitted tensor, or false at the end; Wait
// ends the run, retiring it first if it has not finished, and returns its
// outcome.
type streamSource interface {
	Next() (*tensor.Tensor, bool)
	Wait() (vm.Object, error)
}

// Next advances to the next emitted value, blocking until the program emits
// one. It returns false when the run has finished — successfully, with an
// error, or by cancellation; Err distinguishes which.
//
// vet:no-ctx — the wait is bounded by the context the stream was created
// with (InvokeStream's ctx).
func (st *Stream) Next() bool {
	if st.ended {
		return false
	}
	if t, ok := st.src.Next(); ok {
		st.cur = TensorValue(t)
		return true
	}
	st.end()
	return false
}

// end waits for the run and records its outcome; context errors gain the
// ErrCanceled wrap.
func (st *Stream) end() {
	out, err := st.src.Wait()
	if err == nil {
		st.result, err = fromObject(out)
	}
	st.err, st.ended = canceled(err), true
}

// Value returns the value Next advanced to.
func (st *Stream) Value() Value { return st.cur }

// Err returns the invocation's final error. A stream not yet read to its
// end is drained first: the run goes on, and the values it emits are
// discarded. Nil means the entry returned normally; otherwise the error is
// from the same families Invoke returns (ErrCanceled, ErrInternal, ...).
// Values received before a mid-stream error are partial output — the
// stream's outcome is this error, not the value count.
//
// vet:no-ctx — bounded by the stream's creation context, like Next.
func (st *Stream) Err() error {
	for st.Next() {
	}
	return st.err
}

// Result returns the entry's final return value and the run's error,
// draining the stream first like Err.
//
// vet:no-ctx — bounded by the stream's creation context, like Next.
func (st *Stream) Result() (Value, error) {
	err := st.Err()
	return st.result, err
}

// Close abandons the stream. A run that has not finished runs no further
// step: its buffers go back to the session's pool, a Service's run stops
// being in flight, and Close returns ErrCanceled.
// After the run finished, Close returns its outcome, like Err, and drops
// any values left unread. Idempotent; safe after Next returned false.
//
// vet:no-ctx — a Service run is retired by its worker within one step.
func (st *Stream) Close() error {
	if !st.ended {
		st.end()
	}
	return st.err
}
