package nimble

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"nimble/internal/ir"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// emitCountingDecoder compiles the decoder with its stream.emit kernel
// wrapped to count the calls, so a test can see how far a run got.
func emitCountingDecoder(t *testing.T) (*Program, *atomic.Int64) {
	t.Helper()
	p, err := Compile(models.NewDecoder(models.DefaultDecoderConfig()).Module)
	if err != nil {
		t.Fatal(err)
	}
	emits := new(atomic.Int64)
	err = p.exe.WrapKernels(func(name string, fn vm.PackedFunc) vm.PackedFunc {
		if name != ir.OpStreamEmit {
			return fn
		}
		return func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
			emits.Add(1)
			return fn(args, out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, emits
}

// decoderStreams opens decoder streams on one Session and on a one-worker
// Service over the same program.
func decoderStreams(t *testing.T, p *Program) map[string]func() (*Stream, error) {
	svc, err := p.Serve(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	sess := p.NewSession()
	start := TensorValue(models.StartToken(5))
	return map[string]func() (*Stream, error){
		"session": func() (*Stream, error) { return sess.InvokeStream(context.Background(), "generate", start) },
		"service": func() (*Stream, error) { return svc.InvokeStream(context.Background(), "generate", start) },
	}
}

// TestStreamCloseBeforeFirstRead: a stream closed before its first Next
// runs no step after Close. A Service run may have emitted its first token
// already; it then sits unread, so the run is parked and Close retires it
// where it stands.
func TestStreamCloseBeforeFirstRead(t *testing.T) {
	p, emits := emitCountingDecoder(t)
	for name, open := range decoderStreams(t, p) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				before := emits.Load()
				st, err := open()
				if err != nil {
					t.Fatal(err)
				}
				if name == "service" {
					for emits.Load() == before { // wait for the worker's first step
						runtime.Gosched()
					}
				}
				atClose := emits.Load()
				if err := st.Close(); !errors.Is(err, ErrCanceled) {
					t.Fatalf("iter %d: Close = %v, want ErrCanceled", i, err)
				}
				if n := emits.Load() - atClose; n != 0 {
					t.Fatalf("iter %d: %d emits after Close of an unread stream", i, n)
				}
				if st.Next() {
					t.Fatalf("iter %d: Next after Close returned a value", i)
				}
			}
		})
	}
}

// TestStreamCloseBoundsRunningProducer: Close after one token stops the
// run within one more emit. A Session stream emits nothing after Close; a
// Service run may have taken one more step once its first token was read.
func TestStreamCloseBoundsRunningProducer(t *testing.T) {
	p, emits := emitCountingDecoder(t)
	for name, open := range decoderStreams(t, p) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				st, err := open()
				if err != nil {
					t.Fatal(err)
				}
				if !st.Next() {
					t.Fatalf("iter %d: no first token: %v", i, st.Err())
				}
				atClose := emits.Load()
				if err := st.Close(); !errors.Is(err, ErrCanceled) {
					t.Fatalf("iter %d: Close = %v, want ErrCanceled", i, err)
				}
				if n := emits.Load() - atClose; n > 1 {
					t.Fatalf("iter %d: %d emits after Close; cancellation did not bound the run", i, n)
				}
			}
		})
	}
}

// TestStreamStartsNoGoroutine: a stream is read straight from the run that
// produces it. A Session stream starts no goroutine at all; a one-worker
// Service stream starts at most its worker.
func TestStreamStartsNoGoroutine(t *testing.T) {
	p, _ := emitCountingDecoder(t)
	for name, open := range decoderStreams(t, p) {
		t.Run(name, func(t *testing.T) {
			limit := 0
			if name == "service" {
				limit = 1
			}
			before := runtime.NumGoroutine()
			st, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if !st.Next() {
				t.Fatalf("no first token: %v", st.Err())
			}
			if n := runtime.NumGoroutine() - before; n > limit {
				t.Errorf("reading the first token started %d goroutines, want at most %d", n, limit)
			}
		})
	}
}
