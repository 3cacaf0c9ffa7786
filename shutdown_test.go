package nimble

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"nimble/internal/faults"
	"nimble/internal/models"
	"nimble/internal/tensor"
)

// TestShutdownDrainsInFlight: Shutdown with a generous context lets every
// admitted request finish (no ErrClosed for them), rejects new arrivals
// immediately, and returns nil.
func TestShutdownDrainsInFlight(t *testing.T) {
	mcfg := models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 9}
	p, err := Compile(models.NewMLP(mcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	// Every kernel dispatch stalls 5ms so requests are reliably in flight
	// when Shutdown lands.
	inj := faults.NewInjector(faults.Config{Seed: 5, SlowPer1024: 1024, SlowDelay: 5 * time.Millisecond})
	if err := inj.WrapExecutable(p.exe); err != nil {
		t.Fatal(err)
	}
	svc, err := p.Serve(WithWorkers(2), WithMaxBatch(1), WithMaxQueue(16))
	if err != nil {
		t.Fatal(err)
	}

	m := models.NewMLP(mcfg)
	in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(1)), 2))
	const n = 8
	errs := make([]error, n)
	var started, wg sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			_, errs[i] = svc.Invoke(context.Background(), "main", in)
		}(i)
	}
	started.Wait()
	time.Sleep(2 * time.Millisecond) // let the invokes pass admission

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with room to drain returned %v", err)
	}
	wg.Wait()
	for i, e := range errs {
		// A request that had not passed the closed-check yet may reject
		// with ErrClosed; one that was admitted must have drained cleanly.
		if e != nil && !errors.Is(e, ErrClosed) {
			t.Errorf("request %d: %v", i, e)
		}
	}
	// New arrivals reject immediately after shutdown.
	if _, err := svc.Invoke(context.Background(), "main", in); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown invoke error = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown returned %v", err)
	}
}

// TestShutdownBoundedDrain: when the drain context expires first, Shutdown
// returns promptly with an ErrClosed-wrapping error reporting the
// stragglers instead of hanging, and the straggling requests themselves
// resolve (with ErrClosed/ErrCanceled), not hang.
func TestShutdownBoundedDrain(t *testing.T) {
	mcfg := models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 9}
	p, err := Compile(models.NewMLP(mcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	// Stalls far longer than the drain window.
	inj := faults.NewInjector(faults.Config{Seed: 6, SlowPer1024: 1024, SlowDelay: 300 * time.Millisecond})
	if err := inj.WrapExecutable(p.exe); err != nil {
		t.Fatal(err)
	}
	svc, err := p.Serve(WithWorkers(1), WithMaxBatch(1), WithMaxQueue(4))
	if err != nil {
		t.Fatal(err)
	}

	m := models.NewMLP(mcfg)
	in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(2)), 2))
	done := make(chan error, 1)
	go func() {
		_, err := svc.Invoke(context.Background(), "main", in)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // the invoke is inside its 300ms stall

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = svc.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded Shutdown took %v", elapsed)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("expired-drain Shutdown returned %v, want an ErrClosed-wrapping straggler report", err)
	}

	// The straggler itself resolves rather than hanging forever.
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request hung after bounded shutdown")
	}
}

// TestShutdownRefusesBeforeValidation pins the refusal order: a Service
// that is shut down answers ErrClosed even to a request its validation
// would reject, for Invoke and InvokeStream alike. A Registry re-routes a
// request only on ErrClosed, so a request valid only for the version it
// re-routes to must not fail on the drained one with ErrBadInput.
func TestShutdownRefusesBeforeValidation(t *testing.T) {
	_, svc := mlpService(t, WithWorkers(1))
	ctx := context.Background()
	cases := []struct {
		name  string
		entry string
		args  []Value
		open  error // the refusal while the service is open
	}{
		{"unknown entry", "nope", []Value{TensorValue(tensor.New(tensor.Float32, 1, 8))}, ErrUnknownEntry},
		{"wrong arity", "main", nil, ErrBadInput},
		{"wrong shape", "main", []Value{TensorValue(tensor.New(tensor.Float32, 1, 5))}, ErrBadInput},
	}
	for _, tc := range cases {
		if _, err := svc.Invoke(ctx, tc.entry, tc.args...); !errors.Is(err, tc.open) {
			t.Fatalf("%s on an open service: Invoke = %v, want %v", tc.name, err, tc.open)
		}
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if _, err := svc.Invoke(ctx, tc.entry, tc.args...); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Shutdown: Invoke = %v, want ErrClosed", tc.name, err)
		}
		if _, err := svc.InvokeStream(ctx, tc.entry, tc.args...); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Shutdown: InvokeStream = %v, want ErrClosed", tc.name, err)
		}
	}
}

// TestShutdownSkipsEndedStream: a stream whose run has ended, with its last
// token still unread, is no longer in flight. Shutdown returns nil without
// waiting for the reader, and the reader then gets the token and a nil Err.
func TestShutdownSkipsEndedStream(t *testing.T) {
	p, err := Compile(models.NewDecoder(models.DefaultDecoderConfig()).Module)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := p.Serve(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	start := TensorValue(models.StartToken(5))
	ref, err := svc.InvokeStream(ctx, "generate", start)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ref.Next() {
		n++
	}
	if err := ref.Err(); err != nil || n < 2 {
		t.Fatalf("reference stream: %d tokens, %v", n, err)
	}

	st, err := svc.InvokeStream(ctx, "generate", start)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if !st.Next() {
			t.Fatalf("stream ended after %d of %d tokens: %v", i, n, st.Err())
		}
	}
	// The run's last step emits the last token and returns at once: wait
	// until the run has ended with that token unread.
	for deadline := time.Now().Add(5 * time.Second); ; {
		live := 0
		for _, e := range svc.Stats().Schedulers {
			live += e.Queued + e.Active
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run still queued or active after its reader took %d of %d tokens", n-1, n)
		}
		runtime.Gosched()
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown with only an ended stream open = %v, want nil", err)
	}
	if !st.Next() {
		t.Fatalf("last token lost after Shutdown: %v", st.Err())
	}
	if st.Next() {
		t.Fatal("stream yields more tokens than the reference")
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream after Shutdown: Err = %v, want nil", err)
	}
}
