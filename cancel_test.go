package nimble

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

func mlpService(t *testing.T, opts ...ServiceOption) (*models.MLP, *Service) {
	m, svc, _ := stalledMLPService(t, opts...)
	return m, svc
}

// stalledMLPService is mlpService plus hold, which starts a request that
// parks in its first kernel and returns once that request holds a
// session. The func hold returns lets the request finish and waits for
// it. Each service holds once, while no other request runs.
func stalledMLPService(t *testing.T, opts ...ServiceOption) (m *models.MLP, svc *Service, hold func() (release func())) {
	t.Helper()
	m = models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 9})
	p, err := Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	parked, gate := make(chan struct{}), make(chan struct{})
	err = p.exe.WrapKernels(func(_ string, fn vm.PackedFunc) vm.PackedFunc {
		return func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
			if armed.CompareAndSwap(true, false) {
				parked <- struct{}{}
				<-gate
			}
			return fn(args, out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if svc, err = p.Serve(opts...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	hold = func() func() {
		in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(99)), 2))
		armed.Store(true)
		done := make(chan error, 1)
		go func() {
			_, err := svc.Invoke(context.Background(), "main", in)
			done <- err
		}()
		<-parked
		return func() {
			close(gate)
			if err := <-done; err != nil {
				t.Errorf("held request: %v", err)
			}
		}
	}
	return m, svc, hold
}

// TestCanceledBeforeAcquire: a pre-canceled context returns ErrCanceled
// promptly without consuming a session — the pool's free list and wait
// counters are untouched.
func TestCanceledBeforeAcquire(t *testing.T) {
	m, svc := mlpService(t, WithWorkers(1), WithMaxBatch(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(1)), 2))
	_, err := svc.Invoke(ctx, "main", in)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled invoke error = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v should also match context.Canceled", err)
	}
	st := svc.Stats().Pool
	if st.Waits != 0 || st.InFlight != 0 || st.Invocations != 0 {
		t.Errorf("pre-canceled invoke touched the pool: %+v", st)
	}
	// The session is still available: a normal invoke succeeds immediately.
	if _, err := svc.Invoke(context.Background(), "main", in); err != nil {
		t.Fatalf("pool unusable after canceled acquire: %v", err)
	}
}

// TestCancelWhileWaitingForSession: an invoke parked behind a busy pool is
// abandoned when its deadline fires, surfaces context.DeadlineExceeded, and
// does not leak or consume the session that is eventually released.
func TestCancelWhileWaitingForSession(t *testing.T) {
	m, svc, hold := stalledMLPService(t, WithWorkers(1), WithMaxBatch(1))
	in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(2)), 2))

	// Hold the only session so the invoke below must queue.
	release := hold()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := svc.Invoke(ctx, "main", in)
	waited := time.Since(start)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued invoke error = %v, want ErrCanceled ∧ DeadlineExceeded", err)
	}
	if waited > 5*time.Second {
		t.Fatalf("canceled acquire took %v; should return promptly at the deadline", waited)
	}
	release()
	// The released session serves new work; the canceled waiter is gone.
	if _, err := svc.Invoke(context.Background(), "main", in); err != nil {
		t.Fatalf("pool wedged after canceled wait: %v", err)
	}
	if st := svc.Stats().Pool; st.InFlight != 0 {
		t.Errorf("session leaked: %+v", st)
	}
}

// TestCancelWhileQueuedInBatch: a request canceled while it waits in the
// run queue is withdrawn from the batch that would have formed; the
// remaining requests still dispatch, merged, and succeed.
func TestCancelWhileQueuedInBatch(t *testing.T) {
	m, svc, hold := stalledMLPService(t, WithWorkers(1), WithMaxBatch(8))
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()

	cctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	inputs := make([]Value, 3)
	for i := range inputs {
		inputs[i] = TensorValue(m.RandomBatch(rng, 1+i))
	}
	// Hold the only session so all three requests queue behind it; request
	// 0 is canceled while queued.
	release := hold()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reqCtx := ctx
			if i == 0 {
				reqCtx = cctx
			}
			_, errs[i] = svc.Invoke(reqCtx, "main", inputs[i])
		}(i)
	}
	for svc.Stats().Schedulers[0].Queued < 3 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	for svc.Stats().Schedulers[0].Queued > 2 {
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	if !errors.Is(errs[0], ErrCanceled) || !errors.Is(errs[0], context.Canceled) {
		t.Errorf("canceled request error = %v, want ErrCanceled ∧ context.Canceled", errs[0])
	}
	for i := 1; i < 3; i++ {
		if errs[i] != nil {
			t.Errorf("batch-mate %d failed after peer cancellation: %v", i, errs[i])
		}
	}
	bst := svc.Stats().Batchers[0]
	if bst.Canceled != 1 {
		t.Errorf("batcher Canceled = %d, want 1 (withdrawn from pending batch)", bst.Canceled)
	}
	if bst.Coalesced != 2 {
		t.Errorf("batcher Coalesced = %d, want 2 (remaining batch dispatched merged)", bst.Coalesced)
	}
	if bst.Fallbacks != 0 {
		t.Errorf("batcher fell back %d times", bst.Fallbacks)
	}
}

// TestPoolWaitCounters: Waits and WaitTime count the requests that found
// every session busy when they arrived, and their time in the run queue. A
// request that finds a session idle counts nothing.
func TestPoolWaitCounters(t *testing.T) {
	m, svc, hold := stalledMLPService(t, WithWorkers(1), WithMaxBatch(1))
	in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(4)), 2))
	if _, err := svc.Invoke(context.Background(), "main", in); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().Pool; st.Waits != 0 || st.WaitTime != 0 {
		t.Errorf("lone request on an idle session: %+v, want no wait", st)
	}

	release := hold()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Invoke(context.Background(), "main", in)
		done <- err
	}()
	for svc.Stats().Schedulers[0].Queued < 1 {
		time.Sleep(time.Millisecond)
	}
	const stall = 20 * time.Millisecond
	time.Sleep(stall)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().Pool; st.Waits != 1 || st.WaitTime < stall {
		t.Errorf("request queued behind a %v stall: Waits %d, WaitTime %v; want 1 and at least the stall", stall, st.Waits, st.WaitTime)
	}
}

// TestDeadlineExceededMidServe: a deadline that fires while the VM is
// executing stops the run at a call boundary and surfaces as
// context.DeadlineExceeded (wrapped in ErrCanceled). The session survives
// and serves the next request.
func TestDeadlineExceededMidServe(t *testing.T) {
	cfg := models.LSTMConfig{Input: 64, Hidden: 64, Layers: 1, Seed: 4}
	m := models.NewLSTM(cfg)
	p, err := Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	sess := p.NewSession()
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()

	// A sequence long enough that 1ms cannot possibly finish it: the
	// deadline must fire mid-recursion, at an OpInvoke boundary.
	longSeq := objValue(t, m, rng, 50000)
	dctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.Invoke(dctx, "main", longSeq)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-serve deadline error = %v, want ErrCanceled ∧ DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; VM is not checking the context", elapsed)
	}

	// Session state is intact: a short sequence still runs.
	out, err := sess.Invoke(ctx, "main", objValue(t, m, rng, 4))
	if err != nil {
		t.Fatalf("session broken after mid-run cancel: %v", err)
	}
	if ot, ok := out.Tensor(); !ok || ot.Shape()[1] != cfg.Hidden {
		t.Errorf("post-cancel output wrong: %v", out)
	}
}

// objValue builds an n-step LSTM input as a public Value (mirrors
// models.RandomSequenceValue without importing the public package, which
// would create an import cycle in this white-box test).
func objValue(t *testing.T, m *models.LSTM, rng *rand.Rand, n int) Value {
	t.Helper()
	steps := m.RandomSteps(rng, n)
	v := ADTValue(m.NilC.Tag)
	for i := len(steps) - 1; i >= 0; i-- {
		v = ADTValue(m.ConsC.Tag, TensorValue(steps[i]), v)
	}
	return v
}
