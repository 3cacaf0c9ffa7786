package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// compileMLP returns a compiled MLP plus a single reference VM's outputs
// for a fixed input set.
func compileMLP(t testing.TB) (*models.MLP, *compiler.Result) {
	t.Helper()
	m := models.NewMLP(models.MLPConfig{In: 16, Hidden: 32, Out: 8, Layers: 2, Seed: 45})
	res, err := compiler.Compile(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// newScheduler builds a scheduler with n sessions over the compiled
// program's "main", served one request per dispatch.
func newScheduler(t testing.TB, res *compiler.Result, n int) *Scheduler {
	t.Helper()
	sc, err := NewScheduler(res.Exe, n, nil, SchedConfig{Entries: []SchedEntry{{Name: "main"}}})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// invokeTensors serves one single-tensor request through the scheduler,
// the way production does.
func invokeTensors(ctx context.Context, sc *Scheduler, name string, in *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := submitWait(sc, ctx, 0, nil, name, vm.NewTensorObj(in))
	if err != nil {
		return nil, err
	}
	return out.(*vm.TensorObj).T, nil
}

// stallRows wraps exe's kernels so a request whose input has one of the
// given leading dimensions parks in its first kernel until release is
// called for that row count: a real request holding its session for as
// long as a test needs. entered receives the row count as each one parks.
// The row counts must not be a leading dimension of the MLP's weights.
func stallRows(t testing.TB, exe *vm.Executable, rows ...int) (entered <-chan int, release func(rows int)) {
	t.Helper()
	gates := map[int]chan struct{}{}
	for _, r := range rows {
		gates[r] = make(chan struct{})
	}
	parked := make(chan int, 16)
	err := exe.WrapKernels(func(_ string, fn vm.PackedFunc) vm.PackedFunc {
		return func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
			if args[0].Rank() == 2 {
				if g := gates[args[0].Shape()[0]]; g != nil {
					select {
					case <-g:
					default:
						parked <- args[0].Shape()[0]
						<-g
					}
				}
			}
			return fn(args, out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return parked, func(r int) { close(gates[r]) }
}

func TestPoolMatchesSingleSession(t *testing.T) {
	m, res := compileMLP(t)
	rng := rand.New(rand.NewSource(9))
	inputs := make([]*tensor.Tensor, 24)
	for i := range inputs {
		inputs[i] = m.RandomBatch(rng, 1+i%5)
	}
	// Reference outputs from one plain VM over an identically compiled
	// executable (the scheduler freezes its own copy).
	refM := models.NewMLP(models.MLPConfig{In: 16, Hidden: 32, Out: 8, Layers: 2, Seed: 45})
	refVM, _, err := compiler.CompileToVM(refM.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		want[i], err = refVM.InvokeTensorsContext(context.Background(), "main", in)
		if err != nil {
			t.Fatal(err)
		}
	}

	sc := newScheduler(t, res, 4)
	if !res.Exe.Frozen() {
		t.Fatal("scheduler did not freeze the executable")
	}
	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := invokeTensors(context.Background(), sc, "main", inputs[i])
			if err != nil {
				errs[i] = err
				return
			}
			if !out.AllClose(want[i], 1e-5, 1e-6) {
				t.Errorf("request %d: pooled output differs from single-session output", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := sc.SessionStats()
	if st.Invocations != int64(len(inputs)) {
		t.Errorf("Invocations = %d, want %d", st.Invocations, len(inputs))
	}
	if st.Errors != 0 || st.InFlight != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.PeakInUse > sc.Workers() {
		t.Errorf("PeakInUse %d exceeds the session count %d", st.PeakInUse, sc.Workers())
	}
	var total int64
	for _, n := range st.PerSession {
		total += n
	}
	if total != int64(len(inputs)) {
		t.Errorf("per-session counts sum to %d, want %d", total, len(inputs))
	}
}

// TestPoolLIFOCheckout: the session freed last is the one handed out next.
func TestPoolLIFOCheckout(t *testing.T) {
	m, res := compileMLP(t)
	entered, release := stallRows(t, res.Exe, 5, 6)
	sc := newScheduler(t, res, 3)
	rng := rand.New(rand.NewSource(4))
	done := make(chan error, 2)
	for _, rows := range []int{5, 6} {
		in := m.RandomBatch(rng, rows)
		go func() {
			_, err := invokeTensors(context.Background(), sc, "main", in)
			done <- err
		}()
		<-entered // 5 rows hold session 2 (atop the stack), then 6 rows session 1
	}
	// Free session 2, then session 1: LIFO hands out session 1 next — not
	// the one first taken, and not session 0, which has never run.
	for _, rows := range []int{5, 6} {
		release(rows)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := invokeTensors(context.Background(), sc, "main", m.RandomBatch(rng, 1)); err != nil {
		t.Fatal(err)
	}
	if got := sc.SessionStats().PerSession; fmt.Sprint(got) != "[0 2 1]" {
		t.Errorf("per-session runs %v, want [0 2 1]: the session freed last should serve next", got)
	}
}

func TestPoolSerialInvocationsStayOnOneSession(t *testing.T) {
	_, res := compileMLP(t)
	sc := newScheduler(t, res, 4)
	in := models.NewMLP(models.MLPConfig{In: 16, Hidden: 32, Out: 8, Layers: 2, Seed: 45}).
		RandomBatch(rand.New(rand.NewSource(3)), 2)
	for i := 0; i < 10; i++ {
		if _, err := invokeTensors(context.Background(), sc, "main", in); err != nil {
			t.Fatal(err)
		}
	}
	st := sc.SessionStats()
	busy := 0
	for _, n := range st.PerSession {
		if n > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("serial load touched %d sessions (%v); LIFO should keep one hot", busy, st.PerSession)
	}
	if st.Waits != 0 || st.WaitTime != 0 {
		t.Errorf("serial load waited %d times (%v)", st.Waits, st.WaitTime)
	}
}

// TestPoolClose: Close fails a request queued behind the busy session,
// refuses new ones, and still takes the running request's session back.
func TestPoolClose(t *testing.T) {
	m, res := compileMLP(t)
	entered, release := stallRows(t, res.Exe, 5)
	sc := newScheduler(t, res, 1)
	rng := rand.New(rand.NewSource(5))
	running := make(chan error, 1)
	go func() {
		_, err := invokeTensors(context.Background(), sc, "main", m.RandomBatch(rng, 5))
		running <- err
	}()
	<-entered
	queued := make(chan error, 1)
	in := m.RandomBatch(rng, 1)
	go func() {
		_, err := invokeTensors(context.Background(), sc, "main", in)
		queued <- err
	}()
	awaitQueued(t, sc, 1)
	sc.Close()
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Errorf("request queued at Close = %v, want ErrClosed", err)
	}
	if _, err := invokeTensors(context.Background(), sc, "main", in); !errors.Is(err, ErrClosed) {
		t.Errorf("request after Close = %v, want ErrClosed", err)
	}
	release(5)
	if err := <-running; err != nil {
		t.Errorf("request running at Close = %v, want its result", err)
	}
	if st := sc.SessionStats(); st.InFlight != 0 {
		t.Errorf("session not freed after Close: %+v", st)
	}
}

func TestPoolRejectsBadConfig(t *testing.T) {
	_, res := compileMLP(t)
	if _, err := NewScheduler(res.Exe, 0, nil, SchedConfig{}); err == nil {
		t.Error("0-worker scheduler accepted")
	}
}

func TestFrozenExecutableRejectsMutation(t *testing.T) {
	_, res := compileMLP(t)
	newScheduler(t, res, 1)
	defer func() {
		if recover() == nil {
			t.Error("AddKernel on frozen executable did not panic")
		}
	}()
	res.Exe.AddKernel("rogue", nil)
}
