package serve

import (
	"context"
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

// invokeTensors serves one single-tensor request on the pool the way
// production does, through a scheduler — a throwaway one per call, so the
// pool's own checkout behaviour (LIFO, waits, quarantine) is what the
// caller observes.
func invokeTensors(ctx context.Context, p *Pool, name string, in *tensor.Tensor) (*tensor.Tensor, error) {
	sc := NewScheduler(p, SchedConfig{Entries: []SchedEntry{{Name: name}}})
	out, err := sc.Stream(ctx, 0, nil, name, vm.NewTensorObj(in))
	if err != nil {
		return nil, err
	}
	return out.(*vm.TensorObj).T, nil
}

func TestPoolMatchesSingleSession(t *testing.T) {
	m, res := compileMLP(t)
	rng := rand.New(rand.NewSource(9))
	inputs := make([]*tensor.Tensor, 24)
	for i := range inputs {
		inputs[i] = m.RandomBatch(rng, 1+i%5)
	}
	// Reference outputs from one plain VM over an identically compiled
	// executable (the pool freezes its own copy).
	refM := models.NewMLP(models.MLPConfig{In: 16, Hidden: 32, Out: 8, Layers: 2, Seed: 45})
	refVM, _, err := compiler.CompileToVM(refM.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		want[i], err = refVM.InvokeTensors("main", in)
		if err != nil {
			t.Fatal(err)
		}
	}

	p, err := NewPool(res.Exe, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exe.Frozen() {
		t.Fatal("pool did not freeze the executable")
	}
	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := invokeTensors(context.Background(), p, "main", inputs[i])
			if err != nil {
				errs[i] = err
				return
			}
			if !out.AllClose(want[i], 1e-5, 1e-6) {
				t.Errorf("request %d: pool output differs from single-session output", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.Invocations != int64(len(inputs)) {
		t.Errorf("Invocations = %d, want %d", st.Invocations, len(inputs))
	}
	if st.Errors != 0 || st.InFlight != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.PeakInUse > p.Size() {
		t.Errorf("PeakInUse %d exceeds pool size %d", st.PeakInUse, p.Size())
	}
	var total int64
	for _, n := range st.PerSession {
		total += n
	}
	if total != int64(len(inputs)) {
		t.Errorf("per-session counts sum to %d, want %d", total, len(inputs))
	}
}

func TestPoolLIFOCheckout(t *testing.T) {
	_, res := compileMLP(t)
	p, err := NewPool(res.Exe, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Acquire(context.Background())
	b, _ := p.Acquire(context.Background())
	p.Release(a)
	p.Release(b)
	// b was released last, so LIFO hands it back first.
	got, _ := p.Acquire(context.Background())
	if got != b {
		t.Errorf("checkout is not LIFO: got session %d, want %d", got.ID(), b.ID())
	}
	p.Release(got)
}

func TestPoolSerialInvocationsStayOnOneSession(t *testing.T) {
	_, res := compileMLP(t)
	p, err := NewPool(res.Exe, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := models.NewMLP(models.MLPConfig{In: 16, Hidden: 32, Out: 8, Layers: 2, Seed: 45}).
		RandomBatch(rand.New(rand.NewSource(3)), 2)
	for i := 0; i < 10; i++ {
		if _, err := invokeTensors(context.Background(), p, "main", in); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	busy := 0
	for _, n := range st.PerSession {
		if n > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("serial load touched %d sessions (%v); LIFO should keep one hot", busy, st.PerSession)
	}
	if st.Waits != 0 {
		t.Errorf("serial load blocked %d times", st.Waits)
	}
}

func TestPoolClose(t *testing.T) {
	_, res := compileMLP(t)
	p, err := NewPool(res.Exe, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := p.Acquire(context.Background())
	released := make(chan error, 1)
	go func() {
		_, err := p.Acquire(context.Background()) // blocks: the only session is out
		released <- err
	}()
	p.Close()
	if err := <-released; err == nil {
		t.Error("Acquire on closed pool succeeded")
	}
	p.Release(s) // releasing after close must not panic
	if _, err := p.Acquire(context.Background()); err == nil {
		t.Error("Acquire after close succeeded")
	}
}

func TestPoolRejectsBadConfig(t *testing.T) {
	_, res := compileMLP(t)
	if _, err := NewPool(res.Exe, 0); err == nil {
		t.Error("0-worker pool accepted")
	}
}

func TestFrozenExecutableRejectsMutation(t *testing.T) {
	_, res := compileMLP(t)
	p, err := NewPool(res.Exe, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddKernel on frozen executable did not panic")
		}
	}()
	p.Executable().AddKernel("rogue", nil)
}
